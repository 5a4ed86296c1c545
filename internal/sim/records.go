package sim

import (
	"bytes"
	"fmt"

	"walberla/internal/blockforest"
	"walberla/internal/field"
	"walberla/internal/output"
)

// Blocks change hands one way, as WBK2 records (output.LeafSnapshot),
// whatever moves them — a restore, a shrink or heal, a rebalance, or a
// refined world's migration. A uniform block is the level-0 leaf of its
// root (records). A record that lands is checked before the ranks agree
// on it (checkRecord, CheckShape), one that crosses between ranks is
// shipped by the one routine both runtimes use (Ship), and a uniform
// world makes the records it holds its blocks by rebuilding topology as
// setup does (reown).

// tagShip carries a rank file (Ship): user tag space above any
// ghost-exchange tag (which is bounded by numTrees * 27).
const tagShip = 1 << 30

// records are the given live blocks as WBK2 records: a uniform block is a
// level-0 leaf of its root. A decoded rank file is such a list, in the
// layout each block was stored in.
func records(blocks []*BlockData) []output.LeafSnapshot {
	snaps := make([]output.LeafSnapshot, len(blocks))
	for i, bd := range blocks {
		snaps[i] = output.LeafSnapshot{Tree: bd.Block.ID.Tree, Coord: bd.Block.Coord, Src: bd.Src, Dst: bd.Dst}
	}
	return snaps
}

// checkRecord reports whether rec can be a block of this forest: the
// level-0 leaf of a root of the grid, shaped like its blocks.
func (s *Simulation) checkRecord(rec output.LeafSnapshot) error {
	g, c := s.Forest.GridSize, rec.Coord
	in := c[0] >= 0 && c[1] >= 0 && c[2] >= 0 && c[0] < g[0] && c[1] < g[1] && c[2] < g[2]
	if !in || rec.Tree != uint32((c[2]*g[1]+c[1])*g[0]+c[0]) || rec.Path != 0 || rec.Level != 0 {
		return fmt.Errorf("sim: record %d/%#o/L%d %v is no block of this forest", rec.Tree, rec.Path, rec.Level, rec.Coord)
	}
	return CheckShape(rec, s.Forest.CellsPerBlock)
}

// CheckShape reports whether both of rec's fields have the given interior
// cells and the one ghost layer of every block, as a copy into a block
// needs.
func CheckShape(rec output.LeafSnapshot, cells [3]int) error {
	for _, pf := range [2]*field.PDFField{rec.Src, rec.Dst} {
		if [3]int{pf.Nx, pf.Ny, pf.Nz} != cells || pf.Ghost != 1 {
			return fmt.Errorf("sim: record %d/%#o/L%d %v: shape mismatch", rec.Tree, rec.Path, rec.Level, rec.Coord)
		}
	}
	return nil
}

// Ship is the one way records change hands at run time, for Rebalance
// and a refined world's migration alike: every rank in out gets its
// records as one WBK2 rank file, possibly empty (sends are eager, so all
// of them go out first), and one rank file is received from every rank in
// from; the records decoded from them are returned in from's order. No
// other rank is sent to or waited for.
func (s *Simulation) Ship(out map[int][]output.LeafSnapshot, from []int) ([]output.LeafSnapshot, error) {
	for r := range s.Comm.Size() {
		if recs, ok := out[r]; ok {
			if err := s.Comm.SendErr(r, tagShip, output.AppendLeafFile(nil, recs)); err != nil {
				return nil, fmt.Errorf("sim: shipping records to rank %d: %w", r, err)
			}
		}
	}
	var got []output.LeafSnapshot
	for _, r := range from {
		v, _, err := s.Comm.RecvErr(r, tagShip)
		if err == nil {
			msg, _ := v.([]byte)
			var recs []output.LeafSnapshot
			recs, _, err = output.ReadLeafFile(bytes.NewReader(msg), s.Stencil)
			got = append(got, recs...)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: records from rank %d: %w", r, err)
		}
	}
	return got, nil
}

// reown makes the blocks of recs this rank's block set after its
// ownership changed or was restored (Install and Rebalance end in it),
// rebuilding topology as setup does: every rank's record coordinates are
// allgathered into a setup forest whose Build yields this rank's blocks,
// neighbourhoods and owners — the forest keeps only those. A block this
// rank holds keeps its BlockData and takes its record's fields in place
// (none to copy when the record is a view of it, as Rebalance's own are);
// the others are built on the worker pool, each from its flags
// (setupFlags) and filled from its record (adopt). Collective over
// s.Comm; a failure before the allgather completes leaves the world as it
// was.
func (s *Simulation) reown(recs []output.LeafSnapshot) error {
	local := make([]int64, 0, 3*len(recs))
	for _, rec := range recs {
		local = append(local, int64(rec.Coord[0]), int64(rec.Coord[1]), int64(rec.Coord[2]))
	}
	gathered, err := s.Comm.AllgatherErr(local)
	if err != nil {
		return fmt.Errorf("sim: gathering block ownership: %w", err)
	}
	f := s.Forest
	setup := blockforest.NewSetupForest(f.Domain, f.GridSize, f.CellsPerBlock, f.Periodic)
	owner := make(map[[3]int]int)
	for r, g := range gathered {
		for v, _ := g.([]int64); len(v) >= 3; v = v[3:] {
			c := [3]int{int(v[0]), int(v[1]), int(v[2])}
			if _, twice := owner[c]; twice || setup.Block(c) == nil {
				return fmt.Errorf("sim: block %v is owned twice or lies outside the grid", c)
			}
			owner[c] = r
		}
	}
	setup.Keep(func(b *blockforest.SetupBlock) bool {
		r, ok := owner[b.Coord]
		b.Rank = r
		return ok
	})
	*s.Forest = *blockforest.Build(setup, s.Comm.Rank(), s.Comm.Size())

	byRecord := make(map[[3]int]output.LeafSnapshot, len(recs))
	for _, rec := range recs {
		byRecord[rec.Coord] = rec
	}
	s.Blocks = make([]*BlockData, len(s.Forest.Blocks))
	var fill []int // indices of the blocks whose record is not their view
	for i, b := range s.Forest.Blocks {
		if bd := s.byCoord[b.Coord]; bd != nil {
			bd.Block.Neighbors = b.Neighbors
			s.Forest.Blocks[i], s.Blocks[i] = bd.Block, bd
			if byRecord[b.Coord].Src == bd.Src {
				continue
			}
		}
		fill = append(fill, i)
	}
	errs := make([]error, len(fill))
	s.pool.run(len(fill), func(_, k int) {
		b, bd := s.Forest.Blocks[fill[k]], s.Blocks[fill[k]]
		if bd == nil {
			s.Blocks[fill[k]], errs[k] = s.adopt(b, byRecord[b.Coord])
			return
		}
		bd.Src.CopyFrom(byRecord[b.Coord].Src)
		bd.Dst.CopyFrom(byRecord[b.Coord].Dst)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.byCoord = make(map[[3]int]*BlockData, len(s.Blocks))
	for _, bd := range s.Blocks {
		s.byCoord[bd.Block.Coord] = bd
	}
	return s.rebuildPlan()
}

// adopt builds block b from its flags as construction does and fills it
// with rec's fields, which Install or the sender checked: the records are
// decoded whole-block and in the layout they were stored in, and the copy
// crops to the block's rows and transposes. (Never handed over: a buddy
// ring keeps its decoded replicas.)
func (s *Simulation) adopt(b *blockforest.Block, rec output.LeafSnapshot) (*BlockData, error) {
	bd, err := s.AssembleBlock(b, s.setupFlags(b), nil, nil)
	if err != nil {
		return nil, err
	}
	bd.Src.CopyFrom(rec.Src)
	bd.Dst.CopyFrom(rec.Dst)
	return bd, nil
}
