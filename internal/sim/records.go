package sim

import (
	"bytes"
	"fmt"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/output"
	"walberla/internal/resilience"
)

// Blocks change hands one way, as WBK2 records (output.LeafSnapshot),
// whatever moves them — a restore, a shrink or heal, a rebalance, or a
// refined world's migration — and land one way. A uniform block is the
// level-0 leaf of its root (records). A record that crosses between ranks
// is shipped by the one routine both runtimes use (Ship); the records a
// rank holds afterwards become its blocks through the one landing routine
// of both runtimes (Land), which a refined migration shares the end of
// (Commit). Every block outside construction is assembled one way
// (NewBlock): its neighbourhood from the leaf set's blockforest.Index,
// then its flags from the block and that neighbourhood.

// tagShip carries a rank file (Ship): user tag space above any
// ghost-exchange tag (which is bounded by numTrees * 27).
const tagShip = 1 << 30

// records are the given live blocks as WBK2 records, each with its full
// leaf identity: a uniform block is a level-0 leaf of its root. A decoded
// rank file is such a list, in the layout each block was stored in.
func records(blocks []*BlockData) []output.LeafSnapshot {
	snaps := make([]output.LeafSnapshot, len(blocks))
	for i, bd := range blocks {
		id := bd.Block.ID
		snaps[i] = output.LeafSnapshot{Tree: id.Tree, Path: id.Path, Level: id.Level, Coord: bd.Block.Coord, Src: bd.Src, Dst: bd.Dst}
	}
	return snaps
}

// checkRecord reports whether rec can be a block of this forest: a leaf
// at most maxLevel deep of a root of the grid, shaped like its blocks.
func (s *Simulation) checkRecord(rec output.LeafSnapshot, maxLevel int) error {
	g, c := s.Forest.GridSize, rec.Coord
	in := c[0] >= 0 && c[1] >= 0 && c[2] >= 0 && c[0] < g[0] && c[1] < g[1] && c[2] < g[2]
	if !in || rec.Tree != blockforest.TreeIndex(g, c) || int(rec.Level) > maxLevel || rec.Path>>(3*uint(rec.Level)) != 0 {
		return fmt.Errorf("sim: record %d/%#o/L%d %v is no leaf of this forest", rec.Tree, rec.Path, rec.Level, rec.Coord)
	}
	for _, pf := range [2]*field.PDFField{rec.Src, rec.Dst} {
		if [3]int{pf.Nx, pf.Ny, pf.Nz} != s.Forest.CellsPerBlock || pf.Ghost != 1 {
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

// Land makes recs — the records of every leaf this rank owns from now on
// — its block set on c, after its ownership changed or was restored: a
// restore (a rewind, shrink or heal) and a balance (Rebalance) both end
// here. A leaf
// may be as deep as the Refiner's Depth (level 0 on a uniform world). In
// five steps:
//
//  1. every record is checked alone (checkRecord);
//  2. the ranks agree on the verdict (resilience.Agree), so a record
//     refused anywhere fails every rank before anything changes;
//  3. the leaf identities are allgathered (Gather) into the leaf set, which
//     must be 2:1 graded and cover each region once (blockforest.CheckGraded) — a
//     leaf owned twice is refused here;
//  4. a block this rank holds keeps its BlockData and takes its record's
//     fields in place (none to copy when the record is a view of it, as
//     Rebalance's own are); the others are assembled on the worker pool
//     (NewBlock) and filled with a copy of their records, which are
//     decoded whole-block and in the layout they were stored in (a buddy
//     ring keeps its decoded replicas);
//  5. Commit, and the Refiner takes the leaf set in canonical order,
//     owners included.
//
// A failure before the allgather completes leaves the world as it was.
func (s *Simulation) Land(c *comm.Comm, recs []output.LeafSnapshot) error {
	maxLevel := 0
	if s.refiner != nil {
		maxLevel = s.refiner.Depth()
	}
	var err error
	for _, rec := range recs {
		if err = s.checkRecord(rec, maxLevel); err != nil {
			break
		}
	}
	if err := resilience.Agree(c, err); err != nil {
		return err
	}
	s.Comm = c
	leaves, _, _, err := s.Gather(len(recs), func(i int) (blockforest.BlockID, Weight, int64) {
		return blockforest.BlockID{Tree: recs[i].Tree, Path: recs[i].Path, Level: recs[i].Level}, Weight{}, 0 // a tree of the grid, as checked
	})
	if err != nil {
		return fmt.Errorf("sim: gathering the leaf set: %w", err)
	}
	f := s.Forest
	if err := blockforest.CheckGraded(leaves, f.GridSize, f.Periodic); err != nil {
		return fmt.Errorf("sim: the landed leaf set: %w", err)
	}
	x := blockforest.NewIndex(leaves, f.GridSize, f.Periodic)

	held := make(map[blockforest.BlockID]*BlockData, len(s.Blocks))
	for _, bd := range s.Blocks {
		held[bd.Block.ID] = bd
	}
	blocks, err := s.assemble(len(recs), func(i int) (*BlockData, error) {
		rec := recs[i]
		id := blockforest.BlockID{Tree: rec.Tree, Path: rec.Path, Level: rec.Level}
		bd, err := held[id], error(nil)
		if bd == nil {
			bd, err = s.NewBlock(x, blockforest.Leaf{ID: id, Coord: rec.Coord}, nil, nil)
		}
		if err == nil && rec.Src != bd.Src {
			bd.Src.CopyFrom(rec.Src)
			bd.Dst.CopyFrom(rec.Dst)
		}
		return bd, err
	})
	if err != nil {
		return err
	}
	err = s.Commit(x, blocks)
	if s.refiner != nil {
		s.refiner.Landed(leaves)
	}
	return err
}

// NewBlock assembles the block of leaf l of the leaf set indexed by x —
// its header (Forest.Header: box, cells, neighbourhood), its flags built
// from that header (setupFlags), then AssembleBlock with src and dst.
// Every block built outside construction comes from here: an adopted,
// gained or restored block of either runtime and every leaf of a refined
// world.
func (s *Simulation) NewBlock(x *blockforest.Index, l blockforest.Leaf, src, dst *field.PDFField) (*BlockData, error) {
	b := s.Forest.Header(l, x)
	bd, err := s.AssembleBlock(b, s.setupFlags(b), src, dst)
	if err != nil {
		return nil, fmt.Errorf("sim: leaf %v: %w", l.ID, err)
	}
	return bd, nil
}

// NewBlocks returns the blocks of leaves ls of the set x indexes, header
// and flags as NewBlock builds them, on the worker pool. Kernel and fields
// — an arena's views where they join one — come when Commit lands them
// (formArenas), with the step-0 state (Config.InitialState at each leaf's
// level) or what fill(worker, i, bd) writes into those of block i.
func (s *Simulation) NewBlocks(x *blockforest.Index, ls []blockforest.Leaf, fill func(worker, i int, bd *BlockData)) []*BlockData {
	blocks, _ := s.assemble(len(ls), func(i int) (*BlockData, error) {
		b := s.Forest.Header(ls[i], x)
		bd := s.blockData(b, s.setupFlags(b))
		if fill != nil {
			bd.land = func(worker int, bd *BlockData) { fill(worker, i, bd) }
		}
		return bd, nil
	})
	return blocks
}

// Commit makes blocks — leaves of the set x indexes that this rank owns,
// in any order — its block set: every block's neighbourhood is looked up
// in x, its measured time restarts (a balance weighs the time since the
// block set last changed, kept and gained blocks alike), then SetBlocks
// puts them in canonical order and rebuilds the exchange plans, whose
// transfers between levels the Refiner computes.
func (s *Simulation) Commit(x *blockforest.Index, blocks []*BlockData) error {
	for _, bd := range blocks {
		b := bd.Block
		b.Neighbors = x.Neighbors(blockforest.Leaf{ID: b.ID, Coord: b.Coord})
		bd.ComputeTime = 0
	}
	return s.SetBlocks(blocks, s.refiner)
}
