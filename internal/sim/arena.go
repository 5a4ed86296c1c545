package sim

import (
	"cmp"
	"slices"

	"walberla/internal/blockforest"
	"walberla/internal/field"
	"walberla/internal/kernels"
)

// Rank arenas (docs/EXCHANGE.md, "Rank arenas"). On every world, uniform
// or refined, a rank's all-fluid blocks of one level are covered by boxes
// of that level's block grid (arenaCover), and the blocks of each box
// share one Src and one Dst field: the box plus one ghost layer. Each
// member's fields are views of it (field.View), so a member's ghost layer
// toward a member of its box is that member's cells, and the exchange plan
// moves nothing between them (claims.take).

// arena is the shared storage of one box: src and dst, whose cell off is
// the first of the box of ext blocks of level starting at block lo of the
// level's grid, and its members by position in the box, x fastest. The
// storage may hold a larger box, one it kept from a former arena.
type arena struct {
	src, dst     *field.PDFField
	level        int
	lo, ext, off [3]int
	grid         []*BlockData
}

// arenaCover returns the arenas — fields not yet allocated — that cover
// the blocks that may join one (readsAll), level by level, and for each
// block the arena it joins (nil: none). A level's cover is greedy and
// deterministic: from its first uncovered member in (z, y, x) order of the
// level's grid a box grows along x, then y, then z, over uncovered members
// only, and boxes of at least two members are kept. Members that exactly
// fill their bounding box are that one box. A box of a refined level stays
// in one tree, so a regrade re-forms only the boxes of the trees it
// changes.
func arenaCover(blocks []*BlockData) (arenas, join []*arena) {
	type pos struct {
		level    int
		tree, at [3]int // tree: the root of a refined level's block
	}
	free := make(map[pos]int) // uncovered member -> block index
	var order []pos
	for i, bd := range blocks {
		if b, l := bd.Block, int(bd.Block.ID.Level); bd.readsAll() {
			p := pos{level: l, at: blockforest.LevelIndex(b.Coord, b.ID)}
			if l > 0 {
				p.tree = b.Coord
			}
			free[p] = i
			order = append(order, p)
		}
	}
	slices.SortFunc(order, func(a, b pos) int {
		return cmp.Or(cmp.Compare(a.level, b.level), cmp.Compare(a.at[2], b.at[2]), cmp.Compare(a.at[1], b.at[1]), cmp.Compare(a.at[0], b.at[0]))
	})
	// box lists the positions of the box of ext starting at p.
	box := func(p pos, ext [3]int) (in []pos) {
		for z := range ext[2] {
			for y := range ext[1] {
				for x := range ext[0] {
					in = append(in, pos{p.level, p.tree, [3]int{p.at[0] + x, p.at[1] + y, p.at[2] + z}})
				}
			}
		}
		return in
	}
	covered := func(q pos) bool { _, ok := free[q]; return !ok }
	join = make([]*arena, len(blocks))
	for _, p := range order {
		if covered(p) {
			continue
		}
		ext := [3]int{1, 1, 1}
		for d := range ext {
			for q, slab := p, ext; ; ext[d]++ {
				q.at[d], slab[d] = p.at[d]+ext[d], 1
				if slices.ContainsFunc(box(q, slab), covered) {
					break
				}
			}
		}
		a := &arena{level: p.level, lo: p.at, ext: ext, grid: make([]*BlockData, ext[0]*ext[1]*ext[2])}
		for k, q := range box(p, ext) {
			if len(a.grid) > 1 {
				join[free[q]], a.grid[k] = a, blocks[free[q]]
			}
			delete(free, q)
		}
		if len(a.grid) > 1 {
			arenas = append(arenas, a)
		}
	}
	return arenas, join
}

// at returns the position in the box of member b.
func (a *arena) at(b *blockforest.Block) int {
	p := blockforest.LevelIndex(b.Coord, b.ID)
	return ((p[2]-a.lo[2])*a.ext[1]+p[1]-a.lo[1])*a.ext[0] + p[0] - a.lo[0]
}

// views returns the Src and Dst views of member b.
func (a *arena) views(b *blockforest.Block) (src, dst *field.PDFField) {
	c, p := b.Cells, blockforest.LevelIndex(b.Coord, b.ID)
	lo := [3]int{a.off[0] + (p[0]-a.lo[0])*c[0], a.off[1] + (p[1]-a.lo[1])*c[1], a.off[2] + (p[2]-a.lo[2])*c[2]}
	return a.src.View(lo, c[0], c[1], c[2]), a.dst.View(lo, c[0], c[1], c[2])
}

// holds reports whether o held every member of a at its position, and a
// fills at least half of o's storage, which a would otherwise keep alive.
func (o *arena) holds(a *arena) bool {
	if c := o.grid[0].Block.Cells; o.level != a.level || 2*len(a.grid)*c[0]*c[1]*c[2] < o.src.InteriorCells() {
		return false
	}
	for d := range a.lo {
		if a.lo[d] < o.lo[d] || a.lo[d]+a.ext[d] > o.lo[d]+o.ext[d] {
			return false
		}
	}
	return !slices.ContainsFunc(a.grid, func(bd *BlockData) bool { return o.grid[o.at(bd.Block)] != bd })
}

// formArenas makes the arenas that cover blocks the rank's. An arena whose
// members a current arena held at their positions keeps that storage, and
// its members their views. The others are allocated level by level, at the
// uniform initial equilibrium: their members' state is copied into their
// views, and a block of the level leaving an arena gets fields of its own,
// both with a kernel for the new rows. A block without fields yet (New,
// NewBlocks) gets its views or fields (store) and its state. It runs in New
// and at the plan rebuilds after Commit, Land, Rebalance, shrink and heal.
func (s *Simulation) formArenas(blocks []*BlockData) error {
	arenas, join := arenaCover(blocks)
	c, taken := s.Forest.CellsPerBlock, make(map[*arena]bool)
	for _, a := range arenas {
		if j := slices.IndexFunc(s.arenas, func(o *arena) bool { return !taken[o] && o.holds(a) }); j >= 0 {
			o := s.arenas[j]
			taken[o], a.src, a.dst = true, o.src, o.dst
			a.off = [3]int{o.off[0] + (a.lo[0]-o.lo[0])*c[0], o.off[1] + (a.lo[1]-o.lo[1])*c[1], o.off[2] + (a.lo[2]-o.lo[2])*c[2]}
		}
	}
	s.arenas = arenas
	for l := 0; slices.ContainsFunc(blocks, func(bd *BlockData) bool { return int(bd.Block.ID.Level) >= l }); l++ {
		var is []int // the level's blocks whose storage changes
		for i, bd := range blocks {
			if a := join[i]; int(bd.Block.ID.Level) == l && (bd.Src == nil || a != nil && a.src == nil || a == nil && bd.Src.Rows().View()) {
				is = append(is, i)
			}
		}
		for _, a := range arenas {
			if e, v := a.ext, s.Config.InitialVelocity; a.level == l && a.src == nil {
				a.src = field.NewPDFField(s.Stencil, e[0]*c[0], e[1]*c[1], e[2]*c[2], 1, kernelLayout(s.Config.resolveKernel(1)))
				a.dst = a.src.CopyShape()
				s.pool.run(2, func(_, i int) {
					[2]*field.PDFField{a.src, a.dst}[i].FillEquilibrium(s.Config.InitialRho, v[0], v[1], v[2])
				})
			}
		}
		errs := make([]error, len(is))
		s.pool.run(len(is), func(w, k int) {
			bd, a := blocks[is[k]], join[is[k]]
			var src, dst *field.PDFField
			if a != nil {
				src, dst = a.views(bd.Block)
			}
			switch {
			case bd.Src == nil:
				if errs[k] = s.store(bd, src, dst); errs[k] == nil && bd.land != nil {
					bd.land(w, bd)
				} else if errs[k] == nil {
					s.applyInitialState(bd)
				}
				bd.land = nil
				return
			case a != nil:
				src.CopyFrom(bd.Src)
				dst.CopyFrom(bd.Dst)
			default:
				src, dst = bd.Src.ConvertLayout(bd.Src.Layout), bd.Dst.ConvertLayout(bd.Dst.Layout)
			}
			bd.Src, bd.Dst = src, dst
			bd.Kernel, _, errs[k] = s.Config.blockKernel(l, bd.Flags, bd.Fluid, src.Rows())
		})
		if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
			return errs[i]
		}
	}
	return nil
}

// sweep is one task of a level's sweep: a block through its own kernel,
// or a box of whole rows of arena members (sweeps) through one kernel
// over views of the box, with rows as long as the box (docs/KERNELS.md,
// "Allocation rows") — 4 blocks of 8³ sweep rows of 32 cells. Boundary
// passes and body forces stay per block.
type sweep struct {
	blocks   []*BlockData
	src, dst *field.PDFField // the box's views; nil for a block alone
	kernel   kernels.Kernel  // the box's kernel
}

// swap swaps the sweep's fields at the end of a sub-step.
func (u *sweep) swap() {
	for _, bd := range u.blocks {
		field.Swap(bd.Src, bd.Dst)
	}
	if u.kernel != nil {
		field.Swap(u.src, u.dst)
	}
}

// sweeps hands every block of the rank to add in one sweep, with its
// level and phase: a block outside the arenas alone, in the frontier iff
// it is remote, the members of an arena in boxes of whole rows — a row of
// blocks runs along x, where storage is contiguous, and is never divided
// between sweeps. A row with a remote member sweeps in the frontier, and
// consecutive rows of one status within a z-layer (each row alone where
// the layers are fewer than the workers) sweep as one box, so interior and
// frontier overlap only where the rank cut is normal to y or z. Divided
// rows swept as single blocks with rows half as long, which cost amr_shear
// up to 45 % of a rank's level-2 sweep time (EXPERIMENTS.md, "Arena rows
// swept whole"). A box of one block, and a box whose kernels read their
// flags, sweep block by block.
func (s *Simulation) sweeps(remote map[*BlockData]bool, add func(l int, frontier bool, u sweep)) error {
	for i, bd := range s.Blocks {
		if !bd.Src.Rows().View() {
			add(int(bd.Block.ID.Level), remote[bd], sweep{blocks: s.Blocks[i : i+1 : i+1]})
		}
	}
	c := s.Forest.CellsPerBlock
	for _, a := range s.arenas {
		// box adds the members in, the box of n blocks at block at of a.
		box := func(in []*BlockData, at, n [3]int, frontier bool) error {
			if len(in) == 1 || slices.ContainsFunc(in, func(bd *BlockData) bool { return bd.sweepFlags != nil }) {
				for j := range in {
					add(a.level, frontier, sweep{blocks: in[j : j+1 : j+1]})
				}
				return nil
			}
			lo, size := [3]int{a.off[0] + at[0]*c[0], a.off[1] + at[1]*c[1], a.off[2] + at[2]*c[2]}, [3]int{n[0] * c[0], n[1] * c[1], n[2] * c[2]}
			u := sweep{blocks: in, src: a.src.View(lo, size[0], size[1], size[2]), dst: a.dst.View(lo, size[0], size[1], size[2])}
			if &u.src.Data()[0] != &in[0].Src.Data()[0] {
				field.Swap(u.src, u.dst) // the members are at odd parity
			}
			var err error
			u.kernel, err = kernels.New(kernels.Spec{Choice: s.Config.resolveKernel(1), Stencil: s.Stencil,
				Tau: s.Config.TauAt(a.level), Magic: s.Config.Magic, Rows: u.src.Rows()})
			if err == nil {
				add(a.level, frontier, u)
			}
			return err
		}
		ext, rows := a.ext, a.ext[1]
		if ext[2] < s.pool.workers {
			rows = 1
		}
		// members returns the members of rows [y, y+n) of layer z.
		members := func(y, z, n int) []*BlockData { return a.grid[(z*ext[1]+y)*ext[0] : (z*ext[1]+y+n)*ext[0]] }
		hot := func(y, z int) bool {
			return slices.ContainsFunc(members(y, z, 1), func(bd *BlockData) bool { return remote[bd] })
		}
		for z := range ext[2] {
			for y := 0; y < ext[1]; {
				n := 1
				for n < rows && y+n < ext[1] && hot(y+n, z) == hot(y, z) {
					n++
				}
				if err := box(members(y, z, n), [3]int{0, y, z}, [3]int{ext[0], n, 1}, hot(y, z)); err != nil {
					return err
				}
				y += n
			}
		}
	}
	return nil
}
