package sim

import (
	"slices"

	"walberla/internal/blockforest"
	"walberla/internal/field"
	"walberla/internal/kernels"
)

// Rank arenas (docs/EXCHANGE.md, "Rank arenas"). On a world without a
// Refiner, the all-fluid blocks of a rank that exactly fill their bounding
// box in the block grid share one Src and one Dst field: the box plus one
// ghost layer. Each member's fields are views of it (field.View), so a
// member's ghost layer toward a member is that member's cells, and the
// exchange plan moves nothing between them (claims.take).

// arena is a rank's shared storage: src and dst over the box of ext blocks
// starting at block lo, and its members by position in the box, x fastest.
type arena struct {
	src, dst *field.PDFField
	lo, ext  [3]int
	grid     []*BlockData
}

// arenaBox returns the bounding box — first block and extent — of the
// blocks for which member holds, and whether they are at least two that
// exactly fill it.
func arenaBox(blocks []*blockforest.Block, member func(i int) bool) (lo, ext [3]int, ok bool) {
	var hi [3]int
	n := 0
	for i, b := range blocks {
		if !member(i) {
			continue
		}
		for d := range lo {
			if n == 0 || b.Coord[d] < lo[d] {
				lo[d] = b.Coord[d]
			}
			hi[d] = max(hi[d], b.Coord[d]+1)
		}
		n++
	}
	ext = [3]int{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]}
	return lo, ext, n >= 2 && n == ext[0]*ext[1]*ext[2]
}

// arenaMember reports whether a block with fluid interior cells may join
// an arena: a level-0 block of a world without a Refiner, all fluid. A
// solid cell inside would take a neighbour's bounce-back into its state.
func (s *Simulation) arenaMember(b *blockforest.Block, fluid int) bool {
	c := b.Cells
	return s.refiner == nil && b.ID.Level == 0 && fluid == c[0]*c[1]*c[2]
}

// newArena allocates the arena of the box of ext blocks starting at block
// lo, both fields at the configured uniform initial equilibrium, in the
// layout of an all-fluid block's kernel. The two allocations and the fill
// run on the pool: they are the first touch of the rank's storage.
func (s *Simulation) newArena(lo, ext [3]int) *arena {
	c := s.Forest.CellsPerBlock
	layout := kernelLayout(s.Config.resolveKernel(1))
	var f [2]*field.PDFField
	s.pool.run(2, func(_, i int) { f[i] = field.NewPDFField(s.Stencil, ext[0]*c[0], ext[1]*c[1], ext[2]*c[2], 1, layout) })
	v, parts := s.Config.InitialVelocity, 4*s.pool.workers
	s.pool.run(2*parts, func(_, k int) {
		f[k%2].FillEquilibriumPart(k/2, parts, s.Config.InitialRho, v[0], v[1], v[2])
	})
	return &arena{src: f[0], dst: f[1], lo: lo, ext: ext, grid: make([]*BlockData, ext[0]*ext[1]*ext[2])}
}

// at returns the position in the box of the block at coord.
func (a *arena) at(coord [3]int) int {
	return ((coord[2]-a.lo[2])*a.ext[1]+coord[1]-a.lo[1])*a.ext[0] + coord[0] - a.lo[0]
}

// views returns the Src and Dst views of member b.
func (a *arena) views(b *blockforest.Block) (src, dst *field.PDFField) {
	c := b.Cells
	lo := [3]int{(b.Coord[0] - a.lo[0]) * c[0], (b.Coord[1] - a.lo[1]) * c[1], (b.Coord[2] - a.lo[2]) * c[2]}
	return a.src.View(lo, c[0], c[1], c[2]), a.dst.View(lo, c[0], c[1], c[2])
}

// formArena makes the arena of blocks the rank's. When its members are the
// current arena's nothing changes; otherwise each member's state is copied
// into its view of a new arena and each block leaving an arena gets fields
// of its own, both with a kernel for the new fields' rows. It runs at the
// plan rebuilds after Land, Rebalance, shrink and heal; New builds its
// arena before assembly instead.
func (s *Simulation) formArena(blocks []*BlockData) error {
	hdrs := make([]*blockforest.Block, len(blocks))
	for i, bd := range blocks {
		hdrs[i] = bd.Block
	}
	member := func(i int) bool { return s.arenaMember(blocks[i].Block, blocks[i].Fluid) }
	var a *arena
	if lo, ext, ok := arenaBox(hdrs, member); ok {
		a = &arena{lo: lo, ext: ext, grid: make([]*BlockData, ext[0]*ext[1]*ext[2])}
		for i, bd := range blocks {
			if member(i) {
				a.grid[a.at(bd.Block.Coord)] = bd
			}
		}
		if old := s.arena; old != nil && old.lo == lo && old.ext == ext && slices.Equal(old.grid, a.grid) {
			return nil
		}
		grid := a.grid
		a = s.newArena(lo, ext)
		a.grid = grid
	}
	s.arena = a
	errs := make([]error, len(blocks))
	s.pool.run(len(blocks), func(_, i int) {
		bd := blocks[i]
		var src, dst *field.PDFField
		switch {
		case a != nil && member(i):
			src, dst = a.views(bd.Block)
			src.CopyFrom(bd.Src)
			dst.CopyFrom(bd.Dst)
		case bd.Src.Rows().View():
			src, dst = bd.Src.ConvertLayout(bd.Src.Layout), bd.Dst.ConvertLayout(bd.Dst.Layout)
		default:
			return
		}
		bd.Src, bd.Dst = src, dst
		bd.Kernel, _, errs[i] = s.Config.blockKernel(int(bd.Block.ID.Level), bd.Flags, bd.Fluid, src.Rows())
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep is one task of a level's sweep: a block through its own kernel,
// or a box of arena members through one kernel over views of the box,
// with rows as long as the box (docs/KERNELS.md, "Allocation rows") — 4
// blocks of 8³ sweep rows of 32 cells. Boundary passes and body forces
// stay per block.
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
// level: a block outside the arena alone, the members in boxes — z-layers
// of the arena, or x-rows where the layers are fewer than the workers. A
// box whose members differ in frontier status (remote), or whose kernels
// read their flags, sweeps them one by one.
func (s *Simulation) sweeps(remote map[*BlockData]bool, add func(l int, u sweep)) error {
	for i, bd := range s.Blocks {
		if !bd.Src.Rows().View() {
			add(int(bd.Block.ID.Level), sweep{blocks: s.Blocks[i : i+1 : i+1]})
		}
	}
	a := s.arena
	if a == nil {
		return nil
	}
	c, ext, rows := s.Forest.CellsPerBlock, a.ext, a.ext[1]
	if ext[2] < s.pool.workers {
		rows = 1
	}
	for z := range ext[2] {
		for y := 0; y < ext[1]; y += rows {
			in := a.grid[(z*ext[1]+y)*ext[0] : (z*ext[1]+y+rows)*ext[0]]
			mixed := false
			for _, bd := range in {
				mixed = mixed || remote[bd] != remote[in[0]] || bd.sweepFlags != nil
			}
			if mixed || len(in) == 1 {
				for j := range in {
					add(0, sweep{blocks: in[j : j+1 : j+1]})
				}
				continue
			}
			at, n := [3]int{0, y * c[1], z * c[2]}, [3]int{ext[0] * c[0], rows * c[1], c[2]}
			u := sweep{blocks: in, src: a.src.View(at, n[0], n[1], n[2]), dst: a.dst.View(at, n[0], n[1], n[2])}
			if &u.src.Data()[0] != &in[0].Src.Data()[0] {
				field.Swap(u.src, u.dst) // the members are at odd parity
			}
			var err error
			u.kernel, err = kernels.New(kernels.Spec{Choice: s.Config.resolveKernel(1), Stencil: s.Stencil,
				Tau: s.Config.TauAt(0), Magic: s.Config.Magic, Rows: u.src.Rows()})
			if err != nil {
				return err
			}
			add(0, u)
		}
	}
	return nil
}
