package blockforest

import (
	"fmt"
	"sort"
)

// SetupBlock is one block during the initialization phase: global
// knowledge, later shed when the distributed forest is built.
type SetupBlock struct {
	ID    BlockID
	Coord [3]int // position in the root block grid
	AABB  AABB
	// Workload is the balancing weight of the block; the paper assigns the
	// number of fluid cells.
	Workload float64
	// Memory is the memory weight (allocated cells), constrained per rank
	// during balancing.
	Memory float64
	// Rank is the process the block is assigned to; -1 before balancing.
	Rank int
}

// SetupForest is the global domain partitioning built during
// initialization: a regular grid of root blocks over the domain bounding
// box from which blocks not intersecting the computational domain have
// been removed. Its memory scales with the total number of blocks — which
// is why the paper runs this phase separately and stores the result in a
// compact file.
type SetupForest struct {
	Domain        AABB
	GridSize      [3]int
	CellsPerBlock [3]int
	Periodic      [3]bool

	blocks map[[3]int]*SetupBlock
}

// NewSetupForest subdivides the domain into a grid[0] x grid[1] x grid[2]
// grid of equally sized root blocks, each carrying cells[0..2] lattice
// cells.
func NewSetupForest(domain AABB, grid, cells [3]int, periodic [3]bool) *SetupForest {
	for i := 0; i < 3; i++ {
		if grid[i] <= 0 || cells[i] <= 0 {
			panic(fmt.Sprintf("blockforest: invalid grid %v or cells %v", grid, cells))
		}
	}
	f := &SetupForest{
		Domain:        domain,
		GridSize:      grid,
		CellsPerBlock: cells,
		Periodic:      periodic,
		blocks:        make(map[[3]int]*SetupBlock),
	}
	for k := 0; k < grid[2]; k++ {
		for j := 0; j < grid[1]; j++ {
			for i := 0; i < grid[0]; i++ {
				c := [3]int{i, j, k}
				f.blocks[c] = &SetupBlock{
					ID:       BlockID{Tree: TreeIndex(f.GridSize, c)},
					Coord:    c,
					AABB:     f.BlockAABB(c),
					Workload: float64(cells[0] * cells[1] * cells[2]),
					Memory:   float64(cells[0] * cells[1] * cells[2]),
					Rank:     -1,
				}
			}
		}
	}
	return f
}

// TreeIndex linearizes a root grid coordinate into its tree index.
func TreeIndex(grid, c [3]int) uint32 {
	return uint32((c[2]*grid[1]+c[1])*grid[0] + c[0])
}

// BlockAABB returns the bounding box of the block at grid coordinate c.
func (f *SetupForest) BlockAABB(c [3]int) AABB { return rootAABB(f.Domain, f.GridSize, c) }

// rootAABB returns the box of root c of a grid over domain.
func rootAABB(domain AABB, grid, c [3]int) AABB {
	s := domain.Size()
	var b AABB
	for i := 0; i < 3; i++ {
		w := s[i] / float64(grid[i])
		b.Min[i] = domain.Min[i] + float64(c[i])*w
		b.Max[i] = domain.Min[i] + float64(c[i]+1)*w
	}
	return b
}

// CellSize returns the lattice spacing dx per axis.
func (f *SetupForest) CellSize() [3]float64 {
	s := f.Domain.Size()
	return [3]float64{
		s[0] / float64(f.GridSize[0]*f.CellsPerBlock[0]),
		s[1] / float64(f.GridSize[1]*f.CellsPerBlock[1]),
		s[2] / float64(f.GridSize[2]*f.CellsPerBlock[2]),
	}
}

// Block returns the block at grid coordinate c, or nil if it was removed.
func (f *SetupForest) Block(c [3]int) *SetupBlock { return f.blocks[c] }

// NumBlocks returns the number of existing blocks.
func (f *SetupForest) NumBlocks() int { return len(f.blocks) }

// TotalCells returns the total number of allocated lattice cells.
func (f *SetupForest) TotalCells() int64 {
	per := int64(f.CellsPerBlock[0]) * int64(f.CellsPerBlock[1]) * int64(f.CellsPerBlock[2])
	return per * int64(len(f.blocks))
}

// RemoveBlock discards the block at c — used for blocks that do not
// intersect the computational domain. Removing a missing block is a no-op.
func (f *SetupForest) RemoveBlock(c [3]int) { delete(f.blocks, c) }

// Keep discards every block whose coordinate is not accepted by keep,
// returning the number of removed blocks.
func (f *SetupForest) Keep(keep func(b *SetupBlock) bool) int {
	removed := 0
	for c, b := range f.blocks {
		if !keep(b) {
			delete(f.blocks, c)
			removed++
		}
	}
	return removed
}

// Blocks returns all existing blocks in deterministic (Morton curve)
// order.
func (f *SetupForest) Blocks() []*SetupBlock {
	out := make([]*SetupBlock, 0, len(f.blocks))
	for _, b := range f.blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		return mortonKey(out[i].Coord) < mortonKey(out[j].Coord)
	})
	return out
}

// Leaf is the block as a leaf of the forest: the level-0 leaf of its
// root.
func (b *SetupBlock) Leaf() Leaf { return Leaf{ID: b.ID, Coord: b.Coord, Rank: b.Rank} }

// Index indexes the existing blocks as level-0 leaves, for their
// neighbourhoods (Index.Neighbors).
func (f *SetupForest) Index() *Index {
	x := newIndex(f.GridSize, f.Periodic, len(f.blocks))
	for _, b := range f.blocks {
		x.add(b.Leaf())
	}
	return x
}

// MortonKey interleaves the bits of a grid coordinate into the Morton
// (Z-order) space-filling curve key used for locality-preserving load
// balancing; exported for the exchange's message order in package sim.
func MortonKey(c [3]int) uint64 { return mortonKey(c) }

// mortonKey interleaves the bits of a grid coordinate into the Morton
// (Z-order) space-filling curve key used for locality-preserving static
// load balancing.
func mortonKey(c [3]int) uint64 {
	var key uint64
	for bit := 0; bit < 21; bit++ {
		key |= (uint64(c[0]) >> bit & 1) << (3 * bit)
		key |= (uint64(c[1]) >> bit & 1) << (3*bit + 1)
		key |= (uint64(c[2]) >> bit & 1) << (3*bit + 2)
	}
	return key
}

// BalanceMorton assigns blocks to numRanks processes by cutting the Morton
// curve into contiguous pieces of approximately equal workload — the
// simple, locality-preserving static balancer used for dense regular
// domains. Some ranks may receive no block when there are fewer blocks
// than ranks (the paper notes the cost of a few empty processes is
// negligible for memory-bound kernels).
func (f *SetupForest) BalanceMorton(numRanks int) {
	blocks := f.Blocks()
	workloads := make([]float64, len(blocks))
	for i, b := range blocks {
		workloads[i] = b.Workload
	}
	for i, r := range AssignContiguous(workloads, numRanks) {
		blocks[i].Rank = r
	}
}

// MaxRank returns the largest assigned rank, or -1 if unbalanced.
func (f *SetupForest) MaxRank() int {
	m := -1
	for _, b := range f.blocks {
		if b.Rank > m {
			m = b.Rank
		}
	}
	return m
}

// RankWorkloads sums the workload per rank over numRanks ranks.
func (f *SetupForest) RankWorkloads(numRanks int) []float64 {
	w := make([]float64, numRanks)
	for _, b := range f.blocks {
		if b.Rank >= 0 && b.Rank < numRanks {
			w[b.Rank] += b.Workload
		}
	}
	return w
}
