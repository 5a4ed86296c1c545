package geometry

import (
	"math/rand"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/distance"
)

// ClassifyBlocksParallel performs the hybrid-parallel block classification
// of section 2.3: all candidate blocks are randomly scattered among the
// ranks (avoiding load imbalance from spatial clustering of the surface),
// each rank evaluates the block-domain intersection test for its share,
// and the result is gathered on all ranks. It returns, on every rank, the
// set of block coordinates required by the simulation.
//
// The surface description is shared in-process (the paper broadcasts the
// mesh once at startup); the evaluation work is genuinely distributed.
func ClassifyBlocksParallel(c *comm.Comm, sdf distance.SDF, f *blockforest.SetupForest, seed int64) map[[3]int]bool {
	blocks := f.Blocks()
	// Deterministic random scatter, identical on every rank.
	perm := rand.New(rand.NewSource(seed)).Perm(len(blocks))
	var mine []int64 // indices into blocks kept by this rank's evaluation
	for i, b := range blocks {
		if perm[i]%c.Size() != c.Rank() {
			continue
		}
		if BlockIntersectsDomain(sdf, b.AABB, f.CellsPerBlock) {
			mine = append(mine, int64(i))
		}
	}
	gathered := c.Allgather(mine)
	keep := make(map[[3]int]bool)
	for _, part := range gathered {
		if part == nil {
			continue
		}
		for _, idx := range part.([]int64) {
			keep[blocks[idx].Coord] = true
		}
	}
	return keep
}

// ApplyClassification removes from the forest every block not contained in
// keep, returning the number of discarded blocks.
func ApplyClassification(f *blockforest.SetupForest, keep map[[3]int]bool) int {
	return f.Keep(func(b *blockforest.SetupBlock) bool { return keep[b.Coord] })
}
