package blockforest_test

import (
	"math/rand"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/setup"
	"walberla/internal/vascular"
)

// gradedForest grades the uniform level-0 forest of grid through rounds of
// pseudo-random marks, as the refinement controller does.
func gradedForest(grid [3]int, periodic [3]bool, maxLevel, rounds int, seed int64) []blockforest.Leaf {
	var leaves []blockforest.Leaf
	for z := 0; z < grid[2]; z++ {
		for y := 0; y < grid[1]; y++ {
			for x := 0; x < grid[0]; x++ {
				c := [3]int{x, y, z}
				leaves = append(leaves, blockforest.Leaf{ID: blockforest.BlockID{Tree: blockforest.TreeIndex(grid, c)}, Coord: c, Rank: x % 3})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for range rounds {
		marks := make([]blockforest.Mark, len(leaves))
		for i := range marks {
			marks[i] = blockforest.Mark(rng.Intn(3) - 1)
		}
		leaves = blockforest.Grade(leaves, marks, grid, periodic, maxLevel)
	}
	return leaves
}

// TestNeighborsMatchOracle: the one neighbourhood routine lists, for every
// block and order included, what the two routines it replaced listed — the
// setup forest's loop on flat forests (the depth-2 tree's in blocks of 8³
// at dx 0.02, the walberla-sim quick run's, trimmed by its geometry; the
// smoke size of 16³ blocks at dx 0.05 keeps all four of its blocks) and
// the refined runtime's on graded ones, periodic or not, also along a
// periodic axis one block wide, where a block neighbours itself.
func TestNeighborsMatchOracle(t *testing.T) {
	params := vascular.DefaultParams()
	params.Depth = 2
	sdf, err := vascular.Generate(params).SDF()
	if err != nil {
		t.Fatal(err)
	}
	tree, _, _, err := setup.BuildForest(sdf, setup.Options{CellsPerBlock: [3]int{8, 8, 8}, Dx: 0.02, Ranks: 3, UseGraphPartitioner: true})
	if err != nil {
		t.Fatal(err)
	}
	if g := tree.GridSize; tree.NumBlocks() == g[0]*g[1]*g[2] {
		t.Fatal("the tree's forest is not trimmed")
	}
	if err := blockforest.MatchSetupOracle(tree); err != nil {
		t.Errorf("tree: %v", err)
	}
	for _, w := range []struct {
		name     string
		grid     [3]int
		periodic [3]bool
	}{
		{"periodic", [3]int{4, 2, 2}, [3]bool{true, true, true}},
		{"non-periodic", [3]int{4, 2, 2}, [3]bool{}},
		{"one block wide", [3]int{3, 1, 2}, [3]bool{false, true, true}},
	} {
		flat := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{}, [3]float64{1, 1, 1}), w.grid, [3]int{4, 4, 4}, w.periodic)
		flat.BalanceMorton(3)
		if err := blockforest.MatchSetupOracle(flat); err != nil {
			t.Errorf("%s, flat: %v", w.name, err)
		}
		deepest := 0
		for seed := range int64(4) {
			leaves := gradedForest(w.grid, w.periodic, 3, 3, seed)
			if err := blockforest.MatchGradedOracle(leaves, w.grid, w.periodic); err != nil {
				t.Errorf("%s, graded (seed %d, %d leaves): %v", w.name, seed, len(leaves), err)
			}
			for _, l := range leaves {
				deepest = max(deepest, l.Level())
			}
		}
		if deepest < 2 {
			t.Errorf("%s: no graded forest is refined past level %d", w.name, deepest)
		}
	}
}
