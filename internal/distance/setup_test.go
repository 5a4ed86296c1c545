package distance_test

import (
	"slices"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/distance"
	"walberla/internal/field"
	"walberla/internal/setup"
	"walberla/internal/vascular"
)

// TestSetupMatchesReferenceSDF runs the set-up pipeline on vascular trees
// twice — through the pruned queries and through the unpruned reference
// searches — and requires the same forest (kept blocks, workloads, ranks)
// and the same flag field in every block.
func TestSetupMatchesReferenceSDF(t *testing.T) {
	cells := [3]int{8, 8, 8}
	for _, tc := range []struct {
		depth int
		dx    float64
	}{{2, 0.012}, {2, 0.009}, {3, 0.016}, {3, 0.012}} {
		params := vascular.DefaultParams()
		params.Depth = tc.depth
		sdf, err := vascular.Generate(params).SDF()
		if err != nil {
			t.Fatal(err)
		}
		ref := distance.ReferenceSDF(sdf)
		opt := setup.Options{CellsPerBlock: cells, Dx: tc.dx, Ranks: 3, Seed: 1, UseGraphPartitioner: true}
		got, gotStats, vox, err := setup.BuildForest(sdf, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, _, err := setup.BuildForest(ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Fatalf("depth %d dx %v: stats %+v, reference %+v", tc.depth, tc.dx, gotStats, wantStats)
		}
		gb, wb := got.Blocks(), want.Blocks()
		hook, refHook := setup.FlagsFromSDF(sdf, vox), setup.FlagsFromSDF(ref, nil)
		for i, b := range gb {
			if w := wb[i]; b.Coord != w.Coord || b.Workload != w.Workload || b.Rank != w.Rank {
				t.Fatalf("depth %d dx %v block %d: %+v, reference %+v", tc.depth, tc.dx, i, b, w)
			}
			flags := field.NewFlagField(cells[0], cells[1], cells[2], 1)
			refFlags := field.NewFlagField(cells[0], cells[1], cells[2], 1)
			blk := &blockforest.Block{Coord: b.Coord, AABB: b.AABB, Cells: cells}
			hook(blk, nil, flags)
			refHook(blk, nil, refFlags)
			if !slices.Equal(flags.Data(), refFlags.Data()) {
				t.Fatalf("depth %d dx %v block %v: flags differ from the reference", tc.depth, tc.dx, b.Coord)
			}
		}
		t.Logf("depth %d dx %v: %d blocks, %d fluid cells", tc.depth, tc.dx, gotStats.Blocks, gotStats.FluidCells)
	}
}
