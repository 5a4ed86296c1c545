package setup

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/distance"
	"walberla/internal/field"
	"walberla/internal/geometry"
	"walberla/internal/lattice"
	"walberla/internal/mesh"
	"walberla/internal/vascular"
)

// buildForestTwoPass is the pipeline before its one classification pass:
// the block-domain intersection test decides which blocks stay, and only
// those are counted, cell by cell. It is the oracle of
// TestForestMatchesTwoPass.
func buildForestTwoPass(sdf distance.SDF, opt Options) (*blockforest.SetupForest, Stats, error) {
	grid, domain := GridForDx(sdf.Bounds(), opt.CellsPerBlock, opt.Dx)
	f := blockforest.NewSetupForest(domain, grid, opt.CellsPerBlock, [3]bool{})
	discarded := f.Keep(func(b *blockforest.SetupBlock) bool {
		return geometry.BlockIntersectsDomain(sdf, b.AABB, opt.CellsPerBlock)
	})
	var fluid int64
	for _, b := range f.Blocks() {
		n := insideCells(sdf, b.AABB, opt.CellsPerBlock)
		b.Workload = float64(n)
		fluid += int64(n)
	}
	if err := balance(f, opt); err != nil {
		return nil, Stats{}, err
	}
	return f, statsFor(f, grid, discarded, fluid, opt.Dx), nil
}

// insideCells counts the cell centers of a block inside the domain, one
// query per cell.
func insideCells(sdf distance.SDF, box blockforest.AABB, cells [3]int) int {
	n := 0
	for z := 0; z < cells[2]; z++ {
		for y := 0; y < cells[1]; y++ {
			for x := 0; x < cells[0]; x++ {
				var p [3]float64
				for d, i := range [3]int{x, y, z} {
					dx := (box.Max[d] - box.Min[d]) / float64(cells[d])
					p[d] = box.Min[d] + (float64(i)+0.5)*dx
				}
				if sdf.Inside(p) {
					n++
				}
			}
		}
	}
	return n
}

func treeSDF(t testing.TB, depth int) *distance.Union {
	t.Helper()
	params := vascular.DefaultParams()
	params.Depth = depth
	sdf, err := vascular.Generate(params).SDF()
	if err != nil {
		t.Fatal(err)
	}
	return sdf
}

// sameForest reports the first difference between two forests: kept
// blocks, their workloads and ranks, and the statistics.
func sameForest(t *testing.T, what string, got, want *blockforest.SetupForest, gotStats, wantStats Stats) {
	t.Helper()
	if gotStats != wantStats {
		t.Errorf("%s: stats %+v, two passes %+v", what, gotStats, wantStats)
		return
	}
	gb, wb := got.Blocks(), want.Blocks()
	if len(gb) != len(wb) {
		t.Errorf("%s: %d blocks, two passes %d", what, len(gb), len(wb))
		return
	}
	for i := range wb {
		if gb[i].Coord != wb[i].Coord || gb[i].Workload != wb[i].Workload || gb[i].Rank != wb[i].Rank {
			t.Errorf("%s: block %d is %+v, two passes %+v", what, i, gb[i], wb[i])
			return
		}
	}
}

// TestForestMatchesTwoPass holds the one classification pass of
// BuildForest and BuildForestParallel to the two-pass pipeline: the same
// kept blocks, workloads, ranks and statistics — and BuildForestParallel
// to BuildForest's voxels.
func TestForestMatchesTwoPass(t *testing.T) {
	cases := []struct {
		name string
		sdf  distance.SDF
		opt  Options
	}{
		{"sphere", sphereSDF(t, 0.8), Options{CellsPerBlock: [3]int{8, 8, 8}, Dx: 0.04, Ranks: 4, Seed: 7}},
		{"smoke tree", treeSDF(t, 2), Options{CellsPerBlock: [3]int{16, 16, 16}, Dx: 0.05, Ranks: 2, Seed: 1, UseGraphPartitioner: true}},
		{"trimmed tree", treeSDF(t, 2), Options{CellsPerBlock: [3]int{8, 8, 8}, Dx: 0.02, Ranks: 3, Seed: 1, UseGraphPartitioner: true}},
		{"depth-4 tree", treeSDF(t, 4), Options{CellsPerBlock: [3]int{16, 16, 16}, Dx: 0.009, Ranks: 2, Seed: 1, UseGraphPartitioner: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantStats, err := buildForestTwoPass(tc.sdf, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, vox, err := BuildForest(tc.sdf, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			sameForest(t, "BuildForest", got, want, gotStats, wantStats)
			for _, ranks := range []int{1, 3, 8} {
				comm.Run(ranks, func(c *comm.Comm) {
					got, gotStats, pvox, err := BuildForestParallel(c, tc.sdf, tc.opt)
					if err != nil {
						t.Error(err)
						return
					}
					sameForest(t, "BuildForestParallel", got, want, gotStats, wantStats)
					if !reflect.DeepEqual(pvox, vox) {
						t.Errorf("BuildForestParallel on %d ranks: voxels differ from BuildForest's", ranks)
					}
				})
			}
		})
	}
}

// TestKeptVoxelsAreTheFlags: on the smoke tree, the trimmed tree and the
// benchmark's depth-4 tree, every kept block's flags through the kept
// voxels are byte for byte a fresh Voxelize and DilateBoundary of the
// block, the forest's statistics are those of the cell counts it had
// before it kept voxels, and a forest built at another spacing misses the
// voxels and still voxelizes.
func TestKeptVoxelsAreTheFlags(t *testing.T) {
	cases := []struct {
		name  string
		depth int
		opt   Options
		want  Stats // zero: not pinned here
	}{
		{"smoke tree", 2, Options{CellsPerBlock: [3]int{16, 16, 16}, Dx: 0.05, Ranks: 2, Seed: 1, UseGraphPartitioner: true}, Stats{}},
		{"trimmed tree", 2, Options{CellsPerBlock: [3]int{8, 8, 8}, Dx: 0.02, Ranks: 3, Seed: 1, UseGraphPartitioner: true}, Stats{}},
		{"depth-4 tree", 4, Options{CellsPerBlock: [3]int{16, 16, 16}, Dx: 0.009, Ranks: 2, Seed: 1, UseGraphPartitioner: true},
			Stats{Blocks: 117, DiscardedBlocks: 1647, FluidCells: 28999}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sdf := treeSDF(t, tc.depth)
			f, st, vox, err := BuildForest(sdf, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want.Blocks > 0 && (st.Blocks != tc.want.Blocks || st.DiscardedBlocks != tc.want.DiscardedBlocks || st.FluidCells != tc.want.FluidCells) {
				t.Errorf("stats %+v, want %d blocks, %d discarded, %d fluid cells", st, tc.want.Blocks, tc.want.DiscardedBlocks, tc.want.FluidCells)
			}
			cells := tc.opt.CellsPerBlock
			hook := FlagsFromSDF(sdf, vox)
			landed := newVoxelField(cells)
			fresh := newVoxelField(cells)
			check := func(what string, b *blockforest.Block) {
				hook(b, nil, landed)
				geometry.Voxelize(sdf, b.AABB, fresh)
				geometry.DilateBoundary(sdf, b.AABB, fresh, lattice.D3Q19())
				if !slices.Equal(landed.Data(), fresh.Data()) {
					t.Fatalf("%s block %v: landed flags differ from a fresh voxelization", what, b.Coord)
				}
			}
			for _, sb := range f.Blocks() {
				b := &blockforest.Block{Coord: sb.Coord, AABB: sb.AABB, Cells: cells}
				if !vox.Flags(b.Coord, b.AABB, landed) {
					t.Fatalf("block %v: no kept voxels", b.Coord)
				}
				check("kept", b)
			}
			other := tc.opt
			other.Dx *= 1.25
			g, _, _, err := BuildForest(sdf, other)
			if err != nil {
				t.Fatal(err)
			}
			for _, sb := range g.Blocks() {
				b := &blockforest.Block{Coord: sb.Coord, AABB: sb.AABB, Cells: cells}
				if vox.Flags(b.Coord, b.AABB, landed) {
					t.Fatalf("block %v at dx %v: hit the voxels kept at dx %v", b.Coord, other.Dx, tc.opt.Dx)
				}
				check("other-dx", b)
			}
		})
	}
}

// countingSDF counts the color searches made through it.
type countingSDF struct {
	distance.SDF
	colors atomic.Int64
}

func (c *countingSDF) ClosestTriangleColor(p [3]float64) mesh.Color {
	c.colors.Add(1)
	return c.SDF.ClosestTriangleColor(p)
}

// treeFlags runs FlagsFromSDF over every block of the tree's forest at
// spacing dx and returns the number of hull cells it made, each of which
// the dilation once searched the nearest color for.
func treeFlags(t testing.TB, sdf distance.SDF, dx float64) (hull int) {
	t.Helper()
	cells := [3]int{16, 16, 16}
	f, _, vox, err := BuildForest(sdf, Options{CellsPerBlock: cells, Dx: dx, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	hook := FlagsFromSDF(sdf, vox)
	flags := field.NewFlagField(cells[0], cells[1], cells[2], 1)
	for _, b := range f.Blocks() {
		hook(&blockforest.Block{Coord: b.Coord, AABB: b.AABB, Cells: cells}, nil, flags)
		for _, c := range flags.Data() {
			if c.IsBoundary() {
				hull++
			}
		}
	}
	return hull
}

// TestTreeFlagsSkipWallSearches: on the benchmark's tree, where only the
// root inlet and the leaf outlets are colored, at most a tenth of the hull
// cells search their nearest color.
func TestTreeFlagsSkipWallSearches(t *testing.T) {
	sdf := &countingSDF{SDF: treeSDF(t, 4)}
	hull := treeFlags(t, sdf, 0.009)
	n := sdf.colors.Load()
	if n*10 > int64(hull) {
		t.Errorf("%d color searches for %d hull cells", n, hull)
	}
	t.Logf("%d color searches for %d hull cells", n, hull)
}

// BenchmarkFlagsFromSDF times the flag set-up of the smoke tree's blocks
// and reports the color searches it makes per block.
func BenchmarkFlagsFromSDF(b *testing.B) {
	sdf := &countingSDF{SDF: treeSDF(b, 2)}
	cells := [3]int{16, 16, 16}
	f, _, vox, err := BuildForest(sdf, Options{CellsPerBlock: cells, Dx: 0.05, Ranks: 1})
	if err != nil {
		b.Fatal(err)
	}
	blocks := f.Blocks()
	hook := FlagsFromSDF(sdf, vox)
	flags := field.NewFlagField(cells[0], cells[1], cells[2], 1)
	sdf.colors.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sb := range blocks {
			hook(&blockforest.Block{Coord: sb.Coord, AABB: sb.AABB, Cells: cells}, nil, flags)
		}
	}
	perBlock := float64(b.N) * float64(len(blocks))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perBlock, "ns/block")
	b.ReportMetric(float64(sdf.colors.Load())/perBlock, "colors/block")
}
