package setup

import (
	"math"
	"runtime"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/comm"
	"walberla/internal/distance"
	"walberla/internal/field"
	"walberla/internal/geometry"
	"walberla/internal/mesh"
	"walberla/internal/sim"
	"walberla/internal/vascular"
)

func sphereSDF(t *testing.T, r float64) *distance.Field {
	t.Helper()
	f, err := distance.NewField(mesh.NewSphere([3]float64{0, 0, 0}, r, 3))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGridForDx(t *testing.T) {
	bounds := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 0.5, 2})
	grid, domain := GridForDx(bounds, [3]int{10, 10, 10}, 0.05)
	if grid != [3]int{2, 1, 4} {
		t.Errorf("grid = %v, want (2,1,4)", grid)
	}
	// Domain must cover the bounds and consist of whole blocks.
	for d := 0; d < 3; d++ {
		if domain.Min[d] > bounds.Min[d] || domain.Max[d] < bounds.Max[d] {
			t.Errorf("axis %d: domain does not cover bounds", d)
		}
		want := float64(grid[d]) * 10 * 0.05
		if got := domain.Max[d] - domain.Min[d]; math.Abs(got-want) > 1e-12 {
			t.Errorf("axis %d: domain extent %v, want %v", d, got, want)
		}
	}
}

func TestBuildForestSerial(t *testing.T) {
	sdf := sphereSDF(t, 0.8)
	f, stats, _, err := BuildForest(sdf, Options{
		CellsPerBlock: [3]int{8, 8, 8},
		Dx:            0.04, // block edge 0.32: the 5x5x5 grid's corners miss the sphere
		Ranks:         4,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != f.NumBlocks() || stats.Blocks == 0 {
		t.Fatalf("stats.Blocks = %d, forest has %d", stats.Blocks, f.NumBlocks())
	}
	if stats.DiscardedBlocks == 0 {
		t.Error("sphere in its bounding box should discard corner blocks... (none discarded)")
	}
	if stats.FluidFraction <= 0 || stats.FluidFraction > 1 {
		t.Errorf("FluidFraction = %v", stats.FluidFraction)
	}
	// Sphere volume fraction of bounding box is pi/6 ~ 0.52; the kept
	// blocks raise the per-block fill, so expect something near 0.5-0.8.
	if stats.FluidFraction < 0.3 {
		t.Errorf("FluidFraction = %v suspiciously low", stats.FluidFraction)
	}
	if f.MaxRank() >= 4 || f.MaxRank() < 0 {
		t.Errorf("MaxRank = %d", f.MaxRank())
	}
	// Workloads: every kept block has at least one fluid cell (the paper:
	// no blocks with zero fluid cells exist after classification).
	for _, b := range f.Blocks() {
		if b.Workload < 1 {
			t.Errorf("block %v kept with workload %v", b.Coord, b.Workload)
		}
	}
}

// The parallel pipeline must reproduce the serial pipeline exactly.
func TestBuildForestParallelMatchesSerial(t *testing.T) {
	sdf := sphereSDF(t, 0.8)
	opt := Options{
		CellsPerBlock:       [3]int{8, 8, 8},
		Dx:                  0.1,
		Ranks:               4,
		Seed:                7,
		UseGraphPartitioner: true,
	}
	fs, statsS, _, err := BuildForest(sdf, opt)
	if err != nil {
		t.Fatal(err)
	}
	// BuildForest spreads the per-block work over GOMAXPROCS goroutines;
	// on one it is the serial pass, and must build the same forest.
	prev := runtime.GOMAXPROCS(1)
	f1, stats1, _, err := BuildForest(sdf, opt)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if stats1 != statsS {
		t.Errorf("GOMAXPROCS=1: stats %+v != %+v at GOMAXPROCS=%d", stats1, statsS, prev)
	}
	blocks1 := f1.Blocks()
	for i, b := range fs.Blocks() {
		if b1 := blocks1[i]; b1.Coord != b.Coord || b1.Workload != b.Workload || b1.Rank != b.Rank {
			t.Fatalf("GOMAXPROCS=1 block %d: %+v != %+v", i, b1, b)
		}
	}
	for _, ranks := range []int{1, 5} {
		comm.Run(ranks, func(c *comm.Comm) {
			fp, statsP, _, err := BuildForestParallel(c, sdf, opt)
			if err != nil {
				t.Error(err)
				return
			}
			if statsP.Blocks != statsS.Blocks || statsP.FluidCells != statsS.FluidCells {
				t.Errorf("ranks=%d: stats %+v != serial %+v", ranks, statsP, statsS)
				return
			}
			sb, pb := fs.Blocks(), fp.Blocks()
			for i := range sb {
				if sb[i].Coord != pb[i].Coord || sb[i].Workload != pb[i].Workload || sb[i].Rank != pb[i].Rank {
					t.Errorf("ranks=%d block %d: serial %+v parallel %+v", ranks, i, sb[i], pb[i])
					return
				}
			}
		})
	}
}

func TestFindWeakScalingDx(t *testing.T) {
	sdf := sphereSDF(t, 0.8)
	cells := [3]int{8, 8, 8}
	for _, target := range []int{8, 32, 100} {
		dx, blocks, err := FindWeakScalingDx(sdf, cells, target, 24)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if blocks > target {
			t.Errorf("target %d: achieved %d blocks (exceeds)", target, blocks)
		}
		if blocks < target/3 {
			t.Errorf("target %d: only %d blocks achieved at dx=%v", target, blocks, dx)
		}
		if got := countBlocksAtDx(sdf, cells, dx); got != blocks {
			t.Errorf("target %d: recount %d != reported %d", target, got, blocks)
		}
	}
}

// The scaling searches count blocks on several goroutines; the count
// must be the serial one.
func TestCountBlocksAtDxParallelMatchesSerial(t *testing.T) {
	params := vascular.DefaultParams()
	params.Depth = 3
	sdf, err := vascular.Generate(params).SDF()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cells := [3]int{8, 8, 8}
	for _, dx := range []float64{0.04, 0.02, 0.012} {
		grid, domain := GridForDx(sdf.Bounds(), cells, dx)
		serial := 0
		for k := 0; k < grid[2]; k++ {
			for j := 0; j < grid[1]; j++ {
				for i := 0; i < grid[0]; i++ {
					if geometry.BlockIntersectsDomain(sdf, blockAABB(domain, grid, [3]int{i, j, k}), cells) {
						serial++
					}
				}
			}
		}
		if got := countBlocksAtDx(sdf, cells, dx); got != serial || serial == 0 {
			t.Errorf("dx %v: parallel count %d, serial %d", dx, got, serial)
		}
	}
}

func TestFindStrongScalingEdge(t *testing.T) {
	sdf := sphereSDF(t, 0.8)
	const dx = 0.05
	for _, target := range []int{8, 27, 64} {
		edge, blocks, err := FindStrongScalingEdge(sdf, dx, target, 4, 64)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if blocks > target {
			t.Errorf("target %d: %d blocks exceed target (edge %d)", target, blocks, edge)
		}
		if blocks == 0 {
			t.Errorf("target %d: zero blocks", target)
		}
	}
	if _, _, err := FindStrongScalingEdge(sdf, 0.01, 2, 4, 8); err == nil {
		t.Error("infeasible strong scaling search did not error")
	}
}

// End-to-end: coronary tree -> forest -> distributed simulation with
// voxelized flags; inflow drives flow through the root vessel.
func TestEndToEndVascularSimulation(t *testing.T) {
	params := vascular.DefaultParams()
	params.Depth = 1
	params.TubeSegments = 10
	tree := vascular.Generate(params)
	sdf, err := tree.SDF()
	if err != nil {
		t.Fatal(err)
	}
	f, stats, vox, err := BuildForest(sdf, Options{
		CellsPerBlock:       [3]int{10, 10, 10},
		Dx:                  tree.Params.RootRadius / 2.5,
		Ranks:               3,
		Seed:                2,
		UseGraphPartitioner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FluidCells == 0 {
		t.Fatal("no fluid cells")
	}
	comm.Run(3, func(c *comm.Comm) {
		var in *blockforest.SetupForest
		if c.Rank() == 0 {
			in = f
		}
		bf, err := blockforest.Distribute(c, in)
		if err != nil {
			t.Error(err)
			return
		}
		s, err := sim.New(c, bf, sim.Config{
			Kernel: sim.KernelSparse,
			Tau:    0.9,
			Boundary: boundary.Config{
				WallVelocity: [3]float64{0, 0, 0.02}, // inflow pushes along +z (root direction)
				Density:      1.0,
			},
			SetupFlags: FlagsFromSDF(sdf, vox),
		})
		if err != nil {
			t.Error(err)
			return
		}
		m, err := s.Run(50)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			if m.TotalFluidCells != stats.FluidCells {
				t.Errorf("simulation fluid cells %d != setup %d", m.TotalFluidCells, stats.FluidCells)
			}
			if m.FluidFraction() >= 1 || m.FluidFraction() <= 0 {
				t.Errorf("fluid fraction %v", m.FluidFraction())
			}
		}
		// Flow developed: some fluid cell has nonzero velocity.
		var localMax float64
		for _, bd := range s.Blocks {
			for z := 0; z < bd.Src.Nz; z++ {
				for y := 0; y < bd.Src.Ny; y++ {
					for x := 0; x < bd.Src.Nx; x++ {
						if bd.Flags.Get(x, y, z) != field.Fluid {
							continue
						}
						_, ux, uy, uz := bd.Src.Moments(x, y, z)
						v := math.Sqrt(ux*ux + uy*uy + uz*uz)
						if v > localMax {
							localMax = v
						}
					}
				}
			}
		}
		globalMax := c.AllreduceFloat64(localMax, comm.Max[float64])
		if globalMax < 1e-6 {
			t.Errorf("no flow developed: max |u| = %v", globalMax)
		}
		if globalMax > 0.3 {
			t.Errorf("unstable flow: max |u| = %v", globalMax)
		}
	})
}
