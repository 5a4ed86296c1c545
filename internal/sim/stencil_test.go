package sim

import (
	"math"
	"sync"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// The simulation driver is stencil-generic through the generic kernels:
// a D3Q27 cavity must give identical physics regardless of decomposition
// (the exchange automatically communicates corner PDFs for D3Q27).
func TestD3Q27DecompositionInvariance(t *testing.T) {
	run := func(ranks int, grid, cells [3]int) map[[3]int]float64 {
		domain := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
		f := blockforest.NewSetupForest(domain, grid, cells, [3]bool{})
		f.BalanceMorton(ranks)
		var mu sync.Mutex
		out := make(map[[3]int]float64)
		comm.Run(ranks, func(c *comm.Comm) {
			forest, _ := blockforest.Distribute(c, forestFor(c.Rank(), f))
			s, err := New(c, forest, Config{
				Stencil:    lattice.D3Q27(),
				Kernel:     KernelGenericTRT,
				Tau:        0.8,
				Boundary:   boundary.Config{WallVelocity: [3]float64{0.05, 0, 0}},
				SetupFlags: cavityFlags,
			})
			if err != nil {
				t.Error(err)
				return
			}
			mustRun(t, s, 25)
			mu.Lock()
			defer mu.Unlock()
			for _, bd := range s.Blocks {
				base := [3]int{
					bd.Block.Coord[0] * cells[0],
					bd.Block.Coord[1] * cells[1],
					bd.Block.Coord[2] * cells[2],
				}
				for z := 0; z < cells[2]; z++ {
					for y := 0; y < cells[1]; y++ {
						for x := 0; x < cells[0]; x++ {
							_, ux, _, _ := bd.Src.Moments(x, y, z)
							out[[3]int{base[0] + x, base[1] + y, base[2] + z}] = ux
						}
					}
				}
			}
		})
		return out
	}
	ref := run(1, [3]int{1, 1, 1}, [3]int{6, 6, 6})
	got := run(4, [3]int{2, 2, 1}, [3]int{3, 3, 6})
	if len(got) != len(ref) {
		t.Fatalf("cell counts differ: %d vs %d", len(got), len(ref))
	}
	var maxDiff float64
	for k, v := range ref {
		if d := math.Abs(got[k] - v); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-13 {
		t.Errorf("D3Q27 decomposition deviation %g", maxDiff)
	}
}

// The D3Q27 exchange must include corner operations (unlike D3Q19, whose
// corner offsets carry no PDFs).
func TestD3Q27ExchangePlanHasCorners(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 2, 2}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	f.BalanceMorton(1)
	comm.Run(1, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, f)
		s, err := newWithExchange(c, forest, Config{
			Stencil: lattice.D3Q27(),
			Kernel:  KernelGenericTRT,
			SetupFlags: func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
				flags.Fill(field.Fluid)
			},
		}, ExchangePerPair)
		if err != nil {
			t.Error(err)
			return
		}
		// All 26 offsets carry PDFs for D3Q27: 8 blocks x 26 ops.
		if n := len(pairOps(s)); n != 8*26 {
			t.Errorf("D3Q27 plan has %d ops, want %d", n, 8*26)
		}
	})
}

// A two-dimensional channel through the distributed driver: D2Q9 blocks
// one cell thick, periodic in x, walls in y.
func TestD2Q9DistributedUniformFlow(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 0.1}),
		[3]int{2, 1, 1}, [3]int{4, 8, 1}, [3]bool{true, true, false})
	f.BalanceMorton(2)
	comm.Run(2, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, forestFor(c.Rank(), f))
		s, err := New(c, forest, Config{
			Stencil:         lattice.D2Q9(),
			Kernel:          KernelGenericSRT,
			InitialVelocity: [3]float64{0.04, 0.01, 0},
			SetupFlags: func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
				flags.Fill(field.Fluid)
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, 30)
		for _, bd := range s.Blocks {
			for y := 0; y < 8; y++ {
				for x := 0; x < 4; x++ {
					rho, ux, uy, uz := bd.Src.Moments(x, y, 0)
					if math.Abs(rho-1) > 1e-12 || math.Abs(ux-0.04) > 1e-12 ||
						math.Abs(uy-0.01) > 1e-12 || math.Abs(uz) > 1e-14 {
						t.Errorf("uniform 2-D flow drifted at (%d,%d): rho=%v u=(%v,%v,%v)",
							x, y, rho, ux, uy, uz)
						return
					}
				}
			}
		}
	})
}

func TestStencilKernelValidation(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{1, 1, 1}, [3]int{4, 4, 4}, [3]bool{})
	f.BalanceMorton(1)
	comm.Run(1, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, f)
		if _, err := New(c, forest, Config{
			Stencil: lattice.D3Q27(),
			Kernel:  KernelSplitTRT,
		}); err == nil {
			t.Error("D3Q27 with a specialized D3Q19 kernel accepted")
		}
		// Default kernel for non-D3Q19 stencils is the generic TRT kernel.
		s, err := New(c, forest, Config{Stencil: lattice.D3Q27()})
		if err != nil {
			t.Errorf("default kernel selection failed: %v", err)
			return
		}
		if s.Blocks[0].Kernel.Name() != "TRT Generic" {
			t.Errorf("default kernel = %q", s.Blocks[0].Kernel.Name())
		}
	})
}
