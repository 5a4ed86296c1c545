package sim

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/comm"
	"walberla/internal/field"
)

// gatherCavityField collects the global ux field from a running simulation.
func gatherCavityField(s *Simulation, cells [3]int, mu *sync.Mutex, out map[[3]int]float64) {
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
}

// Dynamic rebalancing in the middle of a run must leave the physics
// untouched: run 20+20 steps with a migration in between and compare
// against 40 uninterrupted steps.
func TestRebalancePreservesPhysics(t *testing.T) {
	const ranks = 4
	grid := [3]int{2, 2, 2}
	cells := [3]int{4, 4, 4}
	domain := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})

	run := func(migrate bool) map[[3]int]float64 {
		f := blockforest.NewSetupForest(domain, grid, cells, [3]bool{})
		// Deliberately skewed initial assignment: everything on rank 0.
		for _, b := range f.Blocks() {
			b.Rank = 0
		}
		var mu sync.Mutex
		out := make(map[[3]int]float64)
		comm.Run(ranks, func(c *comm.Comm) {
			forest, _ := blockforest.Distribute(c, forestFor(c.Rank(), f))
			s, err := New(c, forest, Config{
				Tau:        0.8,
				Boundary:   boundary.Config{WallVelocity: [3]float64{0.05, 0, 0}},
				SetupFlags: cavityFlags,
			})
			if err != nil {
				t.Error(err)
				return
			}
			mustRun(t, s, 20)
			if migrate {
				if err := s.RebalanceByWorkload(false); err != nil {
					t.Error(err)
					return
				}
				// After rebalancing, the blocks must be spread out.
				local, maxLoad, total := s.RankLoad()
				_ = local
				if maxLoad == total {
					t.Error("rebalancing left all blocks on one rank")
				}
			}
			mustRun(t, s, 20)
			gatherCavityField(s, cells, &mu, out)
		})
		return out
	}

	ref := run(false)
	got := run(true)
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
		t.Errorf("rebalancing changed the physics by %g", maxDiff)
	}
}

// Rebalancing with measured workloads must also spread the blocks (each
// block accumulated real kernel time in the first phase).
func TestRebalanceByMeasuredTime(t *testing.T) {
	const ranks = 2
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 1, 1}, [3]int{4, 4, 4}, [3]bool{})
	for _, b := range f.Blocks() {
		b.Rank = 0
	}
	comm.Run(ranks, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, forestFor(c.Rank(), f))
		s, err := New(c, forest, Config{
			Tau:        0.8,
			Boundary:   boundary.Config{WallVelocity: [3]float64{0.05, 0, 0}},
			SetupFlags: cavityFlags,
		})
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, 5)
		if err := s.RebalanceByWorkload(true); err != nil {
			t.Error(err)
			return
		}
		if len(s.Blocks) != 1 {
			t.Errorf("rank %d holds %d blocks after rebalancing, want 1", c.Rank(), len(s.Blocks))
		}
		// The plan and neighborhood survive: one more step runs cleanly
		// and conserves mass.
		var local float64
		for _, bd := range s.Blocks {
			local += bd.Src.TotalMass()
		}
		before := c.AllreduceFloat64(local, comm.Sum[float64])
		mustRun(t, s, 5)
		local = 0
		for _, bd := range s.Blocks {
			local += bd.Src.TotalMass()
		}
		after := c.AllreduceFloat64(local, comm.Sum[float64])
		if math.Abs(after-before) > 1e-9 {
			t.Errorf("mass %v -> %v across rebalanced run", before, after)
		}
	})
}

func TestRebalanceValidation(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 1, 1}, [3]int{4, 4, 4}, [3]bool{})
	f.BalanceMorton(1)
	comm.Run(1, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, f)
		s, err := New(c, forest, Config{SetupFlags: func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
			flags.Fill(field.Fluid)
		}})
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Rebalance(map[[3]int]int{}); err == nil {
			t.Error("incomplete assignment accepted")
		}
		if err := s.Rebalance(map[[3]int]int{{0, 0, 0}: 5, {1, 0, 0}: 0}); err == nil {
			t.Error("out-of-range rank accepted")
		}
	})
}

// TestRebalanceReturnsRankFailure: a peer that hangs instead of joining
// the rebalancing collective reaches every survivor as a returned
// *comm.RankFailedError, never as a panic.
func TestRebalanceReturnsRankFailure(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{3, 2, 1}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	f.BalanceMorton(3)
	// The failure detector is what tells the survivors' wildcard receives
	// that rank 2 is gone.
	opts := comm.Options{
		Faults:      &comm.FaultPlan{Hangs: []comm.CrashSpec{{Rank: 2, Step: 3}}},
		FailTimeout: 500 * time.Millisecond,
	}
	comm.RunWithOptions(3, opts, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, Config{SetupFlags: allFluid})
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, 2)
		if c.Rank() == 2 {
			defer func() {
				if _, ok := recover().(comm.Hang); !ok {
					t.Error("rank 2 did not hang")
				}
			}()
			c.SetStep(3)
			return
		}
		err = s.RebalanceByWorkload(true)
		if !errors.As(err, new(*comm.RankFailedError)) {
			t.Errorf("rank %d: RebalanceByWorkload returned %v, want a *comm.RankFailedError", c.Rank(), err)
		}
	})
}

func TestWorkloadsFallBackToFluidCount(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{1, 1, 1}, [3]int{4, 4, 4}, [3]bool{})
	f.BalanceMorton(1)
	comm.Run(1, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, f)
		s, _ := New(c, forest, Config{SetupFlags: func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
			flags.Fill(field.Fluid)
		}})
		w := s.Workloads(true) // no timed steps yet: falls back to counts
		if w[[3]int{0, 0, 0}] != 64 {
			t.Errorf("workload = %v, want 64 fluid cells", w[[3]int{0, 0, 0}])
		}
		mustRun(t, s, 2)
		w = s.Workloads(true)
		if w[[3]int{0, 0, 0}] <= 0 || w[[3]int{0, 0, 0}] == 64 {
			t.Errorf("measured workload = %v, want positive seconds", w[[3]int{0, 0, 0}])
		}
	})
}
