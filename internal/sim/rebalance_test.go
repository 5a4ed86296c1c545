package sim

import (
	"errors"
	"math"
	"reflect"
	"slices"
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
// untouched: run 40 steps with the step's balance before step 21 and
// compare against 40 steps without one.
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
			cfg := Config{
				Tau:        0.8,
				Boundary:   boundary.Config{WallVelocity: [3]float64{0.05, 0, 0}},
				SetupFlags: cavityFlags,
			}
			if migrate {
				cfg.RebalanceEvery = 20
			}
			s, err := New(c, forest, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			mustRun(t, s, 40)
			// After rebalancing, the blocks must be spread out.
			if _, maxLoad, total := s.RankLoad(); migrate && maxLoad == total {
				t.Error("rebalancing left all blocks on one rank")
			}
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
// block accumulated real kernel time in the first five steps): two blocks
// of any measured weights end on one rank each.
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
			Tau:            0.8,
			Boundary:       boundary.Config{WallVelocity: [3]float64{0.05, 0, 0}},
			SetupFlags:     cavityFlags,
			RebalanceEvery: 5,
		})
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, 6) // the balance runs before the sixth step
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
		mustRun(t, s, 3)
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

// TestRebalanceRejectsAssignmentOnEveryRank: an assignment only rank 1
// finds wanting (its map misses its own block) is rejected before
// anything moves. Both ranks return an error within a bounded wait,
// neither world changes, and both step on to the hash of a run that never
// tried.
func TestRebalanceRejectsAssignmentOnEveryRank(t *testing.T) {
	const steps = 6
	// Three blocks in a row: rank 0 holds (0,0,0) and (1,0,0), rank 1
	// holds (2,0,0); the assignment moves (1,0,0) to rank 1.
	f := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{3, 1, 1}),
		[3]int{3, 1, 1}, [3]int{4, 4, 4}, [3]bool{})
	for _, b := range f.Blocks() {
		b.Rank = b.Coord[0] / 2
	}
	run := func(try bool) uint64 {
		var hash uint64
		done := make(chan struct{})
		go func() {
			defer close(done)
			comm.Run(2, func(c *comm.Comm) {
				forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
				if err != nil {
					t.Error(err)
					return
				}
				s, err := New(c, forest, cavityConfig())
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Run(steps / 2); err != nil {
					t.Error(err)
					return
				}
				if try {
					var own [][3]int
					for _, bd := range s.Blocks {
						own = append(own, bd.Block.Coord)
					}
					assignment := map[[3]int]int{{0, 0, 0}: 0, {1, 0, 0}: 1, {2, 0, 0}: 1}
					if c.Rank() == 1 {
						delete(assignment, [3]int{2, 0, 0})
					}
					if err := s.Rebalance(ByCoord(s, assignment)); err == nil {
						t.Errorf("rank %d accepted an assignment rank 1 rejects", c.Rank())
					}
					for _, coord := range own {
						if s.BlockByCoord(coord) == nil || len(s.Blocks) != len(own) {
							t.Errorf("rank %d lost block %v to a rejected rebalance", c.Rank(), coord)
						}
					}
				}
				if _, err := s.Run(steps / 2); err != nil {
					t.Error(err)
					return
				}
				h, err := s.FieldHash()
				if err != nil {
					t.Error(err)
				}
				if c.Rank() == 0 {
					hash = h
				}
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("a rank is still inside the rejected rebalance after 30 s")
		}
		return hash
	}
	want := run(false)
	if got := run(true); got != want {
		t.Errorf("field hash %016x after a rejected rebalance, %016x without one", got, want)
	}
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
		if err := s.Rebalance(ByCoord(s, map[[3]int]int{})); err == nil {
			t.Error("incomplete assignment accepted")
		}
		if err := s.Rebalance(ByCoord(s, map[[3]int]int{{0, 0, 0}: 5, {1, 0, 0}: 0})); err == nil {
			t.Error("out-of-range rank accepted")
		}
	})
}

// TestRebalanceReturnsRankFailure: a peer that goes silent during a
// rebalance — before the balance's allgather, or after agreeing to the
// assignment while blocks are in flight — reaches every survivor as a
// returned *comm.RankFailedError, never as a panic, and leaves each
// survivor's world as it was: the same blocks, with the same neighbor ranks.
func TestRebalanceReturnsRankFailure(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{3, 2, 1}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	f.BalanceMorton(3)
	assignment := map[[3]int]int{}
	for _, b := range f.Blocks() {
		assignment[b.Coord] = (b.Rank + 1) % 3
	}
	for _, inFlight := range []bool{false, true} {
		// The failure detector is what tells the survivors' wildcard
		// receives that rank 2 is gone.
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
				if inFlight { // accept the assignment with the others
					if _, err := c.AllreduceInt64Err(0, comm.Sum[int64]); err != nil {
						t.Error(err)
					}
				}
				c.SetStep(3)
				return
			}
			world := func() map[[3]int][]int {
				out := map[[3]int][]int{}
				for _, bd := range s.Blocks {
					for _, n := range bd.Block.Neighbors {
						out[bd.Block.Coord] = append(out[bd.Block.Coord], n.Rank)
					}
				}
				return out
			}
			before := world()
			if inFlight {
				err = s.Rebalance(ByCoord(s, assignment))
			} else {
				err = s.balance()
			}
			if !errors.As(err, new(*comm.RankFailedError)) {
				t.Errorf("rank %d (in flight: %v): rebalance returned %v, want a *comm.RankFailedError", c.Rank(), inFlight, err)
			}
			if after := world(); !reflect.DeepEqual(after, before) {
				t.Errorf("rank %d (in flight: %v): blocks and neighbor ranks %v after the failure, want %v", c.Rank(), inFlight, after, before)
			}
		})
	}
}

// TestAssignFallsBackToStaticWeights: the cut reads one unit. Measured
// times count only on a world that rebalances and only when every leaf has
// one; otherwise every leaf weighs its fluid cells at its level, never a
// mix of nanoseconds and cell counts.
func TestAssignFallsBackToStaticWeights(t *testing.T) {
	f := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{1, 1, 1}, [3]int{4, 4, 4}, [3]bool{})
	f.BalanceMorton(1)
	comm.Run(1, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, f)
		s, err := New(c, forest, Config{SetupFlags: allFluid})
		if err != nil {
			t.Fatal(err)
		}
		if w := s.Blocks[0].Weight(); w != (Weight{Static: 64}) {
			t.Errorf("weight before a step = %+v, want 64 fluid cells and no measurement", w)
		}
		mustRun(t, s, 2)
		if w := s.Blocks[0].Weight(); w.Static != 64 || w.Measured <= 0 {
			t.Errorf("weight after two steps = %+v, want 64 fluid cells and a measured time", w)
		}
	})
	comm.Run(2, func(c *comm.Comm) {
		s := &Simulation{Comm: c}
		for _, tc := range []struct {
			name     string
			every    int
			measured []int64
			want     []int
		}{
			{"not rebalancing", 0, []int64{100, 1, 1, 1}, []int{0, 0, 1, 1}},
			{"every leaf measured", 3, []int64{100, 1, 1, 1}, []int{0, 1, 1, 1}},
			{"one leaf unmeasured", 3, []int64{100, 1, 0, 1}, []int{0, 0, 1, 1}},
		} {
			s.Config.RebalanceEvery = tc.every
			weight := func(i int) Weight { return Weight{Static: 512, Measured: tc.measured[i]} }
			if got := s.Assign(len(tc.measured), weight); !slices.Equal(got, tc.want) {
				t.Errorf("%s: owners %v, want %v", tc.name, got, tc.want)
			}
		}
	})
}

// TestBalanceRestartsMeasuredTime: the measured weight is the time since
// the block set last changed, so a block that stays and a block that
// moves both start the next interval at zero — a kept block carrying the
// time of every interval before would weigh many times a gained one. A
// balance that moves nothing leaves every block's time running.
func TestBalanceRestartsMeasuredTime(t *testing.T) {
	// Three blocks in a row: rank 0 holds (0,0,0) and (1,0,0), rank 1
	// holds (2,0,0); (1,0,0) moves to rank 1.
	f := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{3, 1, 1}),
		[3]int{3, 1, 1}, [3]int{4, 4, 4}, [3]bool{})
	for _, b := range f.Blocks() {
		b.Rank = b.Coord[0] / 2
	}
	comm.Run(2, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, forestFor(c.Rank(), f))
		s, err := New(c, forest, Config{SetupFlags: allFluid})
		if err != nil {
			t.Error(err)
			return
		}
		for _, bd := range s.Blocks {
			bd.ComputeTime = 7 * time.Second
		}
		kept := map[*BlockData]bool{}
		for _, bd := range s.Blocks {
			kept[bd] = true
		}
		if err := s.Rebalance(ByCoord(s, map[[3]int]int{{0, 0, 0}: 0, {1, 0, 0}: 1, {2, 0, 0}: 1})); err != nil {
			t.Error(err)
			return
		}
		for _, bd := range s.Blocks {
			if bd.ComputeTime != 0 {
				t.Errorf("rank %d: block %v (kept: %v) starts the interval at %v, want 0", c.Rank(), bd.Block.Coord, kept[bd], bd.ComputeTime)
			}
		}
		if c.Rank() == 1 && (len(s.Blocks) != 2 || !kept[s.Blocks[1]] || kept[s.Blocks[0]]) {
			t.Errorf("rank 1 holds %d blocks, want its own (2,0,0) kept and (1,0,0) gained", len(s.Blocks))
		}
	})
	// A cut that keeps every owner (three equal blocks on two ranks cut as
	// [0,1,1]) moves nothing and restarts nothing.
	for _, b := range f.Blocks() {
		b.Rank = (b.Coord[0] + 1) / 2
	}
	comm.Run(2, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, forestFor(c.Rank(), f))
		s, err := New(c, forest, Config{SetupFlags: allFluid, RebalanceEvery: 1})
		if err != nil {
			t.Error(err)
			return
		}
		blocks := slices.Clone(s.Blocks)
		for _, bd := range s.Blocks {
			bd.ComputeTime = 7 * time.Second
		}
		if err := s.balance(); err != nil {
			t.Error(err)
			return
		}
		if !slices.Equal(s.Blocks, blocks) || s.Blocks[0].ComputeTime != 7*time.Second {
			t.Errorf("rank %d: a balance that keeps every owner changed the blocks or restarted their time", c.Rank())
		}
	})
}
