package sim

import (
	"math"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
)

// metricsSim builds a small cavity simulation on the given decomposition
// for metrics tests.
func metricsSim(t *testing.T, c *comm.Comm, ranks int, grid, cells [3]int) *Simulation {
	t.Helper()
	domain := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	f := blockforest.NewSetupForest(domain, grid, cells, [3]bool{})
	f.BalanceMorton(ranks)
	forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, forest, Config{Tau: 0.8, SetupFlags: cavityFlags})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// gatherMetrics must reduce cell counts with a global sum and wall time
// with a global max, and derive MLUPS from the reduced values — every
// rank reports the identical global picture.
func TestGatherMetricsGlobalReduction(t *testing.T) {
	const ranks, steps = 4, 3
	grid, cells := [3]int{2, 2, 1}, [3]int{4, 4, 4}
	wantCells := int64(grid[0] * cells[0] * grid[1] * cells[1] * grid[2] * cells[2])

	var mu sync.Mutex
	var got []Metrics
	runRanks(t, ranks, func(c *comm.Comm) {
		s := metricsSim(t, c, ranks, grid, cells)
		m := mustRun(t, s, steps)
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})

	if len(got) != ranks {
		t.Fatalf("collected %d metrics, want %d", len(got), ranks)
	}
	for _, m := range got {
		if m != got[0] {
			t.Fatalf("ranks disagree on global metrics:\n%+v\n%+v", m, got[0])
		}
	}
	m := got[0]
	if m.Steps != steps || m.Ranks != ranks {
		t.Fatalf("steps=%d ranks=%d, want %d/%d", m.Steps, m.Ranks, steps, ranks)
	}
	if m.TotalCells != wantCells {
		t.Fatalf("TotalCells = %d, want %d", m.TotalCells, wantCells)
	}
	if m.TotalFluidCells <= 0 || m.TotalFluidCells > m.TotalCells {
		t.Fatalf("TotalFluidCells = %d out of range (0, %d]", m.TotalFluidCells, m.TotalCells)
	}
	if m.WallTime <= 0 {
		t.Fatalf("WallTime = %v, want > 0", m.WallTime)
	}
	wantMLUPS := float64(m.TotalCells) * steps / m.WallTime.Seconds() / 1e6
	if math.Abs(m.MLUPS-wantMLUPS) > 1e-9*wantMLUPS {
		t.Fatalf("MLUPS = %v, want %v (from reduced cells and wall time)", m.MLUPS, wantMLUPS)
	}
	if m.MFLUPS <= 0 || m.MFLUPS > m.MLUPS {
		t.Fatalf("MFLUPS = %v out of range (0, %v]", m.MFLUPS, m.MLUPS)
	}
	if per := m.MLUPSPerCore(); math.Abs(per-m.MLUPS/ranks) > 1e-12 {
		t.Fatalf("MLUPSPerCore = %v, want %v", per, m.MLUPS/ranks)
	}
	if f := m.FluidFraction(); f <= 0 || f > 1 {
		t.Fatalf("FluidFraction = %v out of (0, 1]", f)
	}
	if tps := m.TimeStepsPerSecond(); math.Abs(tps-steps/m.WallTime.Seconds()) > 1e-9 {
		t.Fatalf("TimeStepsPerSecond = %v", tps)
	}
	// A plain Run performs no fault-tolerance work.
	if m.Recovery != (RecoveryStats{}) {
		t.Fatalf("plain Run produced recovery stats: %+v", m.Recovery)
	}
}

// CommFraction is sum(post+wait)/sum(wall) over ranks: with the phase
// timers pinned to known values the reduction is exact.
func TestCommFraction(t *testing.T) {
	const ranks = 2
	var mu sync.Mutex
	var got []Metrics
	runRanks(t, ranks, func(c *comm.Comm) {
		s := metricsSim(t, c, ranks, [3]int{2, 1, 1}, [3]int{4, 4, 4})
		mustRun(t, s, 1)
		// Pin the per-rank inputs: rank 0 spends 300ms of 1s communicating,
		// rank 1 spends 100ms of 1s — globally 400ms of 2s = 20%.
		if c.Rank() == 0 {
			s.levelOverlap[0] = OverlapTimes{Post: 200 * time.Millisecond, Wait: 100 * time.Millisecond}
		} else {
			s.levelOverlap[0] = OverlapTimes{Post: 100 * time.Millisecond}
		}
		m, err := s.gatherMetrics(1, time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	for _, m := range got {
		if math.Abs(m.CommFraction-0.2) > 1e-12 {
			t.Fatalf("CommFraction = %v, want 0.2", m.CommFraction)
		}
	}
	// Degenerate wall time must not divide by zero.
	var z Metrics
	if z.TimeStepsPerSecond() != 0 || z.FluidFraction() != 0 {
		t.Fatal("zero metrics must stay zero")
	}
}

// A fault-free resilient run accounts its protection work in
// Metrics.Recovery: checkpoint sets on disk, buddy replications in
// memory, and no restores or replays.
func TestRecoveryAccounting(t *testing.T) {
	const ranks, steps, every = 2, 6, 2
	dir := t.TempDir()
	var mu sync.Mutex
	var got []Metrics
	runRanks(t, ranks, func(c *comm.Comm) {
		s := metricsSim(t, c, ranks, [3]int{2, 1, 1}, [3]int{4, 4, 4})
		m, err := s.RunResilient(steps, ResilienceConfig{
			CheckpointEvery: every,
			Dir:             dir,
			Mode:            RecoverShrink,
		})
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	for _, m := range got {
		r := m.Recovery
		// Disk sets at steps 2 and 4 (never step 0); buddy generations at
		// steps 0, 2 and 4.
		if r.CheckpointsWritten != 2 {
			t.Fatalf("CheckpointsWritten = %d, want 2", r.CheckpointsWritten)
		}
		if r.CheckpointBytes <= 0 {
			t.Fatalf("CheckpointBytes = %d, want > 0", r.CheckpointBytes)
		}
		if r.Replications != 3 {
			t.Fatalf("Replications = %d, want 3", r.Replications)
		}
		if r.ReplicaBytes <= 0 {
			t.Fatalf("ReplicaBytes = %d, want > 0", r.ReplicaBytes)
		}
		if r.FailuresDetected != 0 || r.Restores != 0 || r.StepsReplayed != 0 ||
			r.Shrinks != 0 || r.BlocksAdopted != 0 || r.TimeLost != 0 {
			t.Fatalf("fault-free run accounted failures: %+v", r)
		}
	}
}
