package sim

import (
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/telemetry"
)

// allocForest is the two-rank, multi-block scenario of the allocation
// tests: remote channels in both directions plus local copies.
func allocForest() *blockforest.SetupForest {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{4, 2, 1}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	f.BalanceMorton(2)
	return f
}

// TestStepZeroAlloc is the allocation-regression gate of the aggregated
// exchange: after warm-up, a full time step — pack, one send and receive
// per neighbor rank, unpack, boundary, kernel sweep, swap — performs zero
// heap allocations. Workers is 1 because the fork-join pool's per-region
// goroutine spawns are the one deliberate exception, and AllocsPerRun
// serializes execution anyway. Each rank's 2x2x1 blocks form an arena
// swept as one box, so the gate holds for arena worlds too.
func TestStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const runs = 20
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), allocForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, Config{Workers: 1, SetupFlags: allFluid})
		if err != nil {
			t.Error(err)
			return
		}
		if len(s.arenas) != 1 || len(s.frontier[0]) != 1 || s.frontier[0][0].kernel == nil {
			t.Errorf("rank %d: no arena swept as one box: %d sweeps", c.Rank(), len(s.frontier[0]))
		}
		step := func() {
			if err := s.Step(); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if c.Rank() != 0 {
			// Keep feeding rank 0's receives: AllocsPerRun executes its
			// function runs+1 times (one warm-up call plus the measured
			// runs). Rank 0's global malloc counter still observes this
			// rank's steps, so a regression on any rank fails the test.
			for i := 0; i < runs+1; i++ {
				step()
			}
			return
		}
		if avg := testing.AllocsPerRun(runs, step); avg != 0 {
			t.Errorf("Step allocates %.1f objects per step in steady state, want 0", avg)
		}
	})
}

// TestStepZeroAllocTraced is the telemetry-overhead gate: with a tracer
// and a metrics registry attached, the steady-state step — now also
// recording phase spans, pack/unpack/sweep spans, comm send/recv spans
// and counter updates — still performs zero heap allocations. Spans land
// in preallocated rings and counters are preregistered atomics, so
// tracing must never wake the collector mid-run.
func TestStepZeroAllocTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const runs = 20
	trace := telemetry.NewTrace()
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), allocForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, Config{
			Workers:    1,
			SetupFlags: allFluid,
			Tracer:     trace.NewTracer(c.Rank(), 1, 0),
			Metrics:    telemetry.NewRegistry(),
		})
		if err != nil {
			t.Error(err)
			return
		}
		step := func() {
			if err := s.Step(); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if c.Rank() != 0 {
			for i := 0; i < runs+1; i++ {
				step()
			}
			return
		}
		if avg := testing.AllocsPerRun(runs, step); avg != 0 {
			t.Errorf("traced Step allocates %.1f objects per step in steady state, want 0", avg)
		}
		if s.Tracer().Driver().Len() == 0 {
			t.Error("tracing was attached but no spans were recorded")
		}
		// A uniform world has no transfers between levels: its packs are
		// all plain slabs.
		phases := map[telemetry.Phase]int{}
		for _, l := range s.Tracer().Lanes() {
			l.Each(func(sp telemetry.Span) { phases[sp.Phase]++ })
		}
		if phases[telemetry.PhasePack] == 0 || phases[telemetry.PhaseResample] != 0 {
			t.Errorf("uniform step recorded %d pack and %d resample spans, want some and none",
				phases[telemetry.PhasePack], phases[telemetry.PhaseResample])
		}
	})
}

// benchStep measures steady-state step cost and allocations (run with
// -benchmem) for one exchange wire format.
func benchStep(b *testing.B, mode ExchangeMode) {
	b.ReportAllocs()
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), allocForest()))
		if err != nil {
			b.Error(err)
			return
		}
		s, err := newWithExchange(c, forest, Config{Workers: 1, SetupFlags: allFluid}, mode)
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < b.N; i++ {
			if err := s.Step(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkStepAggregated(b *testing.B) { benchStep(b, ExchangeAggregated) }
func BenchmarkStepPerPair(b *testing.B)    { benchStep(b, ExchangePerPair) }
