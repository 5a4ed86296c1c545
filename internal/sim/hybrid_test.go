package sim

import (
	"math"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
)

// The hybrid acceptance tests: intra-rank worker parallelism must not
// change a single bit of the solution. Any amount of workers executes
// the same per-block sweeps on disjoint state; only the schedule
// differs, so the results must be exactly identical to the serial run.
// These tests are the ones `make verify` runs under the race detector.

// taylorGreenBits runs a periodic Taylor-Green vortex over 2 ranks with
// the given intra-rank worker count and snapshots every block's exact
// bit pattern.
func taylorGreenBits(t *testing.T, workers, steps int) map[[3]int][]uint64 {
	t.Helper()
	return taylorGreenBitsMode(t, workers, steps, ExchangeAggregated)
}

// taylorGreenBitsMode is taylorGreenBits with an explicit exchange wire
// format, the shared scenario of the aggregation bit-identity tests.
func taylorGreenBitsMode(t *testing.T, workers, steps int, mode ExchangeMode) map[[3]int][]uint64 {
	t.Helper()
	const n = 12
	k := 2 * math.Pi / float64(n)
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 2, 1}, [3]int{n / 2, n / 2, 2}, [3]bool{true, true, true})
	f.BalanceMorton(2)

	var mu sync.Mutex
	bits := make(map[[3]int][]uint64)
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := newWithExchange(c, forest, Config{
			Tau:     0.8,
			Workers: workers,
			// A body force exercises the forcing sweep on the workers too.
			Force: [3]float64{1e-7, 0, 0},
			InitialState: func(x, y, z float64) (float64, float64, float64, float64) {
				fx, fy := x*k, y*k
				return 1.0,
					0.02 * math.Cos(fx) * math.Sin(fy),
					-0.02 * math.Sin(fx) * math.Cos(fy),
					0
			},
			SetupFlags: func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
				flags.Fill(field.Fluid)
			},
		}, mode)
		if err != nil {
			t.Error(err)
			return
		}
		if got := s.Workers(); got != max(workers, 1) {
			t.Errorf("Workers() = %d, want %d", got, max(workers, 1))
		}
		mustRun(t, s, steps)
		collectBits(s, &mu, bits)
	})
	return bits
}

// compareBits fails the test unless the two snapshots are exactly equal.
func compareBits(t *testing.T, want, got map[[3]int][]uint64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", label, len(got), len(want))
	}
	for coord, w := range want {
		g, ok := got[coord]
		if !ok {
			t.Fatalf("%s: block %v missing", label, coord)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: block %v word %d: %x != %x — not bit-identical",
					label, coord, i, g[i], w[i])
			}
		}
	}
}

// TestHybridTaylorGreenBitIdentical is the tentpole acceptance test: the
// multi-worker Taylor-Green run is bit-identical to the serial one.
func TestHybridTaylorGreenBitIdentical(t *testing.T) {
	const steps = 30
	ref := taylorGreenBits(t, 1, steps)
	if t.Failed() {
		t.Fatal("serial reference failed")
	}
	for _, workers := range []int{2, 4, 7} {
		compareBits(t, ref, taylorGreenBits(t, workers, steps), "workers="+string(rune('0'+workers)))
	}
}

// TestHybridOverlapSplitBitIdentical drives the comm/compute overlap
// path and checks bit-identity at 1 and 4 workers plus the split
// bookkeeping, on 4 blocks in a line over 2 ranks. An arena row of blocks
// is never divided between sweeps (sweeps), so the split depends on the
// direction of the line: along z each rank's outer layer has only local
// neighbors and sweeps before the wait, its inner one after it; along x,
// the direction of the rows, each rank's two blocks are one row with a
// remote member, swept as one frontier box.
func TestHybridOverlapSplitBitIdentical(t *testing.T) {
	const steps = 25
	for _, tc := range []struct {
		name  string
		grid  [3]int
		check func(t *testing.T, c *comm.Comm, s *Simulation)
	}{
		{"cut normal to z", [3]int{1, 1, 4}, func(t *testing.T, c *comm.Comm, s *Simulation) {
			if frontier, interior := s.BlockSplit(); frontier == 0 || interior == 0 {
				t.Errorf("rank %d: frontier=%d interior=%d, want both nonzero", c.Rank(), frontier, interior)
			}
			mustRun(t, s, steps)
			if o := s.Overlap(); o.Post <= 0 || o.Interior <= 0 || o.Frontier <= 0 {
				t.Errorf("rank %d: degenerate overlap breakdown %v", c.Rank(), o)
			}
		}},
		{"cut normal to x", [3]int{4, 1, 1}, func(t *testing.T, c *comm.Comm, s *Simulation) {
			if f := s.frontier[0]; len(f) != 1 || len(f[0].blocks) != 2 || f[0].kernel == nil || len(s.interior[0]) != 0 {
				t.Errorf("rank %d: %d frontier and %d interior sweeps, want one frontier box of the rank's row", c.Rank(), len(f), len(s.interior[0]))
			}
			mustRun(t, s, steps)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) map[[3]int][]uint64 {
				domain := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
				f := blockforest.NewSetupForest(domain, tc.grid, [3]int{4, 4, 4}, [3]bool{})
				f.BalanceMorton(2)
				var mu sync.Mutex
				bits := make(map[[3]int][]uint64)
				comm.Run(2, func(c *comm.Comm) {
					forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
					if err != nil {
						t.Error(err)
						return
					}
					cfg := cavityConfig()
					cfg.Workers = workers
					s, err := New(c, forest, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					tc.check(t, c, s)
					collectBits(s, &mu, bits)
				})
				return bits
			}
			ref := run(1)
			if t.Failed() {
				t.Fatal("serial reference failed")
			}
			compareBits(t, ref, run(4), "overlap workers=4")
		})
	}
}

// TestHybridResilientReplayBitIdentical: rewind-and-replay recovery with
// workers > 1 must still reproduce the fault-free serial run bit for
// bit — replayed steps take the same parallel sweep schedule.
func TestHybridResilientReplayBitIdentical(t *testing.T) {
	const steps = 8
	var mu sync.Mutex

	want := make(map[[3]int][]uint64)
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, steps)
		collectBits(s, &mu, want)
	})
	if t.Failed() {
		t.Fatal("reference run failed")
	}

	crashes := []comm.CrashSpec{{Rank: 1, Step: 3}, {Rank: 0, Step: 6}}
	dir := t.TempDir()
	got := make(map[[3]int][]uint64)
	comm.RunWithOptions(2, comm.Options{Faults: &comm.FaultPlan{Seed: 11, Crashes: crashes}}, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		cfg := cavityConfig()
		cfg.Workers = 4
		s, err := New(c, forest, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := s.RunResilient(steps, ResilienceConfig{
			CheckpointEvery: 2,
			Dir:             dir,
			MaxFailures:     2 * steps,
			BackoffBase:     time.Millisecond,
			BackoffMax:      10 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("rank %d: RunResilient: %v", c.Rank(), err)
			return
		}
		if c.Rank() == 0 && m.Recovery.Restores == 0 {
			t.Error("no rewind happened — the fault plan did not bite")
		}
		collectBits(s, &mu, got)
	})
	if t.Failed() {
		t.FailNow()
	}
	compareBits(t, want, got, "resilient workers=4")
}

// TestNewRejectsNegativeWorkers: the worker count is validated up front.
func TestNewRejectsNegativeWorkers(t *testing.T) {
	comm.Run(1, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, cavityForest())
		if err != nil {
			t.Error(err)
			return
		}
		cfg := cavityConfig()
		cfg.Workers = -1
		if _, err := New(c, forest, cfg); err == nil {
			t.Error("New accepted Workers = -1")
		}
	})
}

func TestWorkerPool(t *testing.T) {
	// Every index is executed exactly once, for any worker count, and the
	// reported worker id stays within the pool bounds.
	for _, w := range []int{0, 1, 2, 5, 16} {
		p := workerPool{workers: w}
		var hits [100]int32
		p.run(len(hits), func(worker, i int) {
			if worker < 0 || (w > 1 && worker >= w) || (w <= 1 && worker != 0) {
				t.Errorf("workers=%d: task %d ran on worker %d", w, i, worker)
			}
			hits[i]++
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", w, i, h)
			}
		}
	}
	// Zero tasks is a no-op.
	workerPool{workers: 4}.run(0, func(int, int) { t.Error("task ran") })
}

func TestWorkerPoolPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("worker panic was swallowed")
		}
	}()
	workerPool{workers: 3}.run(8, func(_, i int) {
		if i == 5 {
			panic("boom")
		}
	})
}
