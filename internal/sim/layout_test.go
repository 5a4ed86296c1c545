package sim

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// obstacleCavityFlags is the cavity setup with a solid box inside every
// block at grid x == 0, pushing those blocks' fluid fraction below
// SparseFluidThreshold: under KernelAuto half the blocks run the interval
// sparse kernel and half the dense split kernel — the mixed-kernel plan
// the layout matrix must keep bit-identical.
func obstacleCavityFlags(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
	cavityFlags(b, forest, flags)
	if b.Coord[0] != 0 {
		return
	}
	for z := 1; z < 3; z++ {
		for y := 1; y < 3; y++ {
			for x := 1; x < 4; x++ {
				flags.Set(x, y, z, field.NoSlip)
			}
		}
	}
}

// layoutForest is the two-rank decomposition of the layout matrix tests.
func layoutForest(ranks int) *blockforest.SetupForest {
	domain := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	f := blockforest.NewSetupForest(domain, [3]int{2, 2, 1}, [3]int{6, 6, 6}, [3]bool{})
	f.BalanceMorton(ranks)
	return f
}

// layoutConfig is the solver configuration of the layout matrix tests.
func layoutConfig(layout LayoutChoice, workers int) Config {
	return Config{
		Layout:     layout,
		Workers:    workers,
		Tau:        0.8,
		Boundary:   boundary.Config{WallVelocity: [3]float64{0.05, 0, 0}},
		SetupFlags: obstacleCavityFlags,
	}
}

// runLayoutCavity runs the obstacle cavity over the aggregated exchange and
// returns its FieldHash (the layout-independent state fingerprint).
func runLayoutCavity(t *testing.T, layout LayoutChoice, workers, steps int, opts comm.Options) uint64 {
	t.Helper()
	return runLayoutCavityMode(t, layout, workers, steps, opts, ExchangeAggregated)
}

// runLayoutCavityMode is runLayoutCavity with an explicit exchange wire
// format.
func runLayoutCavityMode(t *testing.T, layout LayoutChoice, workers, steps int, opts comm.Options, mode ExchangeMode) uint64 {
	t.Helper()
	const ranks = 2
	var hash uint64
	comm.RunWithOptions(ranks, opts, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), layoutForest(ranks)))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := newWithExchange(c, forest, layoutConfig(layout, workers), mode)
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, steps)
		h, err := s.FieldHash()
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			hash = h
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return hash
}

// TestLayoutBitIdentityMatrix: the same mixed dense/sparse cavity yields
// the same field hash for every layout × worker count × transport
// combination — AoS and SoA kernels are floating-point equivalent, the
// exchange is layout-independent, and the worker pool execution order
// never changes results. The reference is the per-pair exchange, which
// copies full slabs between the obstacle blocks where the aggregated plan
// moves only the ghost slots their sparse kernels read.
func TestLayoutBitIdentityMatrix(t *testing.T) {
	const steps = 12
	want := runLayoutCavityMode(t, LayoutSoA, 1, steps, comm.Options{}, ExchangePerPair)
	for _, layout := range []LayoutChoice{LayoutAoS, LayoutSoA} {
		for _, workers := range []int{1, 2, 4, 7} {
			for _, transport := range []string{"inproc", "unix"} {
				name := fmt.Sprintf("%s/workers=%d/%s", layout, workers, transport)
				opts := comm.Options{}
				if transport == "unix" {
					opts.Net = &comm.NetOptions{Network: "unix"}
				}
				got := runLayoutCavity(t, layout, workers, steps, opts)
				if got != want {
					t.Errorf("%s: field hash %016x, want %016x", name, got, want)
				}
			}
		}
	}
}

// TestLayoutAutoKernelSelection verifies the per-block plan-build
// selection: dense blocks get the split (SoA SIMD) kernel with a nil
// sweep flag field (the dense fast path), obstacle blocks fall below the
// fluid-fraction threshold and get the interval sparse kernel, and a
// forced AoS layout pins the D3Q19 kernel family instead.
func TestLayoutAutoKernelSelection(t *testing.T) {
	check := func(layout LayoutChoice, wantDense, wantSparse string, denseFlagsNil bool) {
		t.Helper()
		comm.Run(1, func(c *comm.Comm) {
			forest, err := blockforest.Distribute(c, forestFor(c.Rank(), layoutForest(1)))
			if err != nil {
				t.Error(err)
				return
			}
			s, err := New(c, forest, layoutConfig(layout, 1))
			if err != nil {
				t.Error(err)
				return
			}
			for _, bd := range s.Blocks {
				name := bd.Kernel.Name()
				if bd.Block.Coord[0] == 0 {
					if name != wantSparse {
						t.Errorf("layout %s: obstacle block %v kernel %q, want %q", layout, bd.Block.Coord, name, wantSparse)
					}
					if bd.sweepFlags == nil {
						t.Errorf("layout %s: obstacle block %v has nil sweep flags", layout, bd.Block.Coord)
					}
				} else {
					if name != wantDense {
						t.Errorf("layout %s: dense block %v kernel %q, want %q", layout, bd.Block.Coord, name, wantDense)
					}
					if gotNil := bd.sweepFlags == nil; gotNil != denseFlagsNil {
						t.Errorf("layout %s: dense block %v sweep flags nil = %v, want %v", layout, bd.Block.Coord, gotNil, denseFlagsNil)
					}
				}
			}
		})
	}
	check(LayoutAuto, "TRT SIMD", "TRT Interval", true)
	check(LayoutSoA, "TRT SIMD", "TRT Interval", true)
	// Forced AoS: the sparse interval kernel is SoA-only, so every block
	// runs the D3Q19-specialized kernel (obstacle blocks with flags).
	check(LayoutAoS, "TRT D3Q19", "TRT D3Q19", true)
}

// TestResilientReplayLayoutBitIdentity runs the obstacle cavity under the
// fault-tolerant driver with an injected crash and rewind recovery, in
// both layouts, and demands the exact fault-free hash: checkpoint
// encode/decode and replay are layout-independent.
func TestResilientReplayLayoutBitIdentity(t *testing.T) {
	const steps = 10
	const ranks = 2
	want := runLayoutCavity(t, LayoutSoA, 1, steps, comm.Options{})
	for _, layout := range []LayoutChoice{LayoutAoS, LayoutSoA} {
		dir := t.TempDir()
		var hash uint64
		opts := comm.Options{Faults: &comm.FaultPlan{Seed: 5, Crashes: []comm.CrashSpec{{Rank: 1, Step: 5}}}}
		comm.RunWithOptions(ranks, opts, func(c *comm.Comm) {
			forest, err := blockforest.Distribute(c, forestFor(c.Rank(), layoutForest(ranks)))
			if err != nil {
				t.Error(err)
				return
			}
			s, err := New(c, forest, layoutConfig(layout, 2))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.RunResilient(steps, ResilienceConfig{
				CheckpointEvery: 2,
				Dir:             dir,
				MaxFailures:     4,
				BackoffBase:     time.Millisecond,
				BackoffMax:      10 * time.Millisecond,
			}); err != nil {
				t.Errorf("rank %d: RunResilient: %v", c.Rank(), err)
				return
			}
			h, err := s.FieldHash()
			if err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == 0 {
				hash = h
			}
		})
		if t.Failed() {
			t.FailNow()
		}
		if hash != want {
			t.Errorf("layout %s: resilient replay hash %016x, want fault-free %016x", layout, hash, want)
		}
	}
}

// TestMixedLayoutShrinkRecovery is the regression test for the
// single-layout-per-world assumption the restore paths used to make: a
// three-rank world where the victim runs AoS fields while the survivors
// run SoA. The survivor adopting the dead rank's blocks must decode the
// replica in its stored (AoS) layout and transpose it into its own
// kernels' layout — and finish bit-identical to a fault-free run.
func TestMixedLayoutShrinkRecovery(t *testing.T) {
	const steps = 10
	const victim = 1
	layoutOf := func(rank int) LayoutChoice {
		if rank == victim {
			return LayoutAoS
		}
		return LayoutSoA
	}

	// Reference: the same mixed-layout world, fault-free.
	var want uint64
	comm.Run(3, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), layoutForest(3)))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, layoutConfig(layoutOf(c.Rank()), 1))
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, steps)
		h, err := s.FieldHash()
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			want = h
		}
	})
	if t.Failed() {
		t.Fatal("mixed-layout reference run failed")
	}

	var mu sync.Mutex
	var hashes []uint64
	var stats []RecoveryStats
	opts := comm.Options{Faults: &comm.FaultPlan{Seed: 17, Crashes: []comm.CrashSpec{{Rank: victim, Step: 5}}}}
	comm.RunWithOptions(3, opts, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), layoutForest(3)))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, layoutConfig(layoutOf(c.Rank()), 1))
		if err != nil {
			t.Error(err)
			return
		}
		m, err := s.RunResilient(steps, ResilienceConfig{
			CheckpointEvery: 2,
			Mode:            RecoverShrink,
			MaxFailures:     2,
			BackoffBase:     time.Millisecond,
			BackoffMax:      10 * time.Millisecond,
		})
		if c.Rank() == victim {
			if !errors.Is(err, ErrRetired) {
				t.Errorf("victim: err = %v, want ErrRetired", err)
			}
			return
		}
		if err != nil {
			t.Errorf("rank %d: RunResilient: %v", c.Rank(), err)
			return
		}
		h, err := s.FieldHash()
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		hashes = append(hashes, h)
		stats = append(stats, m.Recovery)
		mu.Unlock()
		// The adopter's blocks must all run in its own configured layout,
		// transposed from the victim's AoS replica.
		for _, bd := range s.Blocks {
			if bd.Src.Layout != field.SoA {
				t.Errorf("rank %d: block %v restored in layout %v, want SoA", c.Rank(), bd.Block.Coord, bd.Src.Layout)
			}
		}
	})
	if t.Failed() {
		t.Fatal("mixed-layout shrink scenario failed")
	}
	adopted := 0
	for _, r := range stats {
		adopted += r.BlocksAdopted
		if r.DiskReadsDuringRecovery != 0 {
			t.Errorf("buddy recovery read disk %d times, want 0", r.DiskReadsDuringRecovery)
		}
	}
	if adopted == 0 {
		t.Fatal("no blocks were adopted; the shrink path did not run")
	}
	for _, h := range hashes {
		if h != want {
			t.Errorf("mixed-layout shrink hash %016x, want fault-free %016x", h, want)
		}
	}
}

// TestStepZeroAllocSoA extends the allocation-regression gate to the SoA
// hot path pinned explicitly: the split kernel over SoA fields — fused
// by-direction rows, tiled traversal, compiled boundary links — allocates
// nothing in steady state.
func TestStepZeroAllocSoA(t *testing.T) {
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
		s, err := New(c, forest, Config{
			Kernel:     KernelSplitTRT,
			Layout:     LayoutSoA,
			Workers:    1,
			SetupFlags: allFluid,
		})
		if err != nil {
			t.Error(err)
			return
		}
		for _, bd := range s.Blocks {
			if bd.Src.Layout != field.SoA {
				t.Errorf("block %v layout %v, want SoA", bd.Block.Coord, bd.Src.Layout)
			}
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
			t.Errorf("SoA Step allocates %.1f objects per step in steady state, want 0", avg)
		}
	})
}

// TestHashLayoutIndependence pins FieldHash's canonical visiting order
// directly: converting a field between layouts never changes the hash.
func TestHashLayoutIndependence(t *testing.T) {
	f := field.NewPDFField(lattice.D3Q19(), 5, 4, 3, 1, field.AoS)
	f.FillEquilibrium(1, 0.02, -0.01, 0.005)
	f.Set(2, 1, 0, lattice.NE, 0.123456789)
	g := f.ConvertLayout(field.SoA)
	if h1, h2 := hashInterior(f), hashInterior(g); h1 != h2 {
		t.Errorf("hashInterior differs across layouts: aos %016x soa %016x", h1, h2)
	}
}
