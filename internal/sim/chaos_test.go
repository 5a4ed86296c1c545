package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/output"
	"walberla/internal/testutil"
)

// Deterministic multi-layer chaos harness (make chaos-smoke). One seeded
// plan composes faults across every layer the runtime can inject, on both
// transports:
//
//   - wire: in-order stalls and, over sockets, probabilistic frame drops
//     and corruptions plus a directed sever — all transparently absorbed
//     (frame faults by the transport's retention/resend machinery),
//     costing latency but never data;
//   - rank layer: two injected crashes and one silent hang — three
//     permanent failures, each healed by recruiting a parked spare;
//   - disk layer: a bit flipped in a committed checkpoint set while the
//     run is live — harmless, because every heal must be served from the
//     in-memory buddy replica.
//
// After every recovery the run must hold its invariants: the world back
// at full size, zero disk reads, and at the end a FieldHash (and the full
// bit pattern) identical to the fault-free reference, with no leaked
// goroutines and bounded repair time.

// chaosMTTRBound is the per-restore repair-time ceiling asserted by the
// soak — generous, since CI runs under the race detector.
const chaosMTTRBound = 15 * time.Second

// referenceFieldHash runs the scenario fault-free and returns its
// collective state fingerprint.
func referenceFieldHash(t *testing.T, ranks, steps, workers int) uint64 {
	t.Helper()
	var ref atomic.Uint64
	comm.Run(ranks, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), shrinkForest(ranks)))
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
		mustRun(t, s, steps)
		h, err := s.FieldHash()
		if err != nil {
			t.Error(err)
			return
		}
		ref.Store(h)
	})
	if t.Failed() {
		t.Fatal("reference run failed")
	}
	return ref.Load()
}

// flipCheckpointBit waits for the first committed checkpoint set and
// flips one payload byte of its rank-0 file, then keeps quiet. Returns
// via the done channel whether a flip happened.
func flipCheckpointBit(dir string, stop <-chan struct{}, done chan<- bool) {
	for {
		select {
		case <-stop:
			done <- false
			return
		case <-time.After(2 * time.Millisecond):
		}
		sets := output.ListValidSets(dir)
		if len(sets) == 0 {
			continue
		}
		name := filepath.Join(dir, output.SetDirName(int(sets[0])), output.RankFileName(0))
		raw, err := os.ReadFile(name)
		if err != nil || len(raw) < 128 {
			continue
		}
		raw[len(raw)/2] ^= 0x10
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			continue
		}
		done <- true
		return
	}
}

// TestChaosSoak is the acceptance soak: three permanent failures (two
// crashes and a silent hang) interleaved with continuous stalls and a
// disk-checkpoint bit flip, against a three-deep spare pool, on both
// transports from one seeded plan; over sockets the plan adds frame drops,
// corruption and a sever. The run must finish at full world size with
// zero invariant violations.
func TestChaosSoak(t *testing.T) {
	const active, spares, steps, workers = 4, 3, 24, 2
	wantBits := shrinkReference(t, active, steps, workers)
	wantHash := referenceFieldHash(t, active, steps, workers)
	for _, tc := range []struct {
		name string
		net  *comm.NetOptions
	}{{"inproc", nil}, {"unix", socketOpts()}} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckLeaks(t)
			plan := &comm.FaultPlan{
				Seed:     101,
				Delay:    0.05,
				MaxDelay: 2 * time.Millisecond,
				Crashes: []comm.CrashSpec{
					{Rank: 1, Step: 6},
					{Rank: 2, Step: 12},
				},
				Hangs: []comm.CrashSpec{{Rank: 0, Step: 18}},
			}
			if tc.net != nil {
				plan.Drop, plan.Corrupt = 0.02, 0.01
				plan.Severs = []comm.SeverSpec{{From: 3, To: 0, AtFrame: 30}}
			}
			opts := comm.Options{Net: tc.net, Faults: plan, FailTimeout: time.Second}
			chaosSoak(t, opts, active, spares, steps, workers, wantBits, wantHash)
		})
	}
}

// chaosSoak runs the heal-mode world of TestChaosSoak under opts and
// checks its invariants against the fault-free reference.
func chaosSoak(t *testing.T, opts comm.Options, active, spares, steps, workers int, wantBits map[[3]int][]uint64, wantHash uint64) {
	dir := t.TempDir()
	rc := ResilienceConfig{
		Mode:            RecoverHeal,
		CheckpointEvery: 2,
		Dir:             dir,
		MaxFailures:     8,
		BackoffBase:     time.Millisecond,
		BackoffMax:      20 * time.Millisecond,
	}

	stopFlip := make(chan struct{})
	flipDone := make(chan bool, 1)
	go flipCheckpointBit(dir, stopFlip, flipDone)

	var mu sync.Mutex
	gotBits := make(map[[3]int][]uint64)
	var recovered []RecoveryStats
	var hashes []uint64
	var joined, retired atomic.Int64
	comm.RunWithOptions(active+spares, opts, func(c *comm.Comm) {
		cfg := cavityConfig()
		cfg.Workers = workers
		var s *Simulation
		var m Metrics
		var err error
		if c.WorldRank() >= active {
			var join bool
			s, m, join, err = RunSpareCtx(context.Background(), c, active, Spare(healDomainHeader(), cfg), steps, rc)
			if !join {
				if err != nil {
					t.Errorf("released spare %d: %v", c.WorldRank(), err)
				}
				return
			}
			joined.Add(1)
		} else {
			ac := c.GrowWorld(active)
			forest, derr := blockforest.Distribute(ac, forestFor(ac.Rank(), shrinkForest(active)))
			if derr != nil {
				t.Error(derr)
				return
			}
			s, err = New(ac, forest, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			m, err = s.RunResilient(steps, rc)
		}
		if errors.Is(err, ErrRetired) {
			retired.Add(1)
			return
		}
		if err != nil {
			t.Errorf("world rank %d: %v", c.WorldRank(), err)
			return
		}
		// Invariant: the world ended at full size.
		if m.Ranks != active {
			t.Errorf("world rank %d finished on %d ranks, want %d", c.WorldRank(), m.Ranks, active)
		}
		h, herr := s.FieldHash()
		if herr != nil {
			t.Errorf("world rank %d: FieldHash: %v", c.WorldRank(), herr)
			return
		}
		collectBits(s, &mu, gotBits)
		mu.Lock()
		recovered = append(recovered, m.Recovery)
		hashes = append(hashes, h)
		mu.Unlock()
	})
	close(stopFlip)
	flipped := <-flipDone

	if t.Failed() {
		t.Fatal("chaos soak failed")
	}

	// Invariant: the checkpoint corruption actually landed mid-run.
	if !flipped {
		t.Error("the disk bit-flip never fired — the schedule did not exercise the disk layer")
	}
	// Invariant: every permanent failure was absorbed by recruiting a
	// spare; nobody fell back to shrinking.
	if joined.Load() != retired.Load() {
		t.Errorf("%d spares joined for %d retired ranks", joined.Load(), retired.Load())
	}
	if retired.Load() < 3 {
		t.Errorf("%d permanent failures absorbed, want at least 3", retired.Load())
	}
	// Invariant: bit-identical state, by collective fingerprint and by
	// exhaustive comparison.
	for _, h := range hashes {
		if h != wantHash {
			t.Errorf("FieldHash %016x, want fault-free reference %016x", h, wantHash)
		}
	}
	assertBitsEqual(t, gotBits, wantBits)
	heals := 0
	for _, r := range recovered {
		heals += r.Heals
		// Invariant: every heal was served from the in-memory replica —
		// the (corrupted) disk sets were never even opened.
		if r.DiskReadsDuringRecovery != 0 {
			t.Errorf("recovery read disk %d times, want 0: %+v", r.DiskReadsDuringRecovery, r)
		}
		if r.Shrinks != 0 {
			t.Errorf("chaos run degraded to a shrink: %+v", r)
		}
		// Invariant: bounded repair time.
		if r.Restores > 0 {
			if mttr := r.TimeLost / time.Duration(r.Restores); mttr > chaosMTTRBound {
				t.Errorf("MTTR %v exceeds %v: %+v", mttr, chaosMTTRBound, r)
			}
		}
	}
	if heals == 0 {
		t.Error("no heal events recorded")
	}
}
