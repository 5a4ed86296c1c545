package sim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/resilience"
	"walberla/internal/testutil"
)

// healDomainHeader is the forest header a spare rank needs to stand by:
// the domain geometry of the shared shrinkForest scenario, without any
// block assignment (that is streamed on recruitment).
func healDomainHeader() *blockforest.BlockForest {
	return &blockforest.BlockForest{
		Domain:        blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		GridSize:      [3]int{2, 2, 1},
		CellsPerBlock: [3]int{4, 4, 4},
	}
}

func healConfig() ResilienceConfig {
	return ResilienceConfig{
		Mode:            RecoverHeal,
		CheckpointEvery: 2,
		MaxFailures:     4,
		BackoffBase:     time.Millisecond,
		BackoffMax:      10 * time.Millisecond,
	}
}

// runHealScenario executes a faulty run on `active` computing ranks plus
// `spares` parked ones under RecoverHeal. Ranks that finish the run —
// surviving actives and recruited spares — contribute their block bits
// and recovery stats; retired victims are counted. Every finisher must
// report the full world size.
func runHealScenario(t *testing.T, opts comm.Options, active, spares, steps, workers int, rc ResilienceConfig) (map[[3]int][]uint64, []RecoveryStats, int64) {
	t.Helper()
	testutil.CheckLeaks(t)
	var mu sync.Mutex
	got := make(map[[3]int][]uint64)
	var recovered []RecoveryStats
	var joined, retired atomic.Int64
	comm.RunWithOptions(active+spares, opts, func(c *comm.Comm) {
		cfg := cavityConfig()
		cfg.Workers = workers
		if c.WorldRank() >= active {
			s, m, join, err := RunSpareCtx(context.Background(), c, active, Spare(healDomainHeader(), cfg), steps, rc)
			if !join {
				if err != nil {
					t.Errorf("released spare %d: %v", c.WorldRank(), err)
				}
				return
			}
			joined.Add(1)
			if errors.Is(err, ErrRetired) {
				retired.Add(1)
				return
			}
			if err != nil {
				t.Errorf("recruited spare %d: %v", c.WorldRank(), err)
				return
			}
			if m.Ranks != active {
				t.Errorf("recruited spare %d: metrics report %d ranks, want %d", c.WorldRank(), m.Ranks, active)
			}
			checkReplicasOnTheWire(t, c, m.Recovery)
			collectBits(s, &mu, got)
			mu.Lock()
			recovered = append(recovered, m.Recovery)
			mu.Unlock()
			return
		}
		ac := c.GrowWorld(active)
		forest, err := blockforest.Distribute(ac, forestFor(ac.Rank(), shrinkForest(active)))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(ac, forest, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := s.RunResilient(steps, rc)
		if errors.Is(err, ErrRetired) {
			retired.Add(1)
			return
		}
		if err != nil {
			t.Errorf("rank %d: RunResilient: %v", c.WorldRank(), err)
			return
		}
		if m.Ranks != active {
			t.Errorf("rank %d: metrics report %d ranks, want %d after the heal", c.WorldRank(), m.Ranks, active)
		}
		checkReplicasOnTheWire(t, c, m.Recovery)
		collectBits(s, &mu, got)
		mu.Lock()
		recovered = append(recovered, m.Recovery)
		mu.Unlock()
	})
	if t.Failed() {
		t.Fatal("heal scenario failed")
	}
	if joined.Load() == 0 {
		t.Fatal("no spare was recruited")
	}
	return got, recovered, joined.Load()
}

// assertHealedFromBuddy checks the invariants of a single clean heal:
// exactly one heal event, served from the in-memory replica with zero
// disk traffic, no shrink, and a restored full-size world.
func assertHealedFromBuddy(t *testing.T, recovered []RecoveryStats) {
	t.Helper()
	for _, r := range recovered {
		if r.Heals != 1 {
			t.Errorf("finisher saw %d heals, want 1: %+v", r.Heals, r)
		}
		if r.Shrinks != 0 {
			t.Errorf("heal run shrank %d times, want 0: %+v", r.Shrinks, r)
		}
		if r.BuddyRestores+r.DiskRestores > 0 && (r.BuddyRestores != 1 || r.DiskRestores != 0) {
			t.Errorf("recovery was not served from the buddy replica: %+v", r)
		}
		if r.DiskReadsDuringRecovery != 0 {
			t.Errorf("pure buddy heal performed %d disk reads, want 0: %+v", r.DiskReadsDuringRecovery, r)
		}
		// The recruit entered after the failure, so only ranks that saw the
		// degraded world must account time for it.
		if r.FailuresDetected > 0 && r.DegradedTime <= 0 {
			t.Errorf("no degraded time recorded across a failure: %+v", r)
		}
	}
}

// TestHealRecoveryBitIdenticalAfterCrash is the tentpole acceptance test:
// a rank crashes mid-run, the survivors heal the world by recruiting the
// parked spare, the dead rank's buddy streams the replica blocks to the
// recruit — zero disk I/O — and the run finishes at full world size,
// bit-identical to an uninterrupted run, across intra-rank worker counts.
func TestHealRecoveryBitIdenticalAfterCrash(t *testing.T) {
	const steps, victim = 8, 1
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(workerName(workers), func(t *testing.T) {
			want := shrinkReference(t, 3, steps, workers)
			opts := comm.Options{Faults: &comm.FaultPlan{Seed: 11, Crashes: []comm.CrashSpec{{Rank: victim, Step: 5}}}}
			got, recovered, joined := runHealScenario(t, opts, 3, 1, steps, workers, healConfig())
			assertBitsEqual(t, got, want)
			assertHealedFromBuddy(t, recovered)
			if joined != 1 {
				t.Errorf("%d spares joined, want 1", joined)
			}
		})
	}
}

// TestHealRecoveryBitIdenticalAfterSilentFailure exercises healing after
// a silent hang: the victim goes dark, the failure detector declares it
// dead and the survivors recruit the one spare in its place. The detector
// names only the silent rank, so one spare is enough: the run must finish
// at full world size and bit-identical.
func TestHealRecoveryBitIdenticalAfterSilentFailure(t *testing.T) {
	const steps, victim = 8, 1
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(workerName(workers), func(t *testing.T) {
			want := shrinkReference(t, 3, steps, workers)
			opts := comm.Options{
				Faults:      &comm.FaultPlan{Seed: 13, Hangs: []comm.CrashSpec{{Rank: victim, Step: 5}}},
				FailTimeout: 500 * time.Millisecond,
			}
			got, recovered, joined := runHealScenario(t, opts, 3, 1, steps, workers, healConfig())
			assertBitsEqual(t, got, want)
			if joined != 1 {
				t.Errorf("%d spares joined, want 1", joined)
			}
			for _, r := range recovered {
				if r.Heals == 0 {
					t.Errorf("finisher saw no heal: %+v", r)
				}
				if r.DiskReadsDuringRecovery != 0 {
					t.Errorf("heal after a silent failure read disk %d times, want 0: %+v", r.DiskReadsDuringRecovery, r)
				}
			}
		})
	}
}

// TestNetHealRecoveryCrash runs the full healing pipeline over real
// sockets: the spare has live connections (and heartbeats) while parked,
// joins on the crash, receives the streamed state over the wire codecs
// and finishes bit-identical at full world size.
func TestNetHealRecoveryCrash(t *testing.T) {
	const steps, victim = 8, 1
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(workerName(workers), func(t *testing.T) {
			want := shrinkReference(t, 3, steps, workers)
			opts := comm.Options{
				Net:         socketOpts(),
				Faults:      &comm.FaultPlan{Seed: 11, Crashes: []comm.CrashSpec{{Rank: victim, Step: 5}}},
				FailTimeout: 2 * time.Second,
			}
			got, recovered, joined := runHealScenario(t, opts, 3, 1, steps, workers, healConfig())
			assertBitsEqual(t, got, want)
			assertHealedFromBuddy(t, recovered)
			if joined != 1 {
				t.Errorf("%d spares joined, want 1", joined)
			}
		})
	}
}

// TestNetHealRecoverySilentHang is the socket-transport variant of the
// silent-failure heal: the hung rank is accused by the connection-level
// failure detector, and the one spare replaces it over the wire.
func TestNetHealRecoverySilentHang(t *testing.T) {
	const steps, victim = 8, 1
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(workerName(workers), func(t *testing.T) {
			want := shrinkReference(t, 3, steps, workers)
			opts := comm.Options{
				Net:         socketOpts(),
				Faults:      &comm.FaultPlan{Seed: 13, Hangs: []comm.CrashSpec{{Rank: victim, Step: 5}}},
				FailTimeout: 2 * time.Second,
			}
			got, recovered, joined := runHealScenario(t, opts, 3, 1, steps, workers, healConfig())
			assertBitsEqual(t, got, want)
			if joined != 1 {
				t.Errorf("%d spares joined, want 1", joined)
			}
			for _, r := range recovered {
				if r.Heals == 0 {
					t.Errorf("finisher saw no heal: %+v", r)
				}
				if r.DiskReadsDuringRecovery != 0 {
					t.Errorf("heal after a hang read disk %d times, want 0: %+v", r.DiskReadsDuringRecovery, r)
				}
			}
		})
	}
}

// TestHealSparePoolExhausted drives the degradation path: two permanent
// failures against a single spare. The first heal restores full size; the
// second failure finds the pool empty and falls back to a plain shrink —
// the run finishes on two ranks, still bit-identical.
func TestHealSparePoolExhausted(t *testing.T) {
	testutil.CheckLeaks(t)
	const active, spares, steps = 3, 1, 10
	want := shrinkReference(t, active, steps, 1)
	var mu sync.Mutex
	got := make(map[[3]int][]uint64)
	var recovered []RecoveryStats
	var joined atomic.Int64
	opts := comm.Options{Faults: &comm.FaultPlan{Seed: 17, Crashes: []comm.CrashSpec{
		{Rank: 1, Step: 4},
		{Rank: 0, Step: 7},
	}}}
	comm.RunWithOptions(active+spares, opts, func(c *comm.Comm) {
		rc := healConfig()
		if c.WorldRank() >= active {
			s, m, join, err := RunSpareCtx(context.Background(), c, active, Spare(healDomainHeader(), cavityConfig()), steps, rc)
			if !join {
				t.Errorf("spare %d was released, want recruited", c.WorldRank())
				return
			}
			joined.Add(1)
			if err != nil {
				t.Errorf("recruited spare %d: %v", c.WorldRank(), err)
				return
			}
			if m.Ranks != active-1 {
				t.Errorf("recruit finished on %d ranks, want %d after the fallback shrink", m.Ranks, active-1)
			}
			collectBits(s, &mu, got)
			mu.Lock()
			recovered = append(recovered, m.Recovery)
			mu.Unlock()
			return
		}
		ac := c.GrowWorld(active)
		forest, err := blockforest.Distribute(ac, forestFor(ac.Rank(), shrinkForest(active)))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(ac, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		m, err := s.RunResilient(steps, rc)
		if errors.Is(err, ErrRetired) {
			return
		}
		if err != nil {
			t.Errorf("rank %d: RunResilient: %v", c.WorldRank(), err)
			return
		}
		if m.Ranks != active-1 {
			t.Errorf("rank %d finished on %d ranks, want %d after the fallback shrink", c.WorldRank(), m.Ranks, active-1)
		}
		collectBits(s, &mu, got)
		mu.Lock()
		recovered = append(recovered, m.Recovery)
		mu.Unlock()
	})
	if t.Failed() {
		t.FailNow()
	}
	assertBitsEqual(t, got, want)
	if joined.Load() != 1 {
		t.Fatalf("%d spares joined, want 1", joined.Load())
	}
	for _, r := range recovered {
		if r.Heals != 1 || r.Shrinks != 1 {
			t.Errorf("finisher saw %d heals and %d shrinks, want 1 and 1: %+v", r.Heals, r.Shrinks, r)
		}
	}
}

// TestHealDiskFallback drives the disk rung of healing directly: with
// every in-memory generation invalidated (metadata retained), the heal
// must restore the survivor from the newest checkpoint set and stream the
// dead rank's state — read from the same set — to the recruit.
func TestHealDiskFallback(t *testing.T) {
	testutil.CheckLeaks(t)
	const active, steps = 2, 6
	const newestSet = 4 // checkpoint sets land at steps 2 and 4
	dir := t.TempDir()
	want := shrinkReference(t, active, steps, 1)
	var mu sync.Mutex
	got := make(map[[3]int][]uint64)
	retiredCh := make(chan struct{})
	comm.Run(active+1, func(c *comm.Comm) {
		rc := ResilienceConfig{Mode: RecoverHeal, CheckpointEvery: 2, Dir: dir, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond}
		rc.Validate()
		if c.WorldRank() >= active {
			s, m, join, err := RunSpareCtx(context.Background(), c, active, Spare(healDomainHeader(), cavityConfig()), steps, rc)
			if !join {
				t.Error("spare was released, want recruited")
				return
			}
			if err != nil {
				t.Errorf("recruited spare: %v", err)
				return
			}
			if m.Recovery.Heals != 1 {
				t.Errorf("recruit recorded %d heals, want 1", m.Recovery.Heals)
			}
			collectBits(s, &mu, got)
			return
		}
		ac := c.GrowWorld(active)
		forest, err := blockforest.Distribute(ac, forestFor(ac.Rank(), shrinkForest(active)))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(ac, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		// Fault-free run under shrink mode to produce the disk sets and the
		// retained replica metadata without releasing the parked spare.
		rcSeed := rc
		rcSeed.Mode = RecoverShrink
		seed, err := resilience.NewDriver(world{s}, rcSeed)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.runDriver(context.Background(), seed, steps); err != nil {
			t.Errorf("rank %d: seeding run: %v", c.WorldRank(), err)
			return
		}
		// Invalidate the in-memory generations, keeping only the metadata —
		// as if the replicas were too stale to agree on.
		seed.Ring.Own[0].Step, seed.Ring.Own[1].Step = -1, -1
		seed.Ring.Replica[0], seed.Ring.Replica[1] = nil, nil

		if c.WorldRank() == 1 {
			// The victim: declare the failure (waking the parked spare into
			// the rendezvous — Retire alone would not), then leave.
			c.Accuse(c.WorldRank(), "retiring for the disk-rung test")
			c.Retire()
			close(retiredCh)
			return
		}
		<-retiredCh
		c.MarkDead(c.WorldRankOf(1))
		c.Recover()
		// The seeding driver, switched to heal, repairs: it knows the run's
		// end step, which the heal streams to the recruit.
		d := seed
		d.Config.Mode = RecoverHeal
		restored, err := d.Repair([]int{c.WorldRankOf(1)})
		if err != nil {
			t.Errorf("Repair: %v", err)
			return
		}
		rec := d.Stats
		if restored != newestSet {
			t.Errorf("restored step %d, want %d (the newest disk set)", restored, newestSet)
		}
		if rec.DiskRestores != 1 || rec.BuddyRestores != 0 {
			t.Errorf("heal did not take the disk rung: %+v", rec)
		}
		if rec.Heals != 1 {
			t.Errorf("survivor recorded %d heals, want 1", rec.Heals)
		}
		if s.Comm.Size() != active {
			t.Errorf("post-heal communicator size %d, want %d", s.Comm.Size(), active)
		}
		// Mirror the driver tail so the recruit's shared loop completes.
		if _, err := s.runDriver(context.Background(), d, steps-restored); err != nil {
			t.Errorf("post-heal driver: %v", err)
			return
		}
		collectBits(s, &mu, got)
	})
	if t.Failed() {
		t.FailNow()
	}
	assertBitsEqual(t, got, want)
}

// TestRunSpareRejectsWrongMode: the spare API only makes sense under
// RecoverHeal and must refuse anything else up front.
func TestRunSpareRejectsWrongMode(t *testing.T) {
	comm.Run(1, func(c *comm.Comm) {
		_, _, _, err := RunSpareCtx(context.Background(), c, 1, Spare(healDomainHeader(), cavityConfig()), 1, ResilienceConfig{Mode: RecoverShrink})
		if err == nil {
			t.Error("RunSpareCtx accepted RecoverShrink, want an error")
		}
	})
}

// TestCancelDuringRecoveryBackoff is the satellite regression test for
// context-aware recovery: a failure sends every rank into a deliberately
// huge backoff, the context is cancelled mid-sleep, and the run must exit
// with ErrInterrupted promptly instead of finishing the backoff ladder.
func TestCancelDuringRecoveryBackoff(t *testing.T) {
	testutil.CheckLeaks(t)
	const steps = 1000
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(500*time.Millisecond, cancel)
	start := time.Now()
	opts := comm.Options{Faults: &comm.FaultPlan{Seed: 5, Crashes: []comm.CrashSpec{{Rank: 1, Step: 2}}}}
	comm.RunWithOptions(2, opts, func(c *comm.Comm) {
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
		_, err = s.RunResilientCtx(ctx, steps, ResilienceConfig{
			Mode:        RecoverRewind,
			MaxFailures: 4,
			BackoffBase: time.Hour,
			BackoffMax:  time.Hour,
		})
		if !errors.Is(err, ErrInterrupted) {
			t.Errorf("rank %d: err = %v, want ErrInterrupted", c.Rank(), err)
		}
	})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v — the recovery backoff ignored the context", elapsed)
	}
}
