package sim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/output"
	"walberla/internal/resilience"
)

// shrinkForest is the shared scenario of the shrinking-recovery tests: a
// 2×2 block cavity spread over the given rank count (three in the main
// tests, so killing the middle rank leaves two survivors and one
// adoption).
func shrinkForest(ranks int) *blockforest.SetupForest {
	domain := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	f := blockforest.NewSetupForest(domain, [3]int{2, 2, 1}, [3]int{4, 4, 4}, [3]bool{})
	f.BalanceMorton(ranks)
	return f
}

// shrinkReference runs the scenario fault-free on the original world and
// returns the exact bit pattern of every block. Stepping is deterministic
// and partition-independent, so this is the ground truth the post-shrink
// world must match bit for bit.
func shrinkReference(t *testing.T, ranks, steps, workers int) map[[3]int][]uint64 {
	t.Helper()
	var mu sync.Mutex
	want := make(map[[3]int][]uint64)
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
		collectBits(s, &mu, want)
	})
	if t.Failed() {
		t.Fatal("reference run failed")
	}
	return want
}

// checkReplicasOnTheWire holds a socket-transport rank to the one payload
// contract: the replica and heal-stream bytes it counted must have
// crossed its sockets.
func checkReplicasOnTheWire(t *testing.T, c *comm.Comm, r RecoveryStats) {
	if ns, ok := c.NetStats(); ok && ns.BytesSent < r.ReplicaBytes {
		t.Errorf("rank %d: %d replica bytes sent, but only %d bytes crossed its sockets", c.WorldRank(), r.ReplicaBytes, ns.BytesSent)
	}
}

func assertBitsEqual(t *testing.T, got, want map[[3]int][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("shrunk world produced %d blocks, want %d", len(got), len(want))
	}
	for coord, wb := range want {
		gb, ok := got[coord]
		if !ok {
			t.Fatalf("block %v missing from shrunk world", coord)
		}
		if len(gb) != len(wb) {
			t.Fatalf("block %v: %d values, want %d", coord, len(gb), len(wb))
		}
		for i := range wb {
			if gb[i] != wb[i] {
				t.Fatalf("block %v value %d: bits %016x, want %016x — shrink recovery is not bit-identical",
					coord, i, gb[i], wb[i])
			}
		}
	}
}

// runShrinkScenario executes the faulty run on `ranks` ranks under
// RecoverShrink and returns the surviving ranks' block bits and recovery
// stats. The victim must come back with ErrRetired and contributes
// nothing.
func runShrinkScenario(t *testing.T, opts comm.Options, ranks, victim, steps, workers int, rc ResilienceConfig) (map[[3]int][]uint64, []RecoveryStats) {
	t.Helper()
	var mu sync.Mutex
	got := make(map[[3]int][]uint64)
	var recovered []RecoveryStats
	comm.RunWithOptions(ranks, opts, func(c *comm.Comm) {
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
		m, err := s.RunResilient(steps, rc)
		if c.Rank() == victim {
			if !errors.Is(err, ErrRetired) {
				t.Errorf("victim rank %d: err = %v, want ErrRetired", victim, err)
			}
			return
		}
		if err != nil {
			t.Errorf("rank %d: RunResilient: %v", c.Rank(), err)
			return
		}
		if m.Ranks != ranks-1 {
			t.Errorf("rank %d: metrics report %d ranks, want %d after the shrink", c.Rank(), m.Ranks, ranks-1)
		}
		checkReplicasOnTheWire(t, c, m.Recovery)
		collectBits(s, &mu, got)
		mu.Lock()
		recovered = append(recovered, m.Recovery)
		mu.Unlock()
	})
	if t.Failed() {
		t.Fatal("shrink scenario failed")
	}
	return got, recovered
}

// TestShrinkRecoveryBitIdenticalAfterCrash is the tentpole acceptance
// test: a rank crashes mid-run, the survivors shrink the world, the buddy
// re-owns the dead rank's blocks from the in-memory replica — with zero
// disk I/O — and the run finishes bit-identical to an uninterrupted run,
// across intra-rank worker counts.
func TestShrinkRecoveryBitIdenticalAfterCrash(t *testing.T) {
	const steps, victim = 8, 1
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(workerName(workers), func(t *testing.T) {
			want := shrinkReference(t, 3, steps, workers)
			opts := comm.Options{Faults: &comm.FaultPlan{Seed: 11, Crashes: []comm.CrashSpec{{Rank: victim, Step: 5}}}}
			got, recovered := runShrinkScenario(t, opts, 3, victim, steps, workers, ResilienceConfig{
				Mode:            RecoverShrink,
				CheckpointEvery: 2,
				MaxFailures:     4,
				BackoffBase:     time.Millisecond,
				BackoffMax:      10 * time.Millisecond,
			})
			assertBitsEqual(t, got, want)

			adopted := 0
			for _, r := range recovered {
				if r.Shrinks != 1 {
					t.Errorf("survivor saw %d shrinks, want 1: %+v", r.Shrinks, r)
				}
				if r.BuddyRestores != 1 || r.DiskRestores != 0 {
					t.Errorf("recovery was not served from the buddy replica: %+v", r)
				}
				if r.DiskReadsDuringRecovery != 0 {
					t.Errorf("pure buddy recovery performed %d disk reads, want 0: %+v", r.DiskReadsDuringRecovery, r)
				}
				if r.Replications == 0 || r.ReplicaBytes == 0 {
					t.Errorf("no replication activity recorded: %+v", r)
				}
				adopted += r.BlocksAdopted
			}
			if adopted == 0 {
				t.Errorf("no survivor adopted the dead rank's blocks")
			}
		})
	}
}

// TestShrinkRecoveryBitIdenticalAfterSilentFailure exercises the failure
// detector: the victim goes silent (injected hang, no crash notification),
// the in-process watchdog declares it dead once its beat has been missing
// for FailTimeout, and shrinking recovery proceeds exactly as for a crash
// — in memory, bit-identical.
func TestShrinkRecoveryBitIdenticalAfterSilentFailure(t *testing.T) {
	const steps, victim = 8, 1
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(workerName(workers), func(t *testing.T) {
			want := shrinkReference(t, 3, steps, workers)
			opts := comm.Options{
				Faults:      &comm.FaultPlan{Seed: 13, Hangs: []comm.CrashSpec{{Rank: victim, Step: 5}}},
				FailTimeout: 500 * time.Millisecond,
			}
			got, recovered := runShrinkScenario(t, opts, 3, victim, steps, workers, ResilienceConfig{
				Mode:            RecoverShrink,
				CheckpointEvery: 2,
				MaxFailures:     4,
				BackoffBase:     time.Millisecond,
				BackoffMax:      10 * time.Millisecond,
			})
			assertBitsEqual(t, got, want)
			for _, r := range recovered {
				if r.Shrinks != 1 || r.BuddyRestores != 1 {
					t.Errorf("silent failure was not recovered by a buddy shrink: %+v", r)
				}
				if r.DiskReadsDuringRecovery != 0 {
					t.Errorf("recovery from a silent failure read disk %d times, want 0: %+v", r.DiskReadsDuringRecovery, r)
				}
			}
		})
	}
}

func workerName(w int) string {
	return "workers=" + string(rune('0'+w))
}

// TestShrinkDiskFallback drives the fallback rung directly: when no
// common in-memory generation survives (simulated by invalidating the
// generations while keeping the retained metadata), shrink recovery must
// restore the survivors and the adopted blocks from the newest disk
// checkpoint set.
func TestShrinkDiskFallback(t *testing.T) {
	const steps = 6
	dir := t.TempDir()
	want := shrinkReference(t, 2, 4, 1) // state at the newest disk set (step 4)

	var mu sync.Mutex
	got := make(map[[3]int][]uint64)
	// The "victim" here is a healthy rank told to retire, so the survivor
	// must not start recovery (which purges in-flight messages) until the
	// victim has fully left the communication — hence the host-side signal.
	retired := make(chan struct{})
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), shrinkForest(2)))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		rc := ResilienceConfig{Mode: RecoverShrink, CheckpointEvery: 2, Dir: dir}
		d, err := resilience.NewDriver(world{s}, rc)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.runDriver(context.Background(), d, steps); err != nil {
			t.Errorf("rank %d: fault-free run: %v", c.Rank(), err)
			return
		}

		// Invalidate every in-memory generation, keeping only the
		// retained block metadata — as if the replicas were too stale to
		// agree on.
		d.Ring.Own[0].Step, d.Ring.Own[1].Step = -1, -1
		d.Ring.Replica[0], d.Ring.Replica[1] = nil, nil

		if c.Rank() == 1 {
			c.Retire()
			close(retired)
			return
		}
		<-retired
		c.MarkDead(c.WorldRankOf(1))
		c.Recover()
		restored, err := d.Repair([]int{c.WorldRankOf(1)})
		if err != nil {
			t.Errorf("Repair: %v", err)
			return
		}
		rec := d.Stats
		if restored != 4 {
			t.Errorf("restored step %d, want 4 (the newest disk set)", restored)
		}
		if rec.DiskRestores != 1 || rec.BuddyRestores != 0 {
			t.Errorf("recovery did not take the disk rung: %+v", rec)
		}
		if rec.BlocksAdopted == 0 {
			t.Errorf("sole survivor adopted no blocks: %+v", rec)
		}
		if s.Comm.Size() != 1 {
			t.Errorf("post-shrink communicator size %d, want 1", s.Comm.Size())
		}
		collectBits(s, &mu, got)
	})
	if t.Failed() {
		t.FailNow()
	}
	assertBitsEqual(t, got, want)
}

// TestReplicateRoundTrip: one replication generation decodes back into
// blocks bit-identical to the producer's, via the same adoption path
// recovery uses.
func TestReplicateRoundTrip(t *testing.T) {
	var mu sync.Mutex
	want := make(map[[3]int][]uint64)
	decoded := make(map[[3]int][]uint64)
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
		mustRun(t, s, 3)
		collectBits(s, &mu, want)
		ring := resilience.NewRing()
		var rec RecoveryStats
		if err := ring.Replicate(world{s}, 3, &rec); err != nil {
			t.Errorf("rank %d: replicate: %v", c.Rank(), err)
			return
		}
		// What went on the wire is the envelope: the rank file behind a
		// 28-byte header, nothing else.
		payload := output.LeafFileSize(records(s.Blocks))
		if rec.ReplicaBytes != payload+28 {
			t.Errorf("rank %d: ReplicaBytes = %d, want payload %d + header 28", c.Rank(), rec.ReplicaBytes, payload)
		}
		ward := (c.Rank() + c.Size() - 1) % c.Size()
		gen := ring.ReplicaAt(c.WorldRankOf(ward), 3)
		if gen == nil {
			t.Errorf("rank %d: no committed replica for ward %d", c.Rank(), ward)
			return
		}
		recs := gen.State
		wardForest := blockforest.Build(cavityForest(), ward, c.Size())
		if len(recs) == 0 || len(recs) != len(wardForest.Blocks) {
			t.Errorf("rank %d: replica decoded to %d records, ward owns %d blocks", c.Rank(), len(recs), len(wardForest.Blocks))
			return
		}
		var blocks []*BlockData
		x := cavityForest().Index()
		for i, rec := range recs {
			b := wardForest.Blocks[i] // both in Morton order
			bd, err := s.NewBlock(x, blockforest.Leaf{ID: b.ID, Coord: b.Coord, Rank: c.Rank()}, nil, nil)
			if err != nil {
				t.Errorf("rank %d: adopt: %v", c.Rank(), err)
				return
			}
			bd.Src.CopyFrom(rec.Src)
			bd.Dst.CopyFrom(rec.Dst)
			blocks = append(blocks, bd)
		}
		mu.Lock()
		for _, bd := range blocks {
			decoded[bd.Block.Coord] = fieldBits(bd.Src)
		}
		mu.Unlock()
	})
	if t.Failed() {
		t.FailNow()
	}
	assertBitsEqual(t, decoded, want)
}
