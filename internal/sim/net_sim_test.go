package sim

import (
	"errors"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/lattice"
	"walberla/internal/output"
	"walberla/internal/telemetry"
)

// socketOpts is the shared socket-transport configuration of the
// cross-transport tests: unix sockets with a brisk heartbeat so the
// fault-driven tests converge quickly.
func socketOpts() *comm.NetOptions {
	return &comm.NetOptions{
		Network:        "unix",
		HeartbeatEvery: 2 * time.Millisecond,
	}
}

// runCavityBits executes the two-rank cavity scenario on the given
// communicator options and returns every block's exact bit pattern.
func runCavityBits(t *testing.T, opts comm.Options, workers, steps int) map[[3]int][]uint64 {
	t.Helper()
	var mu sync.Mutex
	bits := make(map[[3]int][]uint64)
	comm.RunWithOptions(2, opts, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
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
		collectBits(s, &mu, bits)
	})
	if t.Failed() {
		t.Fatal("cavity run failed")
	}
	return bits
}

// TestCrossTransportBitIdentical is the transport-abstraction acceptance
// test: the same scenario stepped over the in-process backend and over
// real sockets (unix and TCP) must produce bit-identical fields across
// intra-rank worker counts — the wire codec is an exact float64 carrier.
func TestCrossTransportBitIdentical(t *testing.T) {
	const steps = 6
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(workerName(workers), func(t *testing.T) {
			want := runCavityBits(t, comm.Options{}, workers, steps)
			got := runCavityBits(t, comm.Options{Net: socketOpts()}, workers, steps)
			assertBitsEqual(t, got, want)
		})
	}
	t.Run("tcp", func(t *testing.T) {
		want := runCavityBits(t, comm.Options{}, 1, steps)
		got := runCavityBits(t, comm.Options{Net: &comm.NetOptions{Network: "tcp"}}, 1, steps)
		assertBitsEqual(t, got, want)
	})
	// A sparse world masks its remote slabs: the mask handshake and the
	// masked payloads cross the socket, and every ghost slot the plan
	// leaves unwritten holds NaN before each step.
	for _, p := range maskPatterns() {
		if p.name != "random1" && p.name != "tube" {
			continue
		}
		for _, workers := range []int{1, 2} {
			t.Run("masked/"+p.name+"/"+workerName(workers), func(t *testing.T) {
				cfg := maskConfig(p, true, lattice.D3Q19(), LayoutSoA)
				cfg.Workers = workers
				wantHash, want := runMaskCaseOn(t, comm.Options{}, cfg, ExchangeAggregated, true, 2, steps, true)
				gotHash, got := runMaskCaseOn(t, comm.Options{Net: socketOpts()}, cfg, ExchangeAggregated, true, 2, steps, true)
				if gotHash != wantHash {
					t.Errorf("field hash %016x over unix, %016x in process", gotHash, wantHash)
				}
				assertBitsEqual(t, got, want)
			})
		}
	}
}

// TestNetTransientFaultsBitIdentical injects frame-level drops, corruption
// and delays into a socket run: the retention/resend protocol must absorb
// every fault with no observable effect — the result stays bit-identical
// to the in-process reference and no failure is ever declared.
func TestNetTransientFaultsBitIdentical(t *testing.T) {
	const steps = 6
	want := runCavityBits(t, comm.Options{}, 2, steps)

	plan := &comm.FaultPlan{
		Seed:     42,
		Drop:     0.03,
		Corrupt:  0.03,
		Delay:    0.05,
		MaxDelay: 2 * time.Millisecond,
		Severs: []comm.SeverSpec{
			{From: 0, To: 1, AtFrame: 5},
			{From: 1, To: 0, AtFrame: 9},
		},
	}
	var mu sync.Mutex
	got := make(map[[3]int][]uint64)
	var injected, resent int64
	comm.RunWithOptions(2, comm.Options{Net: socketOpts(), Faults: plan, FailTimeout: 30 * time.Second}, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		cfg := cavityConfig()
		cfg.Workers = 2
		s, err := New(c, forest, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, steps)
		collectBits(s, &mu, got)
		if f := c.Failed(); f != nil {
			t.Errorf("rank %d: transient faults escalated to a failure: %v", c.Rank(), f)
		}
		ns, ok := c.NetStats()
		if !ok {
			t.Errorf("rank %d: no NetStats on the socket transport", c.Rank())
			return
		}
		mu.Lock()
		injected += ns.InjectedDrops + ns.InjectedCorrupts + ns.InjectedSevers
		resent += ns.ResentFrames
		mu.Unlock()
	})
	if t.Failed() {
		t.Fatal("faulty socket run failed")
	}
	assertBitsEqual(t, got, want)
	if injected == 0 {
		t.Fatal("fault plan injected nothing — the test exercised no recovery")
	}
	if resent == 0 {
		t.Fatal("faults were injected but nothing was resent")
	}
}

// TestRebalanceOverSockets: a rebalance that swaps the two ranks' blocks
// over unix sockets ends on the in-process bits, and the blocks cross the
// wire as bytes — each rank's socket traffic over the rebalance is at
// least the WBK2 rank file of the blocks it gives away.
func TestRebalanceOverSockets(t *testing.T) {
	const steps = 6
	run := func(opts comm.Options) map[[3]int][]uint64 {
		var mu sync.Mutex
		bits := make(map[[3]int][]uint64)
		comm.RunWithOptions(2, opts, func(c *comm.Comm) {
			f := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{2, 1, 1}),
				[3]int{2, 1, 1}, [3]int{8, 8, 8}, [3]bool{})
			f.BalanceMorton(2)
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
			mustRun(t, s, steps/2)
			moved := output.LeafFileSize(records(s.Blocks))
			before, _ := c.NetStats()
			if err := s.Rebalance(ByCoord(s, map[[3]int]int{{0, 0, 0}: 1, {1, 0, 0}: 0})); err != nil {
				t.Error(err)
				return
			}
			// Past the barrier the peer holds this rank's blocks, so
			// their frames have been written and counted.
			c.Barrier()
			if after, ok := c.NetStats(); ok && after.BytesSent-before.BytesSent < moved {
				t.Errorf("rank %d sent %d bytes over the rebalance, less than the %d-byte rank file of its blocks",
					c.Rank(), after.BytesSent-before.BytesSent, moved)
			} else if !ok && opts.Net != nil {
				t.Errorf("rank %d: no NetStats on the socket transport", c.Rank())
			}
			if len(s.Blocks) != 1 || s.Blocks[0].Block.Coord != [3]int{1 - c.Rank(), 0, 0} {
				t.Errorf("rank %d holds %d blocks after the swap", c.Rank(), len(s.Blocks))
			}
			mustRun(t, s, steps/2)
			collectBits(s, &mu, bits)
		})
		if t.Failed() {
			t.FailNow()
		}
		return bits
	}
	want := run(comm.Options{})
	assertBitsEqual(t, run(comm.Options{Net: socketOpts()}), want)
}

// TestNetShrinkRecoveryCrash runs the full shrinking-recovery pipeline
// over real sockets: a rank crashes mid-run, the survivors detect it,
// shrink the world, adopt the dead rank's blocks from the in-memory buddy
// replica — zero disk reads — and finish bit-identical to an
// uninterrupted run.
func TestNetShrinkRecoveryCrash(t *testing.T) {
	const steps, victim = 8, 1
	want := shrinkReference(t, 3, steps, 1)
	opts := comm.Options{
		Net:         socketOpts(),
		Faults:      &comm.FaultPlan{Seed: 11, Crashes: []comm.CrashSpec{{Rank: victim, Step: 5}}},
		FailTimeout: 2 * time.Second,
	}
	got, recovered := runShrinkScenario(t, opts, 3, victim, steps, 1, ResilienceConfig{
		Mode:            RecoverShrink,
		CheckpointEvery: 2,
		MaxFailures:     4,
		BackoffBase:     time.Millisecond,
		BackoffMax:      10 * time.Millisecond,
	})
	assertBitsEqual(t, got, want)
	for _, r := range recovered {
		if r.Shrinks != 1 || r.BuddyRestores != 1 || r.DiskRestores != 0 {
			t.Errorf("crash over sockets was not recovered by one buddy shrink: %+v", r)
		}
		if r.DiskReadsDuringRecovery != 0 {
			t.Errorf("buddy recovery over sockets read disk %d times, want 0: %+v", r.DiskReadsDuringRecovery, r)
		}
	}
}

// TestNetReplicasCrossTheSocket runs a 2-rank world over unix sockets under
// shrink and heal recovery: it must end on the fault-free bits, and every
// rank's sockets must have carried at least the replica and heal-stream
// bytes it counted (checkReplicasOnTheWire) — no replica crosses as a
// reference.
func TestNetReplicasCrossTheSocket(t *testing.T) {
	const steps, victim = 8, 1
	want := shrinkReference(t, 2, steps, 1)
	opts := comm.Options{
		Net:         socketOpts(),
		Faults:      &comm.FaultPlan{Seed: 11, Crashes: []comm.CrashSpec{{Rank: victim, Step: 5}}},
		FailTimeout: 2 * time.Second,
	}
	t.Run("shrink", func(t *testing.T) {
		rc := healConfig()
		rc.Mode = RecoverShrink
		got, recovered := runShrinkScenario(t, opts, 2, victim, steps, 1, rc)
		assertBitsEqual(t, got, want)
		if len(recovered) != 1 || recovered[0].Shrinks != 1 || recovered[0].ReplicaBytes == 0 {
			t.Errorf("want one survivor that shrank once from its replicas: %+v", recovered)
		}
	})
	t.Run("heal", func(t *testing.T) {
		got, recovered, _ := runHealScenario(t, opts, 2, 1, steps, 1, healConfig())
		assertBitsEqual(t, got, want)
		assertHealedFromBuddy(t, recovered)
	})
}

// TestNetReplicaAboveFrameBound gives each of two ranks a 24³ block, so
// a rank file (5.3 MB) is several times what one socket frame holds
// (1 MiB) and every replica crosses unix sockets as consecutive frames. A
// crash then shrinks the world onto the survivor, which adopts its ward's
// blocks from that replica and must end on the fault-free bits.
func TestNetReplicaAboveFrameBound(t *testing.T) {
	const steps, victim = 4, 1
	forest := func() *blockforest.SetupForest {
		f := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{2, 1, 1}),
			[3]int{2, 1, 1}, [3]int{24, 24, 24}, [3]bool{})
		f.BalanceMorton(2)
		return f
	}
	run := func(opts comm.Options, rc *ResilienceConfig) map[[3]int][]uint64 {
		var mu sync.Mutex
		bits := make(map[[3]int][]uint64)
		comm.RunWithOptions(2, opts, func(c *comm.Comm) {
			f, err := blockforest.Distribute(c, forestFor(c.Rank(), forest()))
			if err != nil {
				t.Error(err)
				return
			}
			s, err := New(c, f, cavityConfig())
			if err != nil {
				t.Error(err)
				return
			}
			if rc == nil {
				mustRun(t, s, steps)
				collectBits(s, &mu, bits)
				return
			}
			if size := output.LeafFileSize(records(s.Blocks)); size <= 4<<20 {
				t.Errorf("rank %d: %d-byte rank file fits in a few frames", c.Rank(), size)
			}
			m, err := s.RunResilient(steps, *rc)
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
			if m.Recovery.Shrinks != 1 || m.Recovery.ReplicaBytes <= 4<<20 {
				t.Errorf("rank %d: want one shrink from replicas above the frame bound: %+v", c.Rank(), m.Recovery)
			}
			checkReplicasOnTheWire(t, c, m.Recovery)
			collectBits(s, &mu, bits)
		})
		if t.Failed() {
			t.FailNow()
		}
		return bits
	}
	want := run(comm.Options{}, nil)
	rc := healConfig()
	rc.Mode = RecoverShrink
	assertBitsEqual(t, run(comm.Options{
		Net:         socketOpts(),
		Faults:      &comm.FaultPlan{Seed: 11, Crashes: []comm.CrashSpec{{Rank: victim, Step: 3}}},
		FailTimeout: 5 * time.Second,
	}, &rc), want)
}

// TestNetShrinkRecoveryHang is the connection-level acceptance test: the
// victim hangs mid-run (its endpoint falls silent — no heartbeats, no
// acks, no redials), the transport's failure detector accuses it within
// FailTimeout, and the survivors complete shrinking recovery from the
// in-memory replicas, bit-identical and without touching disk.
func TestNetShrinkRecoveryHang(t *testing.T) {
	const steps, victim = 8, 1
	const failTimeout = 300 * time.Millisecond
	want := shrinkReference(t, 3, steps, 1)

	opts := comm.Options{
		Net:         socketOpts(),
		Faults:      &comm.FaultPlan{Seed: 13, Hangs: []comm.CrashSpec{{Rank: victim, Step: 5}}},
		FailTimeout: failTimeout,
	}

	start := time.Now()
	got, recovered := runShrinkScenario(t, opts, 3, victim, steps, 1, ResilienceConfig{
		Mode:            RecoverShrink,
		CheckpointEvery: 1,
		MaxFailures:     4,
		BackoffBase:     time.Millisecond,
		BackoffMax:      10 * time.Millisecond,
	})
	elapsed := time.Since(start)
	assertBitsEqual(t, got, want)
	for _, r := range recovered {
		if r.Shrinks != 1 || r.BuddyRestores != 1 || r.DiskRestores != 0 {
			t.Errorf("hang was not recovered by one buddy shrink: %+v", r)
		}
		if r.DiskReadsDuringRecovery != 0 {
			t.Errorf("buddy recovery performed %d disk reads, want 0: %+v", r.DiskReadsDuringRecovery, r)
		}
	}
	// Detection must be bounded by the accusation clock, not the run: the
	// whole faulty run (compute included) finishing within a few multiples
	// of FailTimeout proves the detector fired on time.
	if elapsed > 10*failTimeout {
		t.Errorf("faulty run took %v — failure detection is not bounded by FailTimeout (%v)", elapsed, failTimeout)
	}
}

// TestStepZeroAllocSocket extends the allocation-regression gate to the
// socket transport: in the steady state every frame is written gathered
// from the persistent aggregated send buffers and read into rotating
// receive buffers, so a full step over unix sockets performs zero heap
// allocations. The heartbeat interval is set beyond the test's lifetime
// so the measurement sees pure data traffic (background liveness probes
// allocate nothing either, but their timers tick asynchronously and
// AllocsPerRun counts every goroutine's mallocs).
func TestStepZeroAllocSocket(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const runs = 20
	quiet := &comm.NetOptions{
		Network:        "unix",
		HeartbeatEvery: time.Hour,
	}
	comm.RunWithOptions(2, comm.Options{Net: quiet}, func(c *comm.Comm) {
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
		step := func() {
			if err := s.Step(); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 5; i++ {
			step()
		}
		if c.Rank() != 0 {
			for i := 0; i < runs+1; i++ {
				step()
			}
			return
		}
		if avg := testing.AllocsPerRun(runs, step); avg != 0 {
			t.Errorf("socket Step allocates %.1f objects per step in steady state, want 0", avg)
		}
	})
}

// TestNetTelemetryWired checks the sim wires the transport's telemetry:
// a traced socket run must populate the comm.net.* counters.
func TestNetTelemetryWired(t *testing.T) {
	trace := telemetry.NewTrace()
	reg := telemetry.NewRegistry()
	comm.RunWithOptions(2, comm.Options{Net: socketOpts()}, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		cfg := cavityConfig()
		cfg.Tracer = trace.NewTracer(c.Rank(), 1, 0)
		cfg.Metrics = reg
		s, err := New(c, forest, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, 3)
	})
	if t.Failed() {
		t.FailNow()
	}
	for _, name := range []string{"comm.net.frames_sent", "comm.net.frames_recv", "comm.net.bytes_sent", "comm.net.bytes_recv"} {
		if v := reg.Counter(name).Value(); v == 0 {
			t.Errorf("counter %s = 0 after a traced socket run", name)
		}
	}
}
