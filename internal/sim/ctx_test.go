package sim

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/output"
)

// stepCtx is a context that cancels itself after a fixed number of Err
// calls. The context-bound drivers poll Err exactly once per step in the
// cancellation vote, so a threshold of k cancels the run deterministically
// after k executed steps on every rank — no goroutine timing involved.
type stepCtx struct {
	context.Context
	after int32
	calls atomic.Int32
	done  chan struct{}
}

func newStepCtx(after int32) *stepCtx {
	return &stepCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

// Done returns a non-nil channel so the drivers enable the vote; it never
// fires — cancellation is observed through Err alone.
func (c *stepCtx) Done() <-chan struct{} { return c.done }

func (c *stepCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// cavitySim builds the shared 2-rank lid-driven cavity of the context
// tests on this rank.
func cavitySim(t *testing.T, c *comm.Comm, f *blockforest.SetupForest, workers int) *Simulation {
	t.Helper()
	forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, forest, Config{Tau: 0.65, Workers: workers, SetupFlags: cavityFlags})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunCtxCancelStopsAtSameStep: a cancellation mid-run stops every
// rank at the same step boundary with ErrInterrupted, and the state at
// that boundary is bit-identical to an uninterrupted run of exactly that
// many steps.
func TestRunCtxCancelStopsAtSameStep(t *testing.T) {
	const cancelAfter = 4
	var mu sync.Mutex
	interruptedBits := make(map[[3]int][]uint64)
	f := cavityForest()
	comm.Run(2, func(c *comm.Comm) {
		s := cavitySim(t, c, f, 2)
		_, err := s.RunCtx(newStepCtx(cancelAfter), 10)
		if !errors.Is(err, ErrInterrupted) {
			t.Errorf("rank %d: RunCtx error = %v, want ErrInterrupted", c.Rank(), err)
			return
		}
		if got := s.Steps(); got != cancelAfter {
			t.Errorf("rank %d: stopped after %d steps, want %d", c.Rank(), got, cancelAfter)
		}
		collectBits(s, &mu, interruptedBits)
	})

	wantBits := make(map[[3]int][]uint64)
	f2 := cavityForest()
	comm.Run(2, func(c *comm.Comm) {
		s := cavitySim(t, c, f2, 2)
		mustRun(t, s, cancelAfter)
		collectBits(s, &mu, wantBits)
	})
	compareBits(t, wantBits, interruptedBits, "interrupted vs uninterrupted")
}

// TestRunCtxBackgroundNoVote: a background context must not change the
// communication pattern of Run — no per-step collective.
func TestRunCtxBackgroundNoVote(t *testing.T) {
	f := cavityForest()
	comm.Run(2, func(c *comm.Comm) {
		s := cavitySim(t, c, f, 1)
		mustRun(t, s, 2)
		c.ResetStats()
		if _, err := s.RunCtx(context.Background(), 3); err != nil {
			t.Error(err)
			return
		}
		// 3 steps of ghost exchange plus the metrics reduction; the
		// per-pair aggregated exchange sends exactly one message per
		// neighbor per step. A cancellation vote would add one allreduce
		// (2+ sends) per step on top.
		withVote := c.Stats().Sends
		c.ResetStats()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if _, err := s.RunCtx(ctx, 3); err != nil {
			t.Error(err)
			return
		}
		if c.Stats().Sends <= withVote {
			t.Errorf("rank %d: cancellable run sent %d messages, background run %d — vote missing",
				c.Rank(), c.Stats().Sends, withVote)
		}
	})
}

// TestResilientInterruptFinishesCheckpoint is the graceful-interrupt
// regression test: cancelling a resilient run never corrupts or discards
// the checkpoint sets on disk. The cancellation vote runs before each
// step's checkpoint work, so an in-flight set always commits before the
// driver returns; the interrupted run must leave (a) only fully committed,
// CRC-valid sets, (b) no transient .tmp-set directories, and (c) state
// from which a fresh world resumes bit-identical to an uninterrupted run.
func TestResilientInterruptFinishesCheckpoint(t *testing.T) {
	const (
		steps       = 10
		cancelAfter = 8 // cancels after step 7 → sets 3 and 6 committed
	)
	dir := t.TempDir()
	var mu sync.Mutex
	f := cavityForest()
	comm.Run(2, func(c *comm.Comm) {
		s := cavitySim(t, c, f, 1)
		_, err := s.RunResilientCtx(newStepCtx(cancelAfter), steps, ResilienceConfig{
			CheckpointEvery: 3,
			Dir:             dir,
		})
		if !errors.Is(err, ErrInterrupted) {
			t.Errorf("rank %d: RunResilientCtx error = %v, want ErrInterrupted", c.Rank(), err)
		}
	})
	if t.Failed() {
		return
	}

	sets := listSets(t, dir)
	if len(sets) != 2 || sets[0] != 6 || sets[1] != 3 {
		t.Fatalf("valid sets after interrupt = %v, want [6 3]", sets)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-set-") {
			t.Errorf("transient checkpoint directory %s left behind", e.Name())
		}
	}

	// Resume: a fresh world restores the newest set and finishes the run.
	resumedBits := make(map[[3]int][]uint64)
	f2 := cavityForest()
	comm.Run(2, func(c *comm.Comm) {
		s := cavitySim(t, c, f2, 1)
		restored, err := s.RestoreLatestCheckpointSet(dir)
		if err != nil {
			t.Error(err)
			return
		}
		if restored != 6 {
			t.Errorf("rank %d: restored step %d, want 6", c.Rank(), restored)
			return
		}
		mustRun(t, s, steps-int(restored))
		collectBits(s, &mu, resumedBits)
	})

	wantBits := make(map[[3]int][]uint64)
	f3 := cavityForest()
	comm.Run(2, func(c *comm.Comm) {
		s := cavitySim(t, c, f3, 1)
		mustRun(t, s, steps)
		collectBits(s, &mu, wantBits)
	})
	compareBits(t, wantBits, resumedBits, "resumed after interrupt vs uninterrupted")
}

// TestConfigValidateSingleNormalizationPoint: a hand-built zero config
// normalized by Validate must be exactly the configuration New runs with,
// and Validate must be idempotent.
func TestConfigValidateSingleNormalizationPoint(t *testing.T) {
	hand := Config{SetupFlags: cavityFlags}
	if err := hand.Validate(); err != nil {
		t.Fatal(err)
	}
	f := cavityForest()
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, Config{SetupFlags: cavityFlags})
		if err != nil {
			t.Error(err)
			return
		}
		got, want := comparableConfig(s.Config), comparableConfig(hand)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: New normalized %+v, Validate %+v", c.Rank(), got, want)
		}
	})
	again := hand
	if err := again.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(comparableConfig(again), comparableConfig(hand)) {
		t.Errorf("Validate not idempotent: %+v vs %+v", again, hand)
	}

	for _, bad := range []Config{
		{Tau: 0.5},
		{Workers: -1},
	} {
		cfg := bad
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", bad)
		}
	}
	var rc ResilienceConfig
	rc.Mode = RecoveryMode(7)
	if err := rc.Validate(); err == nil {
		t.Error("ResilienceConfig.Validate accepted an unknown mode")
	}
	rc = ResilienceConfig{MaxFailures: -1}
	if err := rc.Validate(); err != nil {
		t.Fatal(err)
	}
	if rc.MaxFailures != 8 || rc.BackoffBase == 0 || rc.BackoffMax == 0 {
		t.Errorf("ResilienceConfig.Validate defaults not applied: %+v", rc)
	}
}

// comparableConfig clears the (incomparable) function fields so two
// configs can be compared field-wise.
func comparableConfig(c Config) Config {
	c.SetupFlags = nil
	c.InitialState = nil
	return c
}

// TestFieldHash: equal runs hash equal across worker counts (the fields
// are bit-identical), different step counts hash differently, and the
// hash agrees on every rank.
func TestFieldHash(t *testing.T) {
	hashAt := func(workers, steps int) uint64 {
		var mu sync.Mutex
		var hashes []uint64
		f := cavityForest()
		comm.Run(2, func(c *comm.Comm) {
			s := cavitySim(t, c, f, workers)
			mustRun(t, s, steps)
			h, err := s.FieldHash()
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			hashes = append(hashes, h)
			mu.Unlock()
		})
		if len(hashes) != 2 || hashes[0] != hashes[1] {
			t.Fatalf("ranks disagree on the hash: %v", hashes)
		}
		return hashes[0]
	}
	h1 := hashAt(1, 5)
	h4 := hashAt(4, 5)
	if h1 != h4 {
		t.Errorf("hash differs across worker counts: %016x vs %016x", h1, h4)
	}
	if h6 := hashAt(1, 6); h6 == h1 {
		t.Errorf("hash did not change with the fields: %016x", h6)
	}
}

// listSets lists the committed, valid checkpoint sets, newest first.
func listSets(t *testing.T, dir string) []int64 {
	t.Helper()
	return output.ListValidSets(dir)
}
