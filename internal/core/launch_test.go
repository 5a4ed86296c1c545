package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"walberla/internal/comm"
	"walberla/internal/sim"
)

// within fails the test when fn — a launcher call that must come back
// with an error instead of hanging on a lost rank — is still running after
// the deadline.
func within(t *testing.T, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("the launcher call hangs on a rank that left the world")
		return nil
	}
}

func cavity(ranks int) *Problem {
	return LidDrivenCavity([3]int{2, 2, 1}, [3]int{4, 4, 4}, 0.05, ranks)
}

// TestLaunchReturnsARanksError: one rank's error — from the body, from the
// Prepare hook under the fault-tolerant driver, beside parked spares — is
// what the call returns, while its peers sit in collectives it never
// joins. Nothing hangs and no rank exits the process.
func TestLaunchReturnsARanksError(t *testing.T) {
	boom := errors.New("boom on rank 1")
	onRank1 := func(s *sim.Simulation) error {
		if s.Comm.Rank() == 1 {
			return boom
		}
		return nil
	}
	heal := &sim.ResilienceConfig{CheckpointEvery: 2, Mode: sim.RecoverHeal, MaxFailures: -1}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"body error while peers wait in a barrier", func() error {
			return cavity(4).Launch(context.Background(), World{}, func(r *Rank) error {
				if err := onRank1(r.Sim); err != nil {
					return err
				}
				return r.Sim.Comm.BarrierErr()
			})
		}},
		{"body error while peers step", func() error {
			return cavity(4).Launch(context.Background(), World{}, func(r *Rank) error {
				if err := onRank1(r.Sim); err != nil {
					return err
				}
				_, err := r.Sim.Run(1 << 30)
				return err
			})
		}},
		{"prepare error before a plain run", func() error {
			_, err := cavity(4).Execute(context.Background(), World{Steps: 1 << 30, Prepare: onRank1}, nil)
			return err
		}},
		{"prepare error under rewind recovery", func() error {
			w := World{Steps: 20, Prepare: onRank1, Resilience: &sim.ResilienceConfig{CheckpointEvery: 5, Dir: t.TempDir(), MaxFailures: -1}}
			_, err := cavity(4).Execute(context.Background(), w, nil)
			return err
		}},
		{"each error beside parked spares", func() error {
			_, err := cavity(2).Execute(context.Background(), World{Steps: 4, Spares: 2, Resilience: heal}, func(r *Rank) error {
				return onRank1(r.Sim)
			})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := within(t, tc.call); !errors.Is(err, boom) {
				t.Errorf("got %v, want the failing rank's error", err)
			}
		})
	}
}

// TestLaunchTurnsInjectedFaultsIntoErrors: without a recovery driver an
// injected crash ends the world with an error naming it — the panic never
// reaches the caller, and the survivors do not wait for the dead rank.
func TestLaunchTurnsInjectedFaultsIntoErrors(t *testing.T) {
	w := World{Steps: 10, Comm: comm.Options{Faults: &comm.FaultPlan{Seed: 1, Crashes: []comm.CrashSpec{{Rank: 1, Step: 3}}}}}
	err := within(t, func() error {
		_, err := cavity(2).Execute(context.Background(), w, nil)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("got %v, want an error about the crash of rank 1", err)
	}
	// The same plan under the fault-tolerant driver is absorbed.
	w.Resilience = &sim.ResilienceConfig{CheckpointEvery: 2, Dir: t.TempDir(), MaxFailures: -1}
	out, err := cavity(2).Execute(context.Background(), w, nil)
	if err != nil || out.Metrics.Recovery.FailuresDetected != 1 || out.Hash == 0 {
		t.Errorf("resilient run: %+v, %v", out.Metrics.Recovery, err)
	}
}

// TestExecuteReportsFromWhoeverIsRankZero: every rank reaches each, the
// outcome is rank 0's, and a world that shrank around a dead rank still
// reports — from the rank that holds rank 0 at the end.
func TestExecuteReportsFromWhoeverIsRankZero(t *testing.T) {
	var reached atomic.Int32
	plain, err := cavity(4).Execute(context.Background(), World{Steps: 6}, func(r *Rank) error {
		reached.Add(1)
		if r.Err != nil || r.Metrics.Steps != 6 {
			t.Errorf("rank %d: metrics %+v, err %v", r.Sim.Comm.Rank(), r.Metrics, r.Err)
		}
		return nil
	})
	if err != nil || reached.Load() != 4 || plain.Hash == 0 || plain.Steps != 6 || plain.Interrupted {
		t.Fatalf("plain run: %+v, %d ranks reached each, %v", plain, reached.Load(), err)
	}
	shrink := World{Steps: 6, Resilience: &sim.ResilienceConfig{CheckpointEvery: 2, Mode: sim.RecoverShrink, MaxFailures: -1},
		Comm: comm.Options{Faults: &comm.FaultPlan{Seed: 1, Crashes: []comm.CrashSpec{{Rank: 0, Step: 3}}}}}
	reached.Store(0)
	out, err := cavity(4).Execute(context.Background(), shrink, func(*Rank) error { reached.Add(1); return nil })
	if err != nil || reached.Load() != 3 || out.Hash != plain.Hash || out.Metrics.Recovery.Shrinks != 1 {
		t.Errorf("shrunk run: %+v, %d ranks reached each, %v; want hash %016x from 3 survivors", out, reached.Load(), err, plain.Hash)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err = cavity(2).Execute(ctx, World{Steps: 6}, nil); err != nil || !out.Interrupted || out.Steps != 0 {
		t.Errorf("cancelled run: %+v, %v", out, err)
	}
}

// cancelAfter is a context whose Err turns Canceled after a fixed number
// of calls. Each member of a world calls Err once per step boundary, in
// the cancellation vote, so the step a run stops at follows from the
// count alone, with no goroutine timing involved.
type cancelAfter struct {
	context.Context
	after int32
	calls atomic.Int32
	done  chan struct{}
}

// Done is non-nil, so the drivers vote; it never fires.
func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestInterruptedHealedRunCountsItsSteps: an interrupted run reports the
// steps it got through, replays not counted. Rank 1 crashes at step 3, a
// spare takes its place and the world replays from the step-2
// generation; cancelled a few steps after that replay, the run reports
// the step its fields are at, not the steps it executed.
func TestInterruptedHealedRunCountsItsSteps(t *testing.T) {
	w := World{Steps: 20, Spares: 1,
		Resilience: &sim.ResilienceConfig{CheckpointEvery: 2, Mode: sim.RecoverHeal, MaxFailures: -1},
		Comm:       comm.Options{Faults: &comm.FaultPlan{Seed: 1, Crashes: []comm.CrashSpec{{Rank: 1, Step: 3}}}}}
	// Two votes per boundary: steps 0–3 before the crash, then 2, 3, 4 and
	// 5 after the heal.
	ctx := &cancelAfter{Context: context.Background(), after: 16, done: make(chan struct{})}
	at := 0
	var out Outcome
	err := within(t, func() (err error) {
		out, err = cavity(2).Execute(ctx, w, func(r *Rank) error {
			if r.Sim.Comm.Rank() == 0 {
				at = r.Sim.WorldStep()
			}
			return nil
		})
		return err
	})
	if err != nil || !out.Interrupted {
		t.Fatalf("got %+v, %v; want an interrupted run", out, err)
	}
	if at <= 3 {
		t.Fatalf("the run stopped at step %d, before the crash at step 3 was healed", at)
	}
	if out.Steps != at {
		t.Errorf("the interrupted run reports %d steps; its fields are at step %d", out.Steps, at)
	}
}

// TestWorldValidation: what cannot start is an error before any rank runs.
func TestWorldValidation(t *testing.T) {
	forest, err := cavity(4).BuildForest()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		w          World
	}{
		{"spares without heal", "spare ranks need heal-mode recovery", World{Spares: 1}},
		{"forest for more ranks", "balanced for 4 ranks", World{Forest: forest}},
		{"fault outside the world", "crash rank 2", World{Comm: comm.Options{Faults: &comm.FaultPlan{Crashes: []comm.CrashSpec{{Rank: 2, Step: 1}}}}}},
		{"address count", "transport addresses", World{Comm: comm.Options{Net: &comm.NetOptions{Network: "tcp", Addrs: []string{"127.0.0.1:0"}}}}},
	} {
		err := cavity(2).Launch(context.Background(), tc.w, func(*Rank) error { return nil })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
