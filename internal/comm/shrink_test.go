package comm

import (
	"errors"
	"testing"
	"time"
)

// TestShrinkDenseRerankingAndTraffic kills one rank of four, shrinks, and
// exercises point-to-point and collective traffic on the survivor
// communicator.
func TestShrinkDenseRerankingAndTraffic(t *testing.T) {
	const dead = 2
	Run(4, func(c *Comm) {
		if c.Rank() == dead {
			c.Retire()
			return
		}
		c.MarkDead(dead)
		c.Recover()
		nc, rankMap := c.Shrink()
		if nc == nil {
			t.Errorf("rank %d: survivor got nil shrunk comm", c.Rank())
			return
		}
		if nc.Size() != 3 {
			t.Errorf("rank %d: shrunk size %d, want 3", c.Rank(), nc.Size())
		}
		want := []int{0, 1, -1, 2}
		for i, m := range rankMap {
			if m != want[i] {
				t.Errorf("rank %d: rankMap[%d] = %d, want %d", c.Rank(), i, m, want[i])
			}
		}
		if got := rankMap[c.Rank()]; got != nc.Rank() {
			t.Errorf("rank %d: shrunk rank %d, rankMap says %d", c.Rank(), nc.Rank(), got)
		}
		if nc.WorldRank() != c.WorldRank() {
			t.Errorf("rank %d: world rank changed to %d", c.Rank(), nc.WorldRank())
		}
		// Ring exchange plus an allreduce on the shrunk communicator.
		next := (nc.Rank() + 1) % nc.Size()
		prev := (nc.Rank() + nc.Size() - 1) % nc.Size()
		if err := nc.SendErr(next, 7, nc.Rank()); err != nil {
			t.Errorf("rank %d: send on shrunk comm: %v", c.Rank(), err)
		}
		got, _, err := nc.RecvErr(prev, 7)
		if err != nil {
			t.Errorf("rank %d: recv on shrunk comm: %v", c.Rank(), err)
		} else if got.(int) != prev {
			t.Errorf("rank %d: ring got %v, want %d", c.Rank(), got, prev)
		}
		sum, err := nc.AllreduceInt64Err(int64(c.WorldRank()), Sum[int64])
		if err != nil {
			t.Errorf("rank %d: allreduce on shrunk comm: %v", c.Rank(), err)
		} else if sum != 0+1+3 {
			t.Errorf("rank %d: allreduce sum %d, want 4", c.Rank(), sum)
		}
	})
}

// TestRecoverCompletesWhenDeathIsLearnedLate has the survivors enter the
// rendezvous before anyone knows a rank died: MarkDead must re-evaluate
// the quorum and release them.
func TestRecoverCompletesWhenDeathIsLearnedLate(t *testing.T) {
	done := make(chan int64, 3)
	Run(3, func(c *Comm) {
		if c.Rank() == 2 {
			time.Sleep(50 * time.Millisecond) // survivors are already waiting
			c.Retire()
			return
		}
		done <- c.Recover()
	})
	close(done)
	n := 0
	for epoch := range done {
		n++
		if epoch != 1 {
			t.Errorf("recover returned epoch %d, want 1", epoch)
		}
	}
	if n != 2 {
		t.Fatalf("%d survivors completed Recover, want 2", n)
	}
}

// TestFailTimeoutDeclaresTimeoutFailure: a hung peer is declared failed
// with a timeout cause once its beat has been missing for FailTimeout.
func TestFailTimeoutDeclaresTimeoutFailure(t *testing.T) {
	opts := Options{
		Faults:      &FaultPlan{Hangs: []CrashSpec{{Rank: 1, Step: 0}}},
		FailTimeout: 50 * time.Millisecond,
	}
	RunWithOptions(2, opts, func(c *Comm) {
		if c.Rank() == 1 {
			defer recoverHang(t, c, true)
			c.SetStep(0)
			return
		}
		_, _, err := c.RecvErr(1, 3)
		var rfe *RankFailedError
		if !errors.As(err, &rfe) {
			t.Errorf("recv from silent rank: got %v, want RankFailedError", err)
			return
		}
		if rfe.Rank != 1 {
			t.Errorf("accused rank %d, want 1", rfe.Rank)
		}
		if !rfe.TimedOut() {
			t.Errorf("failure %v not marked as timeout", rfe)
		}
	})
}

// TestHangFiresSilently: an injected hang panics the victim without
// declaring a failure — the world must find out through its failure
// detector, and without a FailTimeout there is none.
func TestHangFiresSilently(t *testing.T) {
	opts := Options{Faults: &FaultPlan{Hangs: []CrashSpec{{Rank: 1, Step: 0}}}}
	RunWithOptions(2, opts, func(c *Comm) {
		if c.Rank() == 1 {
			defer func() {
				if r := recover(); r == nil {
					t.Error("hang did not fire")
				} else if h, ok := r.(Hang); !ok || h.Rank != 1 {
					t.Errorf("hang panic value %v", r)
				}
				if c.Failed() != nil {
					t.Errorf("hang declared a failure: %v", c.Failed())
				}
			}()
			c.SetStep(0)
			return
		}
		c.SetStep(0)
		if c.Failed() != nil {
			t.Errorf("survivor sees declared failure: %v", c.Failed())
		}
	})
}

// TestDelayedTimersStoppedAtTeardown arms a plan that delays every
// message far beyond the run's lifetime and asserts no delayed-delivery
// timer survives the Run — the leak fixed by the timer registry.
func TestDelayedTimersStoppedAtTeardown(t *testing.T) {
	checked := false
	testHookWorld = func(w *world) {
		if n := w.pendingDelayedTimers(); n != 0 {
			t.Errorf("%d delayed-delivery timers pending after Run", n)
		}
		if !w.timersClosed {
			t.Error("timer registry not closed after Run")
		}
		checked = true
	}
	defer func() { testHookWorld = nil }()
	opts := Options{Faults: &FaultPlan{Seed: 5, DelayProb: 1, MaxDelay: time.Minute}}
	RunWithOptions(2, opts, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 4; i++ {
				if err := c.SendErr(1, 9, i); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}
	})
	if !checked {
		t.Fatal("teardown hook did not run")
	}
}

// TestDelayedDeliveryShedOnRecover: a message in delayed flight when the
// world recovers must never be delivered afterwards.
func TestDelayedDeliveryShedOnRecover(t *testing.T) {
	opts := Options{Faults: &FaultPlan{Seed: 11, DelayProb: 1, MaxDelay: 150 * time.Millisecond}}
	RunWithOptions(2, opts, func(c *Comm) {
		if c.Rank() == 0 {
			if err := c.SendErr(1, 4, 42); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		c.Recover()
		if c.Rank() == 1 {
			// Twice the longest delay: the message would have landed by now.
			time.Sleep(300 * time.Millisecond)
			if n := c.MailboxStats().Pending; n != 0 {
				t.Errorf("delayed pre-recovery message was delivered (%d pending)", n)
			}
		}
	})
}
