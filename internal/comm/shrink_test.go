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
