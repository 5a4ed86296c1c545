package comm

import (
	"sync/atomic"
	"testing"
	"time"

	"walberla/internal/testutil"
)

// TestGrowWorldRecruitsLowestSpare runs a 3-active/2-spare world, kills an
// active rank, and checks that the recovery recruits exactly the
// lowest-indexed spare: the survivors and the recruit independently build
// the same grown communicator and a collective works on it.
func TestGrowWorldRecruitsLowestSpare(t *testing.T) {
	testutil.CheckLeaks(t)
	const active, spares = 3, 2
	const victim = 1
	var joined atomic.Int64
	var released atomic.Int64
	RunWithOptions(active+spares, Options{FailTimeout: 2 * time.Second}, func(c *Comm) {
		if c.WorldRank() >= active {
			_, join := c.ParkSpare(active)
			if !join {
				released.Add(1)
				return
			}
			if c.WorldRank() != active {
				t.Errorf("world rank %d recruited; want %d (lowest spare)", c.WorldRank(), active)
			}
			joined.Add(1)
			gc := c.GrowWorld(active)
			if gc == nil || gc.Size() != active {
				t.Errorf("recruit built communicator %v", gc)
				return
			}
			if got := gc.AllreduceInt64(1, Sum[int64]); got != active {
				t.Errorf("recruit allreduce = %d, want %d", got, active)
			}
			gc.ReleaseSpares()
			return
		}
		ac := c.GrowWorld(active)
		if ac == nil || ac.Size() != active || ac.WorldRankOf(ac.Rank()) != c.WorldRank() {
			t.Errorf("world rank %d: bad initial active communicator", c.WorldRank())
			return
		}
		if c.WorldRank() == victim {
			c.Retire()
			return
		}
		// Survivors: wait out the victim's retirement, declare the failure
		// (in the resilient driver, a crash or the failure detector does
		// this — the declaration is what wakes parked spares into the
		// rendezvous), and grow.
		for c.Alive(victim) {
			time.Sleep(time.Millisecond)
		}
		if c.WorldRank() == 0 {
			c.w.declareFailure(&RankFailedError{Rank: victim, Cause: "retired"})
		}
		c.Recover()
		gc := c.GrowWorld(active)
		if gc == nil || gc.Size() != active {
			t.Errorf("world rank %d: grown communicator %v", c.WorldRank(), gc)
			return
		}
		if gc.WorldRankOf(active-1) != active {
			t.Errorf("grown comm rank %d maps to world %d, want %d",
				active-1, gc.WorldRankOf(active-1), active)
		}
		if got := gc.AllreduceInt64(1, Sum[int64]); got != active {
			t.Errorf("survivor allreduce = %d, want %d", got, active)
		}
	})
	if joined.Load() != 1 {
		t.Fatalf("%d spares joined, want 1", joined.Load())
	}
	if released.Load() != spares-1 {
		t.Fatalf("%d spares released, want %d", released.Load(), spares-1)
	}
}

// TestParkSpareReleasedWithoutFailure checks that spares of a fault-free
// run park and are released cleanly.
func TestParkSpareReleasedWithoutFailure(t *testing.T) {
	testutil.CheckLeaks(t)
	const active, spares = 2, 3
	var released atomic.Int64
	Run(active+spares, func(c *Comm) {
		if c.WorldRank() >= active {
			if _, join := c.ParkSpare(active); join {
				t.Errorf("spare %d joined a fault-free run", c.WorldRank())
			} else {
				released.Add(1)
			}
			return
		}
		ac := c.GrowWorld(active)
		ac.Barrier()
		if ac.Rank() == 0 {
			ac.ReleaseSpares()
		}
	})
	if released.Load() != spares {
		t.Fatalf("%d spares released, want %d", released.Load(), spares)
	}
}

// TestParkSpareReleasedMidFailure checks the abort path: a failure is
// declared but the actives give up without completing a recovery; the
// release must still unblock a spare already waiting in the rendezvous.
func TestParkSpareReleasedMidFailure(t *testing.T) {
	testutil.CheckLeaks(t)
	const active, spares = 2, 1
	var released atomic.Int64
	RunWithOptions(active+spares, Options{}, func(c *Comm) {
		if c.WorldRank() >= active {
			if _, join := c.ParkSpare(active); join {
				t.Errorf("spare %d joined an aborted run", c.WorldRank())
			} else {
				released.Add(1)
			}
			return
		}
		if c.WorldRank() == 0 {
			// Declare a failure, give the spare time to enter the
			// rendezvous, then abort the run without recovering.
			c.w.declareFailure(&RankFailedError{Rank: 1, Cause: "test abort"})
			time.Sleep(20 * time.Millisecond)
			c.ReleaseSpares()
		}
	})
	if released.Load() != spares {
		t.Fatalf("%d spares released, want %d", released.Load(), spares)
	}
}
