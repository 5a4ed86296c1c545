package comm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDelayKeepsStreamOrder: a stall holds its stream, it never reorders
// it — every (source, tag) stream arrives in send order on both
// transports, the rule the rank-aggregated exchange matches by.
func TestDelayKeepsStreamOrder(t *testing.T) {
	const sends = 20
	for _, tc := range []struct {
		name string
		net  *NetOptions
	}{{"inproc", nil}, {"unix", fastNet()}} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &FaultPlan{Seed: 7, Delay: 0.5, MaxDelay: 5 * time.Millisecond}
			RunWithOptions(3, Options{Net: tc.net, Faults: plan}, func(c *Comm) {
				if c.Rank() != 1 {
					for i := 0; i < sends; i++ {
						c.Send(1, c.Rank(), i)
					}
					if c.Stats().Delayed == 0 {
						t.Errorf("rank %d: no send stalled at probability 0.5", c.Rank())
					}
					return
				}
				for _, src := range []int{0, 2} {
					var got []int
					for i := 0; i < sends; i++ {
						v, _ := c.Recv(src, src)
						got = append(got, v.(int))
					}
					for i, v := range got {
						if v != i {
							t.Errorf("stream from rank %d arrived as %v", src, got)
							break
						}
					}
				}
			})
		})
	}
}

// TestDelayedDeliveryAndDeterminism: stall decisions are a pure function
// of the seed — two runs with the same plan stall the same sends, another
// seed stalls others.
func TestDelayedDeliveryAndDeterminism(t *testing.T) {
	delays := func(seed int64) []int64 {
		var counts [4]int64
		plan := &FaultPlan{Seed: seed, Delay: 0.5, MaxDelay: 100 * time.Microsecond}
		RunWithOptions(4, Options{Faults: plan}, func(c *Comm) {
			for i := 0; i < 50; i++ {
				dst := (c.Rank() + 1) % c.Size()
				if err := c.SendErr(dst, 1, i); err != nil {
					t.Errorf("SendErr: %v", err)
				}
			}
			atomic.StoreInt64(&counts[c.Rank()], c.Stats().Delayed)
		})
		return counts[:]
	}
	a, b := delays(11), delays(11)
	for r := range a {
		if a[r] != b[r] {
			t.Errorf("rank %d: delay count %d vs %d across identical runs", r, a[r], b[r])
		}
		if a[r] == 0 || a[r] == 50 {
			t.Errorf("rank %d: degenerate delay count %d of 50 at probability 0.5", r, a[r])
		}
	}
	if c := delays(12); slices.Equal(a, c) {
		t.Error("different seeds produced identical delay patterns")
	}
}

// An injected crash panics the victim with a Crash value and surfaces a
// typed *RankFailedError on every other rank — including ranks blocked in
// a receive and ranks inside a collective — instead of deadlocking.
func TestCrashUnblocksReceiversAndCollectives(t *testing.T) {
	const n = 4
	var failures int32
	opts := Options{Faults: &FaultPlan{Crashes: []CrashSpec{{Rank: 2, Step: 5}}}}
	RunWithOptions(n, opts, func(c *Comm) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			cr, ok := p.(Crash)
			if !ok {
				panic(p)
			}
			if cr.Rank != 2 || c.Rank() != 2 {
				t.Errorf("crash of rank %d recovered on rank %d", cr.Rank, c.Rank())
			}
			atomic.AddInt32(&failures, 1)
		}()
		if c.Rank() == 2 {
			c.SetStep(4) // below the trigger: no crash
			c.SetStep(5) // fires
			t.Error("rank 2 survived its crash step")
			return
		}
		// Everyone else blocks in a receive that can only be released by
		// the failure declaration.
		_, _, err := c.RecvErr(2, 1)
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 2 {
			t.Errorf("rank %d: RecvErr = %v, want failure of rank 2", c.Rank(), err)
			return
		}
		// Collectives must now fail fast, not deadlock.
		if err := c.BarrierErr(); !IsRankFailure(err) {
			t.Errorf("rank %d: BarrierErr = %v, want rank failure", c.Rank(), err)
		}
		if _, err := c.AllreduceInt64Err(1, Sum[int64]); !IsRankFailure(err) {
			t.Errorf("rank %d: AllreduceInt64Err = %v, want rank failure", c.Rank(), err)
		}
		if err := c.SendErr(0, 1, 1); !IsRankFailure(err) {
			t.Errorf("rank %d: SendErr = %v, want rank failure", c.Rank(), err)
		}
		atomic.AddInt32(&failures, 1)
	})
	if failures != n {
		t.Errorf("%d ranks observed the failure, want %d", failures, n)
	}
}

// Recover clears the failure, purges stale traffic and advances the
// epoch; afterwards normal messaging and collectives work again.
func TestRecoverRestoresService(t *testing.T) {
	opts := Options{Faults: &FaultPlan{Crashes: []CrashSpec{{Rank: 1, Step: 0}}}}
	RunWithOptions(3, opts, func(c *Comm) {
		crashed := false
		func() {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(Crash); !ok {
						panic(p)
					}
					crashed = true
				}
			}()
			// Rank 0 leaves a stale message in rank 2's mailbox before the
			// crash; it must not survive recovery. Rank 1 crashes only
			// after rank 0's go-signal, so the stale send precedes the
			// failure declaration.
			if c.Rank() == 0 {
				c.Send(2, 9, []byte("stale"))
				c.Send(1, 1, []byte("go"))
			}
			if c.Rank() == 1 {
				c.Recv(0, 1)
				c.SetStep(0)
				t.Error("rank 1 survived its crash step")
			}
			// Survivors wait for the declaration.
			for c.Failed() == nil {
				time.Sleep(time.Millisecond)
			}
		}()
		if crashed != (c.Rank() == 1) {
			t.Errorf("rank %d: crashed=%v", c.Rank(), crashed)
		}
		epoch := c.Recover()
		if epoch != 1 {
			t.Errorf("rank %d: epoch %d after first recovery, want 1", c.Rank(), epoch)
		}
		if c.Failed() != nil {
			t.Errorf("rank %d: failure still declared after Recover", c.Rank())
		}
		// Stale pre-crash traffic is gone: the first tag-9 message rank 2
		// receives is the one rank 0 sends after the recovery.
		if c.Rank() == 0 {
			c.Send(2, 9, []byte("fresh"))
		}
		if c.Rank() == 2 {
			if v, _ := c.Recv(0, 9); string(v.([]byte)) != "fresh" {
				t.Errorf("received %v: stale pre-recovery message survived the purge", v)
			}
		}
		// Service restored: a collective over all ranks completes.
		sum, err := c.AllreduceInt64Err(int64(c.Rank()), Sum[int64])
		if err != nil || sum != 3 {
			t.Errorf("rank %d: post-recovery allreduce = %d, %v", c.Rank(), sum, err)
		}
	})
}

// The eager unbounded default must still accept unmatched traffic without
// blocking — the invariant the ghost-layer exchange relies on.
func TestUnboundedMailboxNeverBlocksSends(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			done := make(chan struct{})
			go func() {
				for i := 0; i < 10000; i++ {
					c.Send(1, 1, i)
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("unbounded send blocked")
			}
			c.Send(1, 2, -1)
		} else {
			c.Recv(0, 2) // wait for the flood to finish
			if ms := c.MailboxStats(); ms.HighWater < 10000 {
				t.Errorf("high-water %d, want >= 10000", ms.HighWater)
			}
			for i := 0; i < 10000; i++ {
				c.Recv(0, 1)
			}
		}
	})
}

// SetStep without a fault plan is free and a crash spec fires exactly
// once, even if the step is revisited (recovery replay).
func TestCrashFiresOnce(t *testing.T) {
	opts := Options{Faults: &FaultPlan{Crashes: []CrashSpec{{Rank: 0, Step: 3}}}}
	RunWithOptions(1, opts, func(c *Comm) {
		crashes := 0
		for attempt := 0; attempt < 2; attempt++ {
			func() {
				defer func() {
					if p := recover(); p != nil {
						if _, ok := p.(Crash); !ok {
							panic(p)
						}
						crashes++
					}
				}()
				for step := 0; step < 6; step++ {
					c.SetStep(step)
				}
			}()
			c.Recover()
		}
		if crashes != 1 {
			t.Errorf("crash fired %d times, want exactly once", crashes)
		}
	})
}

// Exact-match receives still interleave correctly with wildcard receives
// under the indexed mailbox (mixed matching paths share one queue set).
func TestMixedWildcardAndExactMatching(t *testing.T) {
	Run(3, func(c *Comm) {
		if c.Rank() == 0 {
			// The exact receive must pick the tag-5 message even while
			// other traffic is pending for the wildcard receives.
			v, src := c.Recv(1, 5)
			if v.(int) != 7 || src != 1 {
				t.Errorf("exact receive got %v from %d", v, src)
			}
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				v, src := c.Recv(AnySource, AnyTag)
				got[v.(int)*10+src] = true
			}
			if !got[11] || !got[22] {
				t.Errorf("wildcard receives got %v", got)
			}
		} else {
			c.Send(0, c.Rank(), c.Rank())
			if c.Rank() == 1 {
				c.Send(0, 5, 7)
			}
		}
	})
}

// recoverHang, deferred by a rank's SPMD function, absorbs the rank's own
// injected Hang; want says whether the rank must have hung.
func recoverHang(t *testing.T, c *Comm, want bool) {
	r := recover()
	if r == nil {
		if want {
			t.Errorf("rank %d: hang did not fire", c.WorldRank())
		}
		return
	}
	if h, ok := r.(Hang); !ok || h.Rank != c.WorldRank() || !want {
		panic(r)
	}
}

// TestFailureNamesOnlyTheSilentRank: a healthy rank blocked behind a hung
// one is never accused. Rank 2 waits on rank 1 from the start, rank 1
// works for half the failure timeout and then waits on rank 0, and rank 0
// hangs: on either transport every survivor's failure names rank 0.
func TestFailureNamesOnlyTheSilentRank(t *testing.T) {
	const failTimeout = 300 * time.Millisecond
	for _, tc := range []struct {
		name string
		net  *NetOptions
	}{{"inproc", nil}, {"unix", fastNet()}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Net:         tc.net,
				Faults:      &FaultPlan{Hangs: []CrashSpec{{Rank: 0, Step: 0}}},
				FailTimeout: failTimeout,
			}
			RunWithOptions(3, opts, func(c *Comm) {
				var err error
				switch c.Rank() {
				case 0:
					defer recoverHang(t, c, true)
					c.SetStep(0)
					return
				case 1:
					time.Sleep(failTimeout / 2)
					_, _, err = c.RecvErr(0, 1)
				case 2:
					_, _, err = c.RecvErr(1, 1)
				}
				var rfe *RankFailedError
				if !errors.As(err, &rfe) || rfe.Rank != 0 || !rfe.TimedOut() {
					t.Errorf("rank %d: got %v, want a timeout failure of rank 0", c.Rank(), err)
				}
			})
		})
	}
}

// TestRankPanicWakesPeers: a rank that panics is declared failed, so a
// peer blocked in a receive from it wakes with an error, and Run re-raises
// the panicking rank's message — on either transport, well before the
// test binary's timeout.
func TestRankPanicWakesPeers(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *NetOptions
	}{{"inproc", nil}, {"unix", &NetOptions{Network: "unix"}}} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan string, 1)
			go func() {
				defer func() { done <- fmt.Sprint(recover()) }()
				RunWithOptions(2, Options{Net: tc.net}, func(c *Comm) {
					if c.Rank() == 0 {
						c.Recv(1, 1) // never sent
						return
					}
					time.Sleep(50 * time.Millisecond) // let rank 0 block in Recv first
					panic("rank-one-boom")
				})
			}()
			select {
			case msg := <-done:
				if !strings.Contains(msg, "rank 1: rank-one-boom") {
					t.Errorf("Run panicked with %q, want rank 1's panic", msg)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("rank 0 still blocked 10 s after rank 1 panicked")
			}
		})
	}
}
