package comm

import (
	"sync/atomic"
	"testing"
)

func TestRankAndSize(t *testing.T) {
	const n = 7
	var seen [n]int32
	Run(n, func(c *Comm) {
		if c.Size() != n {
			t.Errorf("Size = %d, want %d", c.Size(), n)
		}
		atomic.AddInt32(&seen[c.Rank()], 1)
	})
	for r, v := range seen {
		if v != 1 {
			t.Errorf("rank %d executed %d times, want 1", r, v)
		}
	}
}

func TestSendRecvOrdering(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{1})
			c.Send(1, 5, []float64{2})
			c.Send(1, 7, []float64{3})
		} else {
			// Tag matching out of arrival order.
			d, src := c.RecvFloat64s(0, 7)
			if src != 0 || d[0] != 3 {
				t.Errorf("tag 7 payload %v from %d", d, src)
			}
			// FIFO per (source, tag).
			d, _ = c.RecvFloat64s(0, 5)
			if d[0] != 1 {
				t.Errorf("first tag-5 payload %v, want 1", d)
			}
			d, _ = c.RecvFloat64s(0, 5)
			if d[0] != 2 {
				t.Errorf("second tag-5 payload %v, want 2", d)
			}
		}
	})
}

func TestAnySource(t *testing.T) {
	const n = 5
	Run(n, func(c *Comm) {
		if c.Rank() == 0 {
			got := map[int]bool{}
			for i := 0; i < n-1; i++ {
				_, src := c.Recv(AnySource, 1)
				got[src] = true
			}
			if len(got) != n-1 {
				t.Errorf("received from %d distinct ranks, want %d", len(got), n-1)
			}
		} else {
			c.Send(0, 1, c.Rank())
		}
	})
}

func TestBarrier(t *testing.T) {
	const n = 8
	var counter int32
	Run(n, func(c *Comm) {
		atomic.AddInt32(&counter, 1)
		c.Barrier()
		if v := atomic.LoadInt32(&counter); v != n {
			t.Errorf("rank %d passed barrier with counter %d, want %d", c.Rank(), v, n)
		}
		c.Barrier()
	})
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 13} {
		for root := 0; root < n; root += 3 {
			Run(n, func(c *Comm) {
				var payload any
				if c.Rank() == root {
					payload = []float64{3.25, -1}
				}
				got := c.Bcast(root, payload).([]float64)
				if got[0] != 3.25 || got[1] != -1 {
					t.Errorf("n=%d root=%d rank=%d got %v", n, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		Run(n, func(c *Comm) {
			v := float64(c.Rank() + 1)
			want := float64(n * (n + 1) / 2)
			got := c.AllreduceFloat64(v, Sum[float64])
			if got != want {
				t.Errorf("n=%d rank %d: Allreduce sum = %v, want %v", n, c.Rank(), got, want)
			}
			m := c.AllreduceFloat64(v, Max[float64])
			if m != float64(n) {
				t.Errorf("n=%d rank %d: Allreduce max = %v, want %v", n, c.Rank(), m, float64(n))
			}
		})
	}
}

func TestAllreduceInt64Min(t *testing.T) {
	Run(6, func(c *Comm) {
		got := c.AllreduceInt64(int64(10-c.Rank()), Min[int64])
		if got != 5 {
			t.Errorf("rank %d: min = %d, want 5", c.Rank(), got)
		}
	})
}

func TestGatherAllgather(t *testing.T) {
	const n = 6
	Run(n, func(c *Comm) {
		data := c.Gather(2, c.Rank()*10)
		if c.Rank() == 2 {
			for r := 0; r < n; r++ {
				if data[r].(int) != r*10 {
					t.Errorf("Gather[%d] = %v, want %d", r, data[r], r*10)
				}
			}
		} else if data != nil {
			t.Errorf("rank %d: non-root Gather returned %v", c.Rank(), data)
		}
		all := c.Allgather(c.Rank() + 100)
		for r := 0; r < n; r++ {
			if all[r].(int) != r+100 {
				t.Errorf("Allgather[%d] = %v, want %d", r, all[r], r+100)
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	const n = 4
	Run(n, func(c *Comm) {
		bufs := make([]any, n)
		for dst := 0; dst < n; dst++ {
			bufs[dst] = c.Rank()*100 + dst
		}
		got := c.Alltoall(bufs)
		for src := 0; src < n; src++ {
			want := src*100 + c.Rank()
			if got[src].(int) != want {
				t.Errorf("rank %d: Alltoall[%d] = %v, want %d", c.Rank(), src, got[src], want)
			}
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]float64, 10))
			c.Send(1, 2, make([]byte, 3))
			st := c.Stats()
			if st.Sends != 2 {
				t.Errorf("Sends = %d, want 2", st.Sends)
			}
			if st.BytesSent != 83 {
				t.Errorf("BytesSent = %d, want 83", st.BytesSent)
			}
			c.ResetStats()
			if c.Stats().Sends != 0 {
				t.Error("ResetStats did not zero counters")
			}
		} else {
			c.Recv(0, 1)
			c.Recv(0, 2)
		}
	})
}

func TestRunValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run(0) did not panic")
		}
	}()
	Run(0, func(c *Comm) {})
}

func TestWorldRankOnWorld(t *testing.T) {
	Run(3, func(c *Comm) {
		if c.WorldRank() != c.Rank() {
			t.Errorf("world comm: WorldRank %d != Rank %d", c.WorldRank(), c.Rank())
		}
	})
}

func TestInvalidPeerPanics(t *testing.T) {
	Run(1, func(c *Comm) {
		mustPanic := func(name string, fn func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}
		mustPanic("send out of range", func() { c.Send(5, 1, nil) })
		mustPanic("recv out of range", func() { c.Recv(7, 1) })
		mustPanic("recv negative tag", func() { c.Recv(0, -9) })
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run did not propagate rank panic")
		}
	}()
	Run(3, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestInvalidUserTagPanics(t *testing.T) {
	Run(1, func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("negative user tag did not panic")
			}
		}()
		c.Send(0, -5, nil)
	})
}

// Many rounds of neighbor exchange on a ring must neither deadlock nor
// mismatch — the steady-state pattern of the ghost layer exchange.
func TestRingExchangeManyRounds(t *testing.T) {
	const n = 9
	const rounds = 200
	Run(n, func(c *Comm) {
		left := (c.Rank() + n - 1) % n
		right := (c.Rank() + 1) % n
		v := float64(c.Rank())
		for i := 0; i < rounds; i++ {
			c.Send(right, 3, []float64{v})
			d, _ := c.RecvFloat64s(left, 3)
			v = d[0]
		}
		// After n*k rounds the value returns to the origin; 200 = 22*9+2.
		want := float64((c.Rank() + n - rounds%n) % n)
		if v != want {
			t.Errorf("rank %d: value %v after %d rounds, want %v", c.Rank(), v, rounds, want)
		}
	})
}
