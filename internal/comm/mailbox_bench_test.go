package comm

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Regression benchmarks for the mailbox matching fast path: the common
// receive — exact (source, tag), the shape of every ghost-layer exchange
// message — must stay O(1) in the number of unrelated pending messages,
// so the fault-injection bookkeeping wrapped around put/take cannot
// silently reintroduce the old O(n) scan.

// benchMailbox builds a mailbox preloaded with backlog messages spread
// over distinct (source, tag) keys that the benchmarked receive never
// matches.
func benchMailbox(backlog int) *mailbox {
	m := newMailbox(new(atomic.Int64))
	for i := 0; i < backlog; i++ {
		m.put(message{ctx: 0, source: 1 + i%7, tag: 100 + i/7, data: i}, 0)
	}
	return m
}

func noBail() error { return nil }

func BenchmarkMailboxExactMatch(b *testing.B) {
	for _, backlog := range []int{0, 100, 10000} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			m := benchMailbox(backlog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.put(message{ctx: 0, source: 0, tag: 1, data: i}, 0)
				if _, err := m.take(0, 0, 1, noBail); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMailboxWildcardSource(b *testing.B) {
	// Wildcard matching scans queue heads (one per distinct key), not
	// every pending message.
	for _, backlog := range []int{100, 10000} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			m := benchMailbox(backlog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.put(message{ctx: 0, source: 0, tag: 1, data: i}, 0)
				if _, err := m.take(0, AnySource, 1, noBail); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSendRecvRoundtrip measures the end-to-end p2p latency through
// the full Comm path (stats, fault hooks disabled) — the number the
// fault-injection wrapping must not regress.
func BenchmarkSendRecvRoundtrip(b *testing.B) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			for i := 0; i < b.N; i++ {
				c.Send(1, 1, buf)
				c.Recv(1, 2)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 1)
				c.Send(0, 2, true)
			}
		}
	})
}

// BenchmarkSendRecvRoundtripFaultPlan is the same roundtrip with an
// armed (but never-firing) fault plan: the deterministic decision hashing
// must add only nanoseconds.
func BenchmarkSendRecvRoundtripFaultPlan(b *testing.B) {
	opts := Options{Faults: &FaultPlan{Seed: 1, Delay: 0,
		Crashes: []CrashSpec{{Rank: 0, Step: 1 << 30}}}}
	RunWithOptions(2, opts, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			for i := 0; i < b.N; i++ {
				c.Send(1, 1, buf)
				c.Recv(1, 2)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 1)
				c.Send(0, 2, true)
			}
		}
	})
}
