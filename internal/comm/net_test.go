package comm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"walberla/internal/testutil"
)

// fastNet returns socket-transport options tuned for tests: aggressive
// heartbeats so stall detection and reconnects resolve in milliseconds.
func fastNet() *NetOptions {
	return &NetOptions{HeartbeatEvery: 2 * time.Millisecond}
}

// TestNetTransportRing pushes typed float64 traffic around a ring over
// unix sockets and checks values, transport identity and frame counters.
func TestNetTransportRing(t *testing.T) {
	testutil.CheckLeaks(t)
	const n, steps = 4, 50
	RunWithOptions(n, Options{Net: fastNet()}, func(c *Comm) {
		if got := c.TransportName(); got != "unix" {
			t.Errorf("TransportName = %q, want unix", got)
		}
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		for step := 0; step < steps; step++ {
			// Fresh buffer per message: like Send, the payload is shared
			// with the runtime until delivered (and retained for resend), so
			// only a protocol like the ghost exchange's double-buffer
			// ownership may reuse buffers.
			buf := make([]float64, 8)
			for i := range buf {
				buf[i] = float64(c.Rank()*1000 + step + i)
			}
			if err := c.SendFloat64s(right, 7, buf); err != nil {
				t.Errorf("rank %d send: %v", c.Rank(), err)
				return
			}
			got, src := c.RecvFloat64s(left, 7)
			if src != left || len(got) != len(buf) {
				t.Errorf("rank %d: got %d floats from %d", c.Rank(), len(got), src)
				return
			}
			for i, v := range got {
				if want := float64(left*1000 + step + i); v != want {
					t.Errorf("rank %d step %d[%d]: got %v want %v", c.Rank(), step, i, v, want)
					return
				}
			}
		}
		stats, ok := c.NetStats()
		if !ok {
			t.Error("NetStats not available on socket transport")
			return
		}
		if stats.FramesSent < steps || stats.FramesRecv < steps {
			t.Errorf("rank %d: frames sent/recv %d/%d, want >= %d", c.Rank(), stats.FramesSent, stats.FramesRecv, steps)
		}
		if stats.Connects == 0 {
			t.Errorf("rank %d: no connects recorded", c.Rank())
		}
	})
}

// TestNetTransportTCP runs the same communicator semantics over loopback
// TCP instead of unix sockets.
func TestNetTransportTCP(t *testing.T) {
	testutil.CheckLeaks(t)
	RunWithOptions(3, Options{Net: &NetOptions{Network: "tcp", HeartbeatEvery: 2 * time.Millisecond}}, func(c *Comm) {
		if got := c.TransportName(); got != "tcp" {
			t.Errorf("TransportName = %q, want tcp", got)
		}
		sum := c.AllreduceInt64(int64(c.Rank()), func(a, b int64) int64 { return a + b })
		if sum != 3 {
			t.Errorf("rank %d: allreduce sum = %d, want 3", c.Rank(), sum)
		}
	})
}

// TestNetTransportPayloadKinds exercises every wire encoding: nil
// (barrier), bytes, int64 slices and scalars; a struct payload is refused
// at the sender, by a send and by a collective alike.
func TestNetTransportPayloadKinds(t *testing.T) {
	type opaque struct {
		Rank int
		Name string
	}
	const n = 3
	RunWithOptions(n, Options{Net: fastNet()}, func(c *Comm) {
		c.Barrier()
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		c.Send(next, 1, []byte{byte(c.Rank()), 0xab})
		c.Send(next, 2, []int64{int64(c.Rank()), -7})
		c.Send(next, 3, int64(c.Rank()*11))
		c.Send(next, 4, c.Rank()*13)
		c.Send(next, 5, float64(c.Rank())+0.5)
		if err := c.SendErr(next, 6, opaque{Rank: c.Rank(), Name: "hello"}); !errors.Is(err, ErrPayloadType) {
			t.Errorf("rank %d: struct send returned %v, want ErrPayloadType", c.Rank(), err)
		}

		if v, _ := c.Recv(prev, 1); v.([]byte)[0] != byte(prev) || v.([]byte)[1] != 0xab {
			t.Errorf("rank %d: bad []byte payload %v", c.Rank(), v)
		}
		if v, _ := c.Recv(prev, 2); v.([]int64)[0] != int64(prev) {
			t.Errorf("rank %d: bad []int64 payload %v", c.Rank(), v)
		}
		if v, _ := c.Recv(prev, 3); v.(int64) != int64(prev*11) {
			t.Errorf("rank %d: bad int64 payload %v", c.Rank(), v)
		}
		if v, _ := c.Recv(prev, 4); v.(int) != prev*13 {
			t.Errorf("rank %d: bad int payload %v", c.Rank(), v)
		}
		if v, _ := c.Recv(prev, 5); v.(float64) != float64(prev)+0.5 {
			t.Errorf("rank %d: bad float64 payload %v", c.Rank(), v)
		}
		if _, err := c.AllgatherErr(opaque{Rank: c.Rank(), Name: "g"}); !errors.Is(err, ErrPayloadType) {
			t.Errorf("rank %d: struct allgather returned %v, want ErrPayloadType", c.Rank(), err)
		}
		c.Barrier()
		if p := c.MailboxStats().Pending; p != 0 {
			t.Errorf("rank %d: %d messages pending, want none of the refused payloads", c.Rank(), p)
		}
	})
}

// contractRows is the payload contract as a table: the seven kinds
// round-trip, anything else is refused at the sender.
var contractRows = []struct {
	name string
	data any
	ok   bool
}{
	{"nil", nil, true},
	{"bytes", []byte{1, 2, 0xab}, true},
	{"float64s", []float64{1.5, -2, math.Inf(-1)}, true},
	{"int64s", []int64{-7, 1 << 40}, true},
	{"int64", int64(-42), true},
	{"int", 1 << 33, true},
	{"float64", math.Pi, true},
	{"struct", struct{ Rank int }{1}, false},
	{"pointer", &struct{ Rank int }{1}, false},
	{"map", map[int]int{1: 2}, false},
	{"int32s", []int32{1, 2}, false},
	{"uint64", uint64(1), false},
	{"string", "hello", false},
}

// TestPayloadContract runs the contract table through both transports:
// they must accept and refuse the same payloads, with the same typed
// error naming the refused type, and Send panics with that error.
func TestPayloadContract(t *testing.T) {
	for _, tr := range []struct {
		name string
		net  *NetOptions
	}{{"inproc", nil}, {"unix", fastNet()}} {
		t.Run(tr.name, func(t *testing.T) {
			RunWithOptions(2, Options{Net: tr.net}, func(c *Comm) {
				for tag, row := range contractRows {
					if c.Rank() == 1 {
						if row.ok {
							if got, _ := c.Recv(0, tag); !reflect.DeepEqual(got, row.data) {
								t.Errorf("%s: received %#v, want %#v", row.name, got, row.data)
							}
						}
						continue
					}
					err := c.SendErr(1, tag, row.data)
					var pe *PayloadError
					if row.ok && err != nil {
						t.Errorf("%s: %v", row.name, err)
					}
					if !row.ok && (!errors.As(err, &pe) || !errors.Is(err, ErrPayloadType) || pe.Type != fmt.Sprintf("%T", row.data)) {
						t.Errorf("%s: got %v, want a *PayloadError naming %T", row.name, err, row.data)
					}
				}
				if c.Rank() == 0 {
					func() {
						defer func() {
							if err, _ := recover().(error); !errors.Is(err, ErrPayloadType) {
								t.Errorf("Send of a string panicked with %v, want ErrPayloadType", err)
							}
						}()
						c.Send(1, 0, "hello")
					}()
				}
				c.Barrier()
				if p := c.MailboxStats().Pending; p != 0 {
					t.Errorf("rank %d: %d messages pending after the table", c.Rank(), p)
				}
			})
		})
	}
}

// TestPayloadAboveFrameBound sends a 64 MiB []byte, many times what one
// frame holds, between two small messages over unix: it crosses as
// consecutive frames and arrives intact and in stream order. In the
// "sever" case the link is cut at the second piece, so the pieces are
// replayed over a reconnect and the reader joins them across socket
// generations.
func TestPayloadAboveFrameBound(t *testing.T) {
	big := make([]byte, 64<<20+3)
	frames := int64(2 + (len(big)+defaultMaxFrameBytes-1)/defaultMaxFrameBytes)
	for i := range big {
		big[i] = byte(i*7 + i>>16)
	}
	for _, tc := range []struct {
		name   string
		faults *FaultPlan
	}{
		{"clean", nil},
		{"sever", &FaultPlan{Severs: []SeverSpec{{From: 0, To: 1, AtFrame: 3}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				RunWithOptions(2, Options{Net: fastNet(), Faults: tc.faults}, func(c *Comm) {
					if c.Rank() == 0 {
						c.Send(1, 1, []byte{6})
						c.Send(1, 1, big)
						c.Send(1, 1, []byte{7})
						if ns, _ := c.NetStats(); tc.faults != nil && ns.InjectedSevers != 1 {
							t.Errorf("%d severs injected, want 1", ns.InjectedSevers)
						}
						return
					}
					for _, want := range [][]byte{{6}, big, {7}} {
						if v, _ := c.Recv(0, 1); !bytes.Equal(v.([]byte), want) {
							t.Errorf("received %d bytes, want %d intact", len(v.([]byte)), len(want))
						}
					}
					if ns, _ := c.NetStats(); ns.FramesRecv != frames || ns.BytesRecv < int64(len(big)) {
						t.Errorf("%d frames and %d bytes received, want %d frames carrying the %d-byte payload", ns.FramesRecv, ns.BytesRecv, frames, len(big))
					}
				})
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("the payload above the frame bound never arrived")
			}
		})
	}
}

// exerciseFaultyNet runs steady ring traffic under a fault plan and
// asserts every value still arrives intact and in order — transient wire
// faults must be fully absorbed by retention, reconnect and resend. It
// returns every rank's socket counters and the world's stalled sends.
func exerciseFaultyNet(t *testing.T, n, steps int, plan *FaultPlan) (all []NetStats, delayed int64) {
	t.Helper()
	var mu sync.Mutex
	all = make([]NetStats, n)
	RunWithOptions(n, Options{Net: fastNet(), Faults: plan, FailTimeout: 20 * time.Second}, func(c *Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		for step := 0; step < steps; step++ {
			buf := make([]float64, 4)
			for i := range buf {
				buf[i] = float64(c.Rank()*100000 + step*10 + i)
			}
			if err := c.SendFloat64s(right, 9, buf); err != nil {
				t.Errorf("rank %d send: %v", c.Rank(), err)
				return
			}
			got, _ := c.RecvFloat64s(left, 9)
			for i, v := range got {
				if want := float64(left*100000 + step*10 + i); v != want {
					t.Errorf("rank %d step %d[%d]: got %v want %v", c.Rank(), step, i, v, want)
					return
				}
			}
		}
		c.Barrier()
		s, _ := c.NetStats()
		mu.Lock()
		all[c.WorldRank()] = s
		delayed += c.Stats().Delayed
		mu.Unlock()
	})
	return all, delayed
}

// total sums one counter over every rank's socket statistics.
func total(all []NetStats, f func(NetStats) int64) int64 {
	var s int64
	for _, st := range all {
		s += f(st)
	}
	return s
}

// TestNetTransportDropsAbsorbed injects deterministic frame drops; the
// gap/heartbeat detectors must recover every one via reconnect + resend
// with zero effect on delivered values.
func TestNetTransportDropsAbsorbed(t *testing.T) {
	all, _ := exerciseFaultyNet(t, 3, 40, &FaultPlan{Seed: 42, Drop: 0.05})
	if total(all, func(s NetStats) int64 { return s.InjectedDrops }) == 0 {
		t.Error("plan injected no drops — fault path untested")
	}
	if total(all, func(s NetStats) int64 { return s.ResentFrames }) == 0 {
		t.Error("drops recovered without any resends?")
	}
	if total(all, func(s NetStats) int64 { return s.Reconnects }) == 0 {
		t.Error("drops recovered without any reconnects?")
	}
}

// TestNetTransportCorruptionAbsorbed injects checksum corruption; the CRC
// must reject the frames and the resend path must deliver clean copies.
func TestNetTransportCorruptionAbsorbed(t *testing.T) {
	all, _ := exerciseFaultyNet(t, 3, 40, &FaultPlan{Seed: 7, Corrupt: 0.05})
	if total(all, func(s NetStats) int64 { return s.InjectedCorrupts }) == 0 {
		t.Error("plan injected no corruption — fault path untested")
	}
	if total(all, func(s NetStats) int64 { return s.ChecksumErrors }) == 0 {
		t.Error("injected corruption never tripped the CRC check")
	}
}

// TestNetTransportSeverAndRefusal severs live sockets mid-stream and
// refuses the first reconnect attempts, exercising the capped-backoff
// redial path end to end.
func TestNetTransportSeverAndRefusal(t *testing.T) {
	testutil.CheckLeaks(t)
	all, _ := exerciseFaultyNet(t, 2, 30, &FaultPlan{
		Seed:     3,
		Severs:   []SeverSpec{{From: 0, To: 1, AtFrame: 5}, {From: 1, To: 0, AtFrame: 11}},
		Refusals: []RefuseSpec{{From: 0, To: 1, Count: 2}},
	})
	if severs := total(all, func(s NetStats) int64 { return s.InjectedSevers }); severs != 2 {
		t.Errorf("injected severs = %d, want 2", severs)
	}
	if reconnects := total(all, func(s NetStats) int64 { return s.Reconnects }); reconnects < 2 {
		t.Errorf("reconnects = %d, want >= 2", reconnects)
	}
}

// TestNetResendBothWays severs both directions of a pair before their
// first frame, so each end retains megabytes for the other when the link
// comes back. Each end must read while it resends: an end that replays
// its backlog before its reader starts fills the socket the other end is
// replaying into, and the pair redials forever.
func TestNetResendBothWays(t *testing.T) {
	const frames, size = 4, 1 << 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		plan := &FaultPlan{Severs: []SeverSpec{{From: 0, To: 1, AtFrame: 1}, {From: 1, To: 0, AtFrame: 1}}}
		RunWithOptions(2, Options{Net: fastNet(), Faults: plan}, func(c *Comm) {
			peer := 1 - c.Rank()
			for i := 0; i < frames; i++ {
				c.Send(peer, i, bytes.Repeat([]byte{byte(c.Rank())}, size))
			}
			for i := 0; i < frames; i++ {
				if v, _ := c.Recv(peer, i); len(v.([]byte)) != size || v.([]byte)[size-1] != byte(peer) {
					t.Errorf("rank %d: frame %d from rank %d is wrong", c.Rank(), i, peer)
				}
			}
			c.Barrier()
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("the retained frames of both directions never arrived")
	}
}

// TestNetTransportDelay injects write stalls; traffic must simply be
// slower, never wrong.
func TestNetTransportDelay(t *testing.T) {
	if _, delayed := exerciseFaultyNet(t, 2, 30, &FaultPlan{Seed: 9, Delay: 0.1, MaxDelay: 2 * time.Millisecond}); delayed == 0 {
		t.Error("plan injected no delays — fault path untested")
	}
}

// TestDelayedFramesCrossTheWire: a stalled message is still a frame on the
// socket — every send of a fully stalled stream is written exactly once.
func TestDelayedFramesCrossTheWire(t *testing.T) {
	const sends = 20
	opts := Options{
		Net:    &NetOptions{Network: "unix"},
		Faults: &FaultPlan{Seed: 7, Delay: 1, MaxDelay: time.Millisecond},
	}
	RunWithOptions(2, opts, func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 1, 0) // the link is up before rank 0 sends
			for i := 0; i < sends; i++ {
				c.Recv(0, 2)
			}
			c.Send(0, 3, 0)
			return
		}
		c.Recv(1, 1)
		for i := 0; i < sends; i++ {
			c.Send(1, 2, i)
		}
		c.Recv(1, 3)
		s, _ := c.NetStats()
		if s.FramesSent != sends || c.Stats().Delayed != sends {
			t.Errorf("%d stalled sends wrote %d frames (%d stalls counted, %d reconnects)",
				sends, s.FramesSent, c.Stats().Delayed, s.Reconnects)
		}
	})
}

// TestNetTransportHangAccusation hangs rank 2 mid-run and checks the
// connection-level detector accuses exactly that rank within FailTimeout,
// surfacing the typed timeout-cause RankFailedError on the survivors.
func TestNetTransportHangAccusation(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 3
	const failTimeout = 300 * time.Millisecond
	opts := Options{
		Net:         fastNet(),
		Faults:      &FaultPlan{Hangs: []CrashSpec{{Rank: 2, Step: 4}}},
		FailTimeout: failTimeout,
	}
	var mu sync.Mutex
	detect := make([]time.Duration, 0, n)
	accusedSet := make(map[int]bool)
	RunWithOptions(n, opts, func(c *Comm) {
		defer recoverHang(t, c, c.Rank() == 2)
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		start := time.Now()
		var failure *RankFailedError
		for step := 0; step < 1000; step++ {
			c.SetStep(step)
			if err := c.SendFloat64s(right, 1, []float64{float64(step)}); err != nil {
				if !errors.As(err, &failure) {
					t.Errorf("rank %d: untyped send error %v", c.Rank(), err)
				}
				break
			}
			if _, _, err := c.RecvFloat64sErr(left, 1); err != nil {
				if !errors.As(err, &failure) {
					t.Errorf("rank %d: untyped recv error %v", c.Rank(), err)
				}
				break
			}
		}
		elapsed := time.Since(start)
		if failure == nil {
			t.Errorf("rank %d: hang never surfaced as a failure", c.Rank())
			return
		}
		if !failure.TimedOut() {
			t.Errorf("rank %d: accusation %v not marked as timeout", c.Rank(), failure)
		}
		mu.Lock()
		detect = append(detect, elapsed)
		accusedSet[failure.Rank] = true
		mu.Unlock()
	})
	if len(accusedSet) != 1 || !accusedSet[2] {
		t.Errorf("accused set = %v, want exactly rank 2", accusedSet)
	}
	// The transport must detect the silence within FailTimeout of it
	// starting (generous wall-clock envelope: traffic until the hang plus
	// the detection window plus scheduling slack).
	for _, d := range detect {
		if d > 8*failTimeout {
			t.Errorf("detection took %v, want well under %v", d, 8*failTimeout)
		}
	}
}

// TestNetTransportMarkDeadStopsReconnects checks noteDead: after the
// survivors mark a silent rank dead, its connections close permanently
// and the surviving pair keeps communicating over its own link.
func TestNetTransportMarkDeadStopsReconnects(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 3
	opts := Options{
		Net:         fastNet(),
		Faults:      &FaultPlan{Hangs: []CrashSpec{{Rank: 2, Step: 0}}},
		FailTimeout: 200 * time.Millisecond,
	}
	RunWithOptions(n, opts, func(c *Comm) {
		if c.Rank() == 2 {
			// The victim hangs at once; the survivors mark it dead.
			defer recoverHang(t, c, true)
			c.SetStep(0)
			return
		}
		// Survivors: trip the failure detector by awaiting the victim.
		_, _, err := c.RecvFloat64sErr(2, 1)
		var rfe *RankFailedError
		if !errors.As(err, &rfe) {
			t.Errorf("rank %d: expected rank failure, got %v", c.Rank(), err)
			return
		}
		c.MarkDead(2)
		c.Recover()
		sub, rankMap := c.Shrink()
		if sub == nil || sub.Size() != 2 {
			t.Errorf("rank %d: shrink produced %v (map %v)", c.Rank(), sub, rankMap)
			return
		}
		// The surviving pair must still talk over its (possibly recycled)
		// socket after the shrink.
		peer := 1 - sub.Rank()
		if err := sub.SendFloat64s(peer, 3, []float64{float64(sub.Rank())}); err != nil {
			t.Errorf("rank %d: post-shrink send: %v", c.Rank(), err)
			return
		}
		got, _, err := sub.RecvFloat64sErr(peer, 3)
		if err != nil || got[0] != float64(peer) {
			t.Errorf("rank %d: post-shrink recv = %v, %v", c.Rank(), got, err)
		}
	})
}

// TestNetTransportBackpressure floods one direction past the retention
// ring's capacity: senders must block (not fail, not drop) until acks
// free ring space.
func TestNetTransportBackpressure(t *testing.T) {
	RunWithOptions(2, Options{Net: fastNet()}, func(c *Comm) {
		const msgs = 4 * retainFrames
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.SendFloat64s(1, 5, []float64{float64(i)}); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
		} else {
			time.Sleep(20 * time.Millisecond) // let the ring fill
			for i := 0; i < msgs; i++ {
				got, _ := c.RecvFloat64s(0, 5)
				if got[0] != float64(i) {
					t.Errorf("recv %d: got %v", i, got[0])
					return
				}
			}
		}
	})
}

// TestBackpressureUnblocksOnFailure: a sender blocked on the full
// retention ring of a silent peer must not hang — the failure declaration
// aborts the send with an error. The hung rank acknowledges nothing, so
// the ring fills and stays full until the detector accuses it.
func TestBackpressureUnblocksOnFailure(t *testing.T) {
	opts := Options{
		Net:         fastNet(),
		Faults:      &FaultPlan{Hangs: []CrashSpec{{Rank: 1, Step: 0}}},
		FailTimeout: 200 * time.Millisecond,
	}
	RunWithOptions(2, opts, func(c *Comm) {
		if c.Rank() == 1 {
			defer recoverHang(t, c, true)
			c.SetStep(0)
			return
		}
		var err error
		for i := 0; i < 4*retainFrames && err == nil; i++ {
			err = c.SendFloat64s(1, 1, []float64{float64(i)})
		}
		if !IsRankFailure(err) {
			t.Errorf("blocked sender got %v, want rank failure", err)
		}
		if c.Stats().BackpressureWait <= 0 {
			t.Error("the sender never blocked on the retention ring")
		}
	})
}

// TestNetOptionsValidate: Options.Validate, the one check of a world's
// options, rejects what cannot run.
func TestNetOptionsValidate(t *testing.T) {
	unix := &NetOptions{Network: "unix"}
	cases := []struct {
		name string
		opts Options
	}{
		{"bad network", Options{Net: &NetOptions{Network: "udp"}}},
		{"addr count", Options{Net: &NetOptions{Network: "tcp", Addrs: []string{"127.0.0.1:0"}}}},
		{"bad fault fraction", Options{Net: unix, Faults: &FaultPlan{Drop: 1.5}}},
		{"delay without a bound", Options{Faults: &FaultPlan{Delay: 0.5}}},
		{"crash rank", Options{Faults: &FaultPlan{Crashes: []CrashSpec{{Rank: 2}}}}},
		{"negative hang step", Options{Faults: &FaultPlan{Hangs: []CrashSpec{{Rank: 1, Step: -1}}}}},
		{"sever self", Options{Net: unix, Faults: &FaultPlan{Severs: []SeverSpec{{From: 1, To: 1, AtFrame: 1}}}}},
		{"sever frame zero", Options{Net: unix, Faults: &FaultPlan{Severs: []SeverSpec{{From: 0, To: 1}}}}},
		{"refusal rank", Options{Net: unix, Faults: &FaultPlan{Refusals: []RefuseSpec{{From: 0, To: 9, Count: 1}}}}},
		{"drop clause on inproc is rejected", Options{Faults: &FaultPlan{Drop: 0.1}}},
		{"sever clause on inproc is rejected", Options{Faults: &FaultPlan{Severs: []SeverSpec{{From: 0, To: 1, AtFrame: 1}}}}},
		{"negative fail timeout", Options{FailTimeout: -time.Second}},
		{"negative heartbeat", Options{Net: &NetOptions{Network: "unix", HeartbeatEvery: -5 * time.Millisecond}}},
	}
	for _, tc := range cases {
		if err := tc.opts.Validate(2); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.opts)
		}
	}
	for _, ok := range []Options{
		{},
		{Net: &NetOptions{}},
		{Faults: &FaultPlan{Delay: 0.5, MaxDelay: time.Millisecond, Hangs: []CrashSpec{{Rank: 1}}}},
		{Net: unix, Faults: &FaultPlan{Drop: 0.1, Corrupt: 0.1, Severs: []SeverSpec{{From: 0, To: 1, AtFrame: 1}}}},
	} {
		if err := ok.Validate(2); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
}

// TestNetStatsInproc checks NetStats degrades gracefully on backend zero.
func TestNetStatsInproc(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.TransportName() != "inproc" {
			t.Errorf("TransportName = %q, want inproc", c.TransportName())
		}
		if _, ok := c.NetStats(); ok {
			t.Error("NetStats reported ok on the in-process backend")
		}
	})
}

// TestNetTransportManyRanks smoke-tests a wider world (one listener and
// n-1 connections per rank) with an alltoall.
func TestNetTransportManyRanks(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 7
	RunWithOptions(n, Options{Net: fastNet()}, func(c *Comm) {
		bufs := make([]any, n)
		for i := range bufs {
			bufs[i] = []byte(fmt.Sprintf("%d->%d", c.Rank(), i))
		}
		got := c.Alltoall(bufs)
		for i, g := range got {
			if want := fmt.Sprintf("%d->%d", i, c.Rank()); string(g.([]byte)) != want {
				t.Errorf("rank %d: alltoall[%d] = %v, want %s", c.Rank(), i, g, want)
			}
		}
	})
}

// TestRecvRingNeverOverwritesHeldBuffer pins the receive-buffer contract:
// a slice returned by RecvFloat64s stays intact until the consumer takes
// the stream's next message, however many later messages the reader has
// deposited meanwhile. One-way stream without application back-pressure:
// rank 1 takes message 0, then messages 1..3 arrive — as many as the
// rotation holds — while it still holds message 0.
func TestRecvRingNeverOverwritesHeldBuffer(t *testing.T) {
	testutil.CheckLeaks(t)
	const msgs, width = 4, 16
	value := func(m, i int) float64 { return float64(1000*m + i) }
	check := func(m int, got []float64) {
		for i, v := range got {
			if v != value(m, i) {
				t.Errorf("message %d[%d] = %v, want %v", m, i, v, value(m, i))
				return
			}
		}
	}
	RunWithOptions(2, Options{Net: fastNet()}, func(c *Comm) {
		if c.Rank() == 0 {
			for m := 0; m < msgs; m++ {
				buf := make([]float64, width)
				for i := range buf {
					buf[i] = value(m, i)
				}
				if err := c.SendFloat64s(1, 5, buf); err != nil {
					t.Errorf("send %d: %v", m, err)
				}
				if m == 0 {
					c.Recv(1, 6) // rank 1 holds message 0 from here on
				}
			}
			return
		}
		held, _ := c.RecvFloat64s(0, 5)
		c.Send(0, 6, 0)
		for c.MailboxStats().Pending < msgs-1 {
			time.Sleep(time.Millisecond)
		}
		check(0, held)
		for m := 1; m < msgs; m++ {
			got, _ := c.RecvFloat64s(0, 5)
			check(m, got)
		}
	})
}
