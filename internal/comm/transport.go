package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The communicator is abstracted over a Transport: the component that
// moves a stamped message from the sending rank to the destination rank's
// mailbox. Backend zero is the original in-process channel world (the
// sender deposits directly into the receiver's mailbox); the socket
// backend (net.go) pushes every message through a real length-prefixed,
// checksummed wire protocol over TCP or unix-domain sockets. Each backend
// owns exactly one failure detector, which accuses a rank only when that
// rank's own beat has been missing for Options.FailTimeout: the in-process
// watchdog, or the socket transport's connection supervisors. The fault
// plan's wire clauses apply inside deliver, on both backends; everything
// above it — matching, collectives, recovery — is transport-agnostic.

// transport moves stamped messages between world ranks.
type transport interface {
	// name identifies the backend ("inproc", "tcp", "unix").
	name() string
	// deliver moves msg, whose payload classifyPayload mapped to enc and
	// body, from world rank src into dst's mailbox, applying the fault
	// plan's wire clauses on the way: an injected stall holds the sender
	// (stalled), and the socket backend also blocks on a full retention
	// ring (waited, the time spent blocked).
	deliver(src, dst int, msg message, enc payloadEnc, body []byte) (waited time.Duration, stalled bool, err error)
	// noteDead tells the transport a world rank is permanently dead:
	// connections to it are closed, reconnect attempts stop and retained
	// frames toward it are shed.
	noteDead(worldRank int)
	// onFailure wakes transport-internal waiters (ring-full blocked
	// senders) so they observe a declared rank failure.
	onFailure()
	// silence stops a world rank's beat, as a hung node's stops: the
	// transport's failure detector accuses it once FailTimeout passes. The
	// one thing an injected hang does to the transport.
	silence(worldRank int)
	// shutdown tears the transport down after the run (listeners, sockets,
	// background goroutines).
	shutdown()
}

// inprocTransport is backend zero: the classic shared-memory mailbox
// deposit, allocation-free like the rest of the in-process send path. A
// rank in process beats implicitly for as long as it is not silenced; with
// a FailTimeout set, one watchdog goroutine accuses a rank silent for
// longer than that.
type inprocTransport struct {
	w *world
	// sent numbers the messages of each directed stream src→dst (index
	// src*size+dst) for the fault plan's decisions; nil without a plan.
	sent []atomic.Uint64
	// silentSince is the UnixNano time each world rank was silenced, 0
	// while it beats (and again once it is dead: nothing left to accuse).
	silentSince []atomic.Int64
	done        chan struct{}
	wg          sync.WaitGroup
}

func newInprocTransport(w *world) *inprocTransport {
	t := &inprocTransport{w: w, silentSince: make([]atomic.Int64, w.size), done: make(chan struct{})}
	if w.opts.Faults != nil {
		t.sent = make([]atomic.Uint64, w.size*w.size)
	}
	if ft := w.opts.FailTimeout; ft > 0 {
		t.wg.Add(1)
		go t.watch(ft)
	}
	return t
}

func (t *inprocTransport) name() string { return "inproc" }

// deliver deposits msg, after an injected stall if the plan draws one for
// this cross-rank message. The stall holds the sender, so the stream stays
// in send order; a recovery completing meanwhile sheds the message.
func (t *inprocTransport) deliver(src, dst int, msg message, _ payloadEnc, _ []byte) (time.Duration, bool, error) {
	epoch := t.w.epoch.Load()
	var stalled bool
	if p := t.w.opts.Faults; p != nil && src != dst {
		var d time.Duration
		if d, stalled = p.stall(src, dst, t.sent[src*t.w.size+dst].Add(1)); stalled {
			time.Sleep(d)
		}
	}
	t.w.mailboxes[dst].put(msg, epoch)
	return 0, stalled, nil
}

func (t *inprocTransport) silence(rank int) { t.silentSince[rank].Store(time.Now().UnixNano()) }

func (t *inprocTransport) noteDead(rank int) { t.silentSince[rank].Store(0) }
func (t *inprocTransport) onFailure()        {}

func (t *inprocTransport) shutdown() {
	close(t.done)
	t.wg.Wait()
}

// watch is the in-process failure detector: while no failure is declared,
// it accuses the first rank whose beat has been missing for ft.
func (t *inprocTransport) watch(ft time.Duration) {
	defer t.wg.Done()
	tick := time.NewTicker(max(ft/4, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
		}
		if t.w.failure.Load() != nil {
			continue
		}
		for r := range t.silentSince {
			if since := t.silentSince[r].Load(); since != 0 && time.Since(time.Unix(0, since)) > ft {
				t.w.declareFailure(&RankFailedError{
					Rank:  r,
					Cause: fmt.Sprintf("%srank %d's beat missing for %v", timeoutCausePrefix, r, ft),
				})
				break
			}
		}
	}
}

// NetOptions selects and configures the socket transport. The zero value
// of every field picks a sensible default; Options.Net == nil selects the
// in-process backend.
type NetOptions struct {
	// Network is the socket flavor: "tcp" (loopback TCP) or "unix"
	// (unix-domain stream sockets, the default).
	Network string
	// Addrs optionally pins one listen address per world rank (length must
	// equal the world size). Empty selects ephemeral loopback addresses
	// ("127.0.0.1:0") or temp-dir unix socket paths.
	Addrs []string
	// HeartbeatEvery is the idle-liveness probe interval of every
	// connection; heartbeats also carry the cumulative acks and the
	// sender's last data sequence, so dropped stream tails are detected
	// within one interval. A connection with no inbound bytes for six
	// intervals is torn down and redialed. Default 20ms.
	HeartbeatEvery time.Duration
}

// Fixed socket-transport parameters.
const (
	// stallBeats is the per-connection silence threshold in heartbeat
	// intervals.
	stallBeats = 6
	// reconnectBase and reconnectMax bound the capped exponential backoff
	// between reconnect attempts.
	reconnectBase = time.Millisecond
	reconnectMax  = 100 * time.Millisecond
	// retainFrames is the per-connection retention ring capacity: unacked
	// data frames kept for idempotent resend. A full ring blocks the
	// sender (end-to-end backpressure).
	retainFrames = 512
)

// withDefaults resolves the zero-value fields.
func (o NetOptions) withDefaults() NetOptions {
	if o.Network == "" {
		o.Network = "unix"
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 20 * time.Millisecond
	}
	return o
}

// TransportName reports the backend moving this communicator's messages:
// "inproc", "tcp" or "unix".
func (c *Comm) TransportName() string { return c.w.transport.name() }

// NetStats is one rank's socket-transport counters. All fields are
// lifetime totals of the rank's endpoint (all its connections).
type NetStats struct {
	// FramesSent and FramesRecv count data frames written to and accepted
	// off the wire (heartbeats and handshakes excluded).
	FramesSent int64
	FramesRecv int64
	// BytesSent and BytesRecv count frame bytes including headers.
	BytesSent int64
	BytesRecv int64
	// Heartbeats counts liveness probes written.
	Heartbeats int64
	// Connects counts established connections (initial dials and accepts);
	// Reconnects counts re-establishments after a teardown.
	Connects   int64
	Reconnects int64
	// ResentFrames counts retained data frames replayed after reconnect
	// handshakes; DupFrames counts received frames discarded as already
	// delivered; Gaps counts sequence gaps that forced a teardown.
	ResentFrames int64
	DupFrames    int64
	Gaps         int64
	// ChecksumErrors counts frames rejected by the CRC check.
	ChecksumErrors int64
	// Accusals counts rank failures this endpoint declared from stalled
	// connections.
	Accusals int64
	// InjectedDrops/Corrupts/Severs count the fault plan's frame faults
	// taken on this endpoint's outgoing streams (stalls count in
	// Stats.Delayed, as on every transport).
	InjectedDrops    int64
	InjectedCorrupts int64
	InjectedSevers   int64
}

// NetStats returns this rank's socket-transport counters; ok is false on
// the in-process backend.
func (c *Comm) NetStats() (stats NetStats, ok bool) {
	nt, isNet := c.w.transport.(*netTransport)
	if !isNet {
		return NetStats{}, false
	}
	return nt.endpoints[c.WorldRank()].snapshot(), true
}
