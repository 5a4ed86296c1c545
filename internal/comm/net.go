package comm

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Socket transport: the same communicator semantics as the in-process
// backend, but every cross-rank message crosses a real stream socket as a
// checksummed, sequence-numbered frame (frame.go). Ranks remain goroutines
// of one process — the data plane is real (loopback TCP or unix-domain
// sockets, kernel buffering, partial reads, connection loss), while the
// recovery control plane (Recover, MarkDead, the epoch counter) stays
// shared memory, modeling the out-of-band runtime service a multi-process
// deployment would use. See docs/TRANSPORT.md.
//
// Topology: one persistent duplex connection per rank pair; the lower rank
// dials, the higher rank accepts. Connections start down — senders never
// wait for a connection: frames are retained in a per-connection ring and
// replayed when the link (re)establishes, so "connect refused at startup",
// a mid-run sever and an injected drop all ride the same idempotent-resend
// path. Failure detection is connection-level and is this transport's
// only accuser: heartbeats and read deadlines spot a silent peer,
// reconnects back off exponentially, and a peer whose beat has been
// missing past FailTimeout is accused through the ordinary
// RankFailedError machinery so buddy restore + Shrink work unchanged.

// errTransportClosed aborts transport-internal waits at shutdown.
var errTransportClosed = &RankFailedError{Rank: -1, Cause: "transport closed"}

// emptyF64 marks a zero-length typed float64 payload after decode (the
// f64 field must be non-nil to select the typed receive path).
var emptyF64 = make([]float64, 0)

// netTransport is the socket backend: one endpoint (listener + connection
// set) per world rank, all inside this process.
type netTransport struct {
	w         *world
	opts      NetOptions
	endpoints []*netEndpoint
	addrs     []string // resolved listen address per rank
	// stallAfter is the per-connection silence threshold, stallBeats
	// heartbeat intervals.
	stallAfter time.Duration

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
	tmpDir string // owned unix-socket directory, "" for tcp/pinned addrs
}

// netCounters are one endpoint's lifetime statistics (NetStats mirrors
// them). All atomics: they are bumped from driver, supervisor and reader
// goroutines alike.
type netCounters struct {
	framesSent, framesRecv           atomic.Int64
	bytesSent, bytesRecv             atomic.Int64
	heartbeats, connects, reconnects atomic.Int64
	resent, dups, gaps, checksumErrs atomic.Int64
	accusals                         atomic.Int64
	injDrops, injCorrupts, injSevers atomic.Int64
}

// netEndpoint is one world rank's side of the transport.
type netEndpoint struct {
	t     *netTransport
	rank  int
	ln    net.Listener
	conns []*netConn // by peer world rank, nil at own index

	// dead marks the rank permanently removed (MarkDead): its listener is
	// closed and every connection involving it is shut for good.
	dead atomic.Bool

	// silent marks the endpoint of a hung rank (silence): its supervisors
	// stop — no heartbeats, redials or accusations — inbound frames are
	// drained but ignored and handshakes refused, so its peers see its
	// beat stop exactly as a hung node's would.
	silent atomic.Bool

	stats netCounters
	tel   atomic.Pointer[netTel]
}

func (ep *netEndpoint) isSilent() bool { return ep.silent.Load() }

// snapshot copies the endpoint counters into the public NetStats form.
func (ep *netEndpoint) snapshot() NetStats {
	s := &ep.stats
	return NetStats{
		FramesSent: s.framesSent.Load(), FramesRecv: s.framesRecv.Load(),
		BytesSent: s.bytesSent.Load(), BytesRecv: s.bytesRecv.Load(),
		Heartbeats: s.heartbeats.Load(),
		Connects:   s.connects.Load(), Reconnects: s.reconnects.Load(),
		ResentFrames: s.resent.Load(), DupFrames: s.dups.Load(), Gaps: s.gaps.Load(),
		ChecksumErrors: s.checksumErrs.Load(), Accusals: s.accusals.Load(),
		InjectedDrops: s.injDrops.Load(), InjectedCorrupts: s.injCorrupts.Load(),
		InjectedSevers: s.injSevers.Load(),
	}
}

// newNetTransport builds listeners, connection state and background
// goroutines for a world of w.size ranks. All listeners exist before any
// rank runs, so a dial hitting "connection refused" means fault injection
// (or a dead rank), not a startup race — though the dialer retries with
// backoff either way.
func newNetTransport(w *world, opts NetOptions) (*netTransport, error) {
	opts = opts.withDefaults()
	t := &netTransport{
		w: w, opts: opts, done: make(chan struct{}),
		endpoints:  make([]*netEndpoint, w.size),
		addrs:      make([]string, w.size),
		stallAfter: stallBeats * opts.HeartbeatEvery,
	}
	if opts.Network == "unix" && len(opts.Addrs) == 0 {
		dir, err := os.MkdirTemp("", "wbnet")
		if err != nil {
			return nil, fmt.Errorf("socket transport: %w", err)
		}
		t.tmpDir = dir
	}
	fail := func(err error) (*netTransport, error) {
		for _, ep := range t.endpoints {
			if ep != nil && ep.ln != nil {
				ep.ln.Close()
			}
		}
		if t.tmpDir != "" {
			os.RemoveAll(t.tmpDir)
		}
		return nil, err
	}
	for r := 0; r < w.size; r++ {
		var addr string
		switch {
		case len(opts.Addrs) == w.size:
			addr = opts.Addrs[r]
		case opts.Network == "tcp":
			addr = "127.0.0.1:0"
		default:
			addr = filepath.Join(t.tmpDir, fmt.Sprintf("rank-%d.sock", r))
		}
		ln, err := net.Listen(opts.Network, addr)
		if err != nil {
			return fail(fmt.Errorf("socket transport: rank %d listen %s %q: %w", r, opts.Network, addr, err))
		}
		t.endpoints[r] = &netEndpoint{t: t, rank: r, ln: ln, conns: make([]*netConn, w.size)}
		t.addrs[r] = ln.Addr().String()
	}
	now := time.Now().UnixNano()
	for r, ep := range t.endpoints {
		for p := range t.endpoints {
			if p == r {
				continue
			}
			c := &netConn{
				ep: ep, peer: p, dialer: r < p, down: true,
				ring:     make([]retainedFrame, retainFrames),
				space:    make(chan struct{}, 1),
				recvBufs: make(map[recvKey]*recvRing),
			}
			// A fresh connection has seen no silence yet: the accusation
			// clock starts now, not at the unix epoch.
			c.lastIn.Store(now)
			if pl := w.opts.Faults; pl != nil && !c.dialer {
				c.refusedLeft.Store(int64(pl.refusals(p, r)))
			}
			ep.conns[p] = c
		}
	}
	for _, ep := range t.endpoints {
		t.wg.Add(1)
		go ep.acceptLoop()
		for _, c := range ep.conns {
			if c != nil {
				t.wg.Add(1)
				go c.supervise()
			}
		}
	}
	return t, nil
}

func (t *netTransport) name() string { return t.opts.Network }

// bail is the abort predicate of a sender waiting on a full retention
// ring: a declared rank failure or the transport shutting down unblocks it.
func (t *netTransport) bail() error {
	if t.closed.Load() {
		return errTransportClosed
	}
	return t.w.failErr()
}

// deliver routes one stamped message. Self-sends skip the wire (as a real
// MPI implementation short-circuits rank-local traffic) and with it every
// wire clause; everything else becomes a data frame on the pair's
// connection.
func (t *netTransport) deliver(src, dst int, msg message, enc payloadEnc, body []byte) (time.Duration, bool, error) {
	if src == dst {
		t.w.mailboxes[dst].put(msg, t.w.epoch.Load())
		return 0, false, nil
	}
	if t.endpoints[src].dead.Load() || t.endpoints[dst].dead.Load() {
		if err := t.w.failErr(); err != nil {
			return 0, false, err
		}
		return 0, false, &RankFailedError{Rank: dst, Cause: fmt.Sprintf("send over %s transport to retired rank", t.opts.Network)}
	}
	return t.endpoints[src].conns[dst].send(msg, enc, body)
}

// noteDead shuts every connection involving a permanently dead rank: its
// own endpoint stops accepting and dialing, survivors stop retrying
// toward it and shed retained frames (nobody will ack them).
func (t *netTransport) noteDead(worldRank int) {
	if worldRank < 0 || worldRank >= len(t.endpoints) {
		return
	}
	ep := t.endpoints[worldRank]
	if ep.dead.Swap(true) {
		return
	}
	ep.ln.Close()
	for _, c := range ep.conns {
		if c != nil {
			c.permanentlyDown()
		}
	}
	for r, other := range t.endpoints {
		if r == worldRank {
			continue
		}
		if c := other.conns[worldRank]; c != nil {
			c.permanentlyDown()
		}
	}
}

// silence stops a hung rank's endpoint; its peers' supervisors accuse it
// once its heartbeats have been missing for FailTimeout.
func (t *netTransport) silence(worldRank int) { t.endpoints[worldRank].silent.Store(true) }

// onFailure wakes senders blocked on full retention rings so they observe
// the declared failure (the socket analogue of the mailbox wake).
func (t *netTransport) onFailure() {
	for _, ep := range t.endpoints {
		for _, c := range ep.conns {
			if c != nil {
				c.wake()
			}
		}
	}
}

// shutdown tears the transport down after the run: close listeners and
// sockets, unblock every internal wait, join all background goroutines,
// remove the unix-socket directory.
func (t *netTransport) shutdown() {
	if t.closed.Swap(true) {
		return
	}
	close(t.done)
	for _, ep := range t.endpoints {
		ep.ln.Close()
	}
	for _, ep := range t.endpoints {
		for _, c := range ep.conns {
			if c != nil {
				c.permanentlyDown()
			}
		}
	}
	t.wg.Wait()
	if t.tmpDir != "" {
		os.RemoveAll(t.tmpDir)
	}
}

// acceptLoop admits inbound connections for one endpoint until the
// listener closes (shutdown or MarkDead).
func (ep *netEndpoint) acceptLoop() {
	t := ep.t
	defer t.wg.Done()
	for {
		sock, err := ep.ln.Accept()
		if err != nil {
			if t.closed.Load() || ep.dead.Load() {
				return
			}
			select {
			case <-t.done:
				return
			case <-time.After(time.Millisecond):
				continue
			}
		}
		t.wg.Add(1)
		go ep.handleAccept(sock)
	}
}

// handleAccept runs the acceptor's half of the connection handshake: read
// the dialer's hello (which carries how far its inbound stream got), apply
// refusal/silence/death policy, answer with a welcome carrying our own
// receive progress, then install the socket.
func (ep *netEndpoint) handleAccept(sock net.Conn) {
	t := ep.t
	defer t.wg.Done()
	sock.SetDeadline(time.Now().Add(4 * t.stallAfter))
	var s frameScratch
	h, _, err := readFrame(sock, defaultMaxFrameBytes, &s)
	if err != nil || h.kind != frameHello {
		sock.Close()
		return
	}
	src := int(h.source)
	// Only the lower rank of a pair dials, so a valid hello names a lower
	// rank; anything else lost framing or violates the topology.
	if src < 0 || src >= len(ep.conns) || src == ep.rank || ep.conns[src] == nil || ep.conns[src].dialer {
		sock.Close()
		return
	}
	c := ep.conns[src]
	if ep.isSilent() || ep.dead.Load() || t.endpoints[src].dead.Load() || t.closed.Load() {
		sock.Close()
		return
	}
	// Injected connection refusal: drop the socket before completing the
	// handshake, exactly like a peer whose listener is not up yet.
	if c.refusedLeft.Add(-1) >= 0 {
		sock.Close()
		return
	}
	var hdr [frameHeaderLen]byte
	encodeFrameHeader(&hdr, frameHeader{
		kind: frameWelcome, ack: c.lastRecv.Load(),
		epoch: uint64(t.w.epoch.Load()), source: int32(ep.rank),
	}, nil)
	if _, err := sock.Write(hdr[:]); err != nil {
		sock.Close()
		return
	}
	sock.SetDeadline(time.Time{})
	c.install(sock, h.ack)
}
