package comm

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"walberla/internal/telemetry"
)

// netConn is one endpoint's end of the persistent duplex connection to a
// single peer rank: the outgoing frame stream (sequence counter, retention
// ring, write scratch) and the incoming one (receive cursor, reader decode
// state). Exactly one netConn exists per (endpoint, peer) ordered pair;
// the two ends of a pair share one socket.
type netConn struct {
	ep     *netEndpoint
	peer   int
	dialer bool // this end dials (lower rank); the other end accepts

	mu   sync.Mutex
	cond *sync.Cond
	// sock is the live socket, nil while down. sockGen increments on every
	// install and teardown so readers and error reporters can tell whether
	// their socket is still the current one.
	sock     net.Conn
	sockGen  uint64
	down     bool
	permDown bool // peer (or self) is dead: never reconnect
	everUp   bool // distinguishes first connects from reconnects

	// Outgoing stream state under mu: per-directed-stream data sequence
	// (from 1) and the retention ring of unacked frames, a circular buffer
	// of capacity retainFrames. A full ring blocks the sender —
	// end-to-end backpressure through the wire.
	sendSeq    uint64
	ring       []retainedFrame
	head, nRet int

	// Persistent write scratch: header buffers and the two-element iovec
	// for gather writes straight out of the caller's payload (the
	// steady-state send performs no payload copy and no allocation).
	hdr    [frameHeaderLen]byte
	hbHdr  [frameHeaderLen]byte
	iov    net.Buffers
	iovArr [2][]byte

	// lastRecv is the highest data sequence delivered off the inbound
	// stream (written by the reader, read by writers stamping acks and by
	// handshakes). lastIn is the wall time (UnixNano) of the last inbound
	// frame — the accusation clock. refusedLeft counts injected handshake
	// refusals still owed (acceptor side).
	lastRecv    atomic.Uint64
	lastIn      atomic.Int64
	refusedLeft atomic.Int64

	// Reader-owned state, serialized across socket generations by
	// readerGate (a reader holds it for its whole life, so a reconnected
	// socket's reader waits for its predecessor to drain).
	readerGate sync.Mutex
	scratch    frameScratch
	recvBufs   map[recvKey]*recvRing
}

// retainedFrame is one unacked data frame: everything needed to rewrite
// it verbatim after a reconnect. Payload fields alias the sender's buffers
// (zero-copy); exactly one of f64/bytes/i64/word is meaningful, per enc.
type retainedFrame struct {
	seq   uint64
	epoch uint64
	ctx   int64
	tag   int32
	enc   payloadEnc
	f64   []float64
	bytes []byte
	i64   []int64
	word  [8]byte
}

// recvKey indexes a reader's typed-receive buffers by traffic stream.
type recvKey struct {
	ctx int64
	tag int32
}

// recvRing is the reader's per-(ctx, tag) rotation of decode buffers for
// float64 payloads. A consumer may read a received slice until it takes
// the stream's next message, so the slot a message was delivered in is
// reused only once queue.taken shows a later message of the stream popped
// (freeAt, from mailbox.put); until then the reader decodes into fresh
// allocations, which are never tracked — a flood of unconsumed messages is
// never overwritten. The ghost exchange's ownership protocol (the sender
// packs at most one message ahead of the one being consumed) frees the
// slot three deliveries back, so the rotation is allocation-free in the
// steady state.
type recvRing struct {
	bufs   [3][]float64
	freeAt [3]uint64 // queue.taken value that frees the slot; 0 = never delivered
	next   int       // oldest slot, the next to be reused
	q      *queue    // the mailbox queue of this stream, set by the first delivery
}

// f64Buffer returns the decode target for an n-value float64 payload and,
// when that target is the ring's next slot, the ring to call delivered on
// after the mailbox deposit. Reader-owned (readerGate).
func (c *netConn) f64Buffer(k recvKey, n int) ([]float64, *recvRing) {
	r := c.recvBufs[k]
	if r == nil {
		r = &recvRing{}
		c.recvBufs[k] = r
	}
	if r.q != nil && r.q.taken.Load() < r.freeAt[r.next] {
		return make([]float64, n), nil
	}
	buf := r.bufs[r.next]
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	r.bufs[r.next] = buf
	return buf, r
}

// delivered records that the slot handed out by f64Buffer now backs a
// message in q, and moves on to the next slot. A slot whose frame was
// never deposited (read error, stale epoch) is simply handed out again.
func (r *recvRing) delivered(q *queue, freeAt uint64) {
	r.q = q
	r.freeAt[r.next] = freeAt
	r.next = (r.next + 1) % len(r.bufs)
}

// send retains msg as the stream's next data frame and, when the link is
// up, writes it immediately. It never waits for a connection — only for
// ring space and an injected stall — so connection loss is invisible to
// senders beyond latency. Injected frame faults apply exactly once, at
// first transmission; resends are verbatim (a deterministic per-seq drop
// would otherwise repeat forever).
func (c *netConn) send(msg message) (waited time.Duration, stalled bool, err error) {
	ep := c.ep
	t := ep.t
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.nRet == len(c.ring) && !c.permDown {
		if err := t.bail(); err != nil {
			return waited, false, err
		}
		t0 := time.Now()
		c.cond.Wait()
		waited += time.Since(t0)
	}
	if c.permDown {
		if err := t.w.failErr(); err != nil {
			return waited, false, err
		}
		return waited, false, &RankFailedError{Rank: c.peer, Cause: "send on permanently closed connection"}
	}
	c.sendSeq++
	seq := c.sendSeq
	enc := classifyPayload(&msg)
	rf := retainedFrame{
		seq: seq, epoch: uint64(t.w.epoch.Load()),
		ctx: int64(msg.ctx), tag: int32(msg.tag), enc: enc,
	}
	switch enc {
	case encF64s:
		if msg.f64 != nil {
			rf.f64 = msg.f64
		} else {
			rf.f64 = msg.data.([]float64)
		}
	case encBytes:
		rf.bytes = msg.data.([]byte)
	case encI64s:
		rf.i64 = msg.data.([]int64)
	case encInt64, encInt, encFloat64:
		encodeScalar(&rf.word, enc, msg.data)
	case encOpaque:
		t.opaque.Store(opaqueKey{ep.rank, c.peer, seq}, msg.data)
	}
	c.ring[(c.head+c.nRet)%len(c.ring)] = rf
	c.nRet++

	// First-transmission fault decisions (deterministic per seq).
	var drop, corrupt, sever bool
	if p := t.w.opts.Faults; p != nil {
		sever = p.severAt(ep.rank, c.peer, seq)
		drop = !sever && p.dropFrame(ep.rank, c.peer, seq)
		corrupt = !sever && !drop && p.corruptFrame(ep.rank, c.peer, seq)
		var d time.Duration
		if d, stalled = p.stall(ep.rank, c.peer, seq); stalled {
			// Sleeping under mu models a serialized slow link: everything
			// behind this frame (including heartbeats) waits too.
			time.Sleep(d)
		}
	}
	switch {
	case sever:
		ep.stats.injSevers.Add(1)
		ep.netFault(c.peer)
		c.teardownLocked()
	case drop:
		ep.stats.injDrops.Add(1)
		ep.netFault(c.peer)
	case c.down:
		// Retained; install replays it when the link comes up.
	default:
		if corrupt {
			ep.stats.injCorrupts.Add(1)
			ep.netFault(c.peer)
		}
		c.writeDataLocked(&c.ring[(c.head+c.nRet-1)%len(c.ring)], corrupt)
	}
	return waited, stalled, nil
}

// framePayload returns the wire bytes of a retained frame (zero-copy for
// slice payloads).
func framePayload(rf *retainedFrame) []byte {
	switch rf.enc {
	case encF64s:
		return f64Bytes(rf.f64)
	case encBytes:
		return rf.bytes
	case encI64s:
		return i64Bytes(rf.i64)
	case encInt64, encInt, encFloat64:
		return rf.word[:8]
	}
	return nil
}

// writeDataLocked frames and writes one retained frame on the live
// socket. corrupt flips a checksum byte after encoding, so the receiver's
// CRC rejects the frame. Caller holds mu; write errors tear the
// connection down (the frame stays retained) and are never surfaced.
func (c *netConn) writeDataLocked(rf *retainedFrame, corrupt bool) {
	payload := framePayload(rf)
	encodeFrameHeader(&c.hdr, frameHeader{
		kind: frameData, enc: rf.enc, seq: rf.seq, ack: c.lastRecv.Load(),
		epoch: rf.epoch, ctx: rf.ctx, tag: rf.tag, source: int32(c.ep.rank),
	}, payload)
	if corrupt {
		c.hdr[52] ^= 0xff
	}
	if c.writeFrameLocked(c.hdr[:], payload) {
		c.ep.frameSent(int64(frameHeaderLen + len(payload)))
	}
}

// writeHeartbeatLocked writes a liveness probe carrying the cumulative
// ack and the stream's last data sequence (seq): because heartbeats
// follow data on the same FIFO socket, a receiver seeing hb.seq beyond
// its cursor has proof of a lost frame and can force the resend without
// waiting for the next data frame.
func (c *netConn) writeHeartbeatLocked() {
	if c.down {
		return
	}
	encodeFrameHeader(&c.hbHdr, frameHeader{
		kind: frameHeartbeat, seq: c.sendSeq, ack: c.lastRecv.Load(),
		epoch: uint64(c.ep.t.w.epoch.Load()), source: int32(c.ep.rank),
	}, nil)
	if c.writeFrameLocked(c.hbHdr[:], nil) {
		c.ep.heartbeat()
	}
}

// writeFrameLocked writes header+payload with a gather write (no payload
// copy), reporting success. Caller holds mu.
func (c *netConn) writeFrameLocked(hdr, payload []byte) bool {
	sock := c.sock
	if sock == nil || c.down {
		return false
	}
	// A peer that stopped reading must not wedge the writer forever: bound
	// the write, turn pathological backpressure into teardown + resend.
	sock.SetWriteDeadline(time.Now().Add(4 * c.ep.t.stallAfter))
	var nw int64
	var err error
	if len(payload) > 0 {
		c.iovArr[0], c.iovArr[1] = hdr, payload
		c.iov = c.iovArr[:]
		nw, err = c.iov.WriteTo(sock)
		c.iovArr[0], c.iovArr[1] = nil, nil
	} else {
		var n int
		n, err = sock.Write(hdr)
		nw = int64(n)
	}
	c.ep.stats.bytesSent.Add(nw)
	if err != nil {
		c.teardownLocked()
		return false
	}
	return true
}

// teardownLocked drops the live socket: subsequent sends retain only, the
// supervisor notices down and redials (dialer side) or waits for a
// re-accept. Caller holds mu.
func (c *netConn) teardownLocked() {
	if c.down {
		return
	}
	c.down = true
	c.sockGen++
	if c.sock != nil {
		c.sock.Close()
		c.sock = nil
	}
	c.cond.Broadcast()
}

// sever tears the connection down if gen still names the current socket
// (a reader discovering a stale generation must not kill its successor).
func (c *netConn) sever(gen uint64) {
	c.mu.Lock()
	if c.sockGen == gen && !c.permDown {
		c.teardownLocked()
	}
	c.mu.Unlock()
}

// prune acknowledges the outgoing stream up to ack: retained frames with
// seq ≤ ack are released (their opaque payload entries with them) and
// ring-blocked senders wake.
func (c *netConn) prune(ack uint64) {
	c.mu.Lock()
	c.pruneLocked(ack)
	c.mu.Unlock()
}

func (c *netConn) pruneLocked(ack uint64) {
	freed := false
	for c.nRet > 0 {
		rf := &c.ring[c.head]
		if rf.seq > ack {
			break
		}
		if rf.enc == encOpaque {
			c.ep.t.opaque.Delete(opaqueKey{c.ep.rank, c.peer, rf.seq})
		}
		*rf = retainedFrame{}
		c.head = (c.head + 1) % len(c.ring)
		c.nRet--
		freed = true
	}
	if freed {
		c.cond.Broadcast()
	}
}

// resendLocked replays every retained frame in sequence order on a fresh
// socket — verbatim, bypassing fault injection (decisions were spent at
// first transmission). Caller holds mu with the socket installed.
func (c *netConn) resendLocked() {
	if c.nRet == 0 {
		return
	}
	for i := 0; i < c.nRet && !c.down; i++ {
		c.writeDataLocked(&c.ring[(c.head+i)%len(c.ring)], false)
	}
	c.ep.stats.resent.Add(int64(c.nRet))
	c.ep.event(telemetry.PhaseNetResend, c.peer)
}

// install adopts a freshly handshaken socket: prune what the peer already
// acknowledged (peerHas, from its hello/welcome), replay the rest, start
// the reader. Reports whether the socket was accepted. Callers hold a wg
// slot (supervisor or accept handler), which makes the wg.Add for the
// reader safe against shutdown's Wait.
func (c *netConn) install(sock net.Conn, peerHas uint64) bool {
	t := c.ep.t
	c.mu.Lock()
	if c.permDown || t.closed.Load() {
		c.mu.Unlock()
		sock.Close()
		return false
	}
	if c.sock != nil {
		c.sock.Close()
	}
	c.sockGen++
	gen := c.sockGen
	c.sock = sock
	c.down = false
	reconnect := c.everUp
	c.everUp = true
	c.lastIn.Store(time.Now().UnixNano())
	c.pruneLocked(peerHas)
	c.resendLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
	ep := c.ep
	ep.stats.connects.Add(1)
	if reconnect {
		ep.stats.reconnects.Add(1)
		ep.event(telemetry.PhaseNetReconnect, c.peer)
	} else {
		ep.event(telemetry.PhaseNetConnect, c.peer)
	}
	t.wg.Add(1)
	go c.readLoop(sock, gen)
	return true
}

// permanentlyDown closes the connection forever (dead peer or shutdown):
// no reconnects, retained frames and their opaque entries shed, all
// waiters released.
func (c *netConn) permanentlyDown() {
	c.mu.Lock()
	if c.permDown {
		c.mu.Unlock()
		return
	}
	c.permDown = true
	c.down = true
	c.sockGen++
	if c.sock != nil {
		c.sock.Close()
		c.sock = nil
	}
	for i := 0; i < c.nRet; i++ {
		rf := &c.ring[(c.head+i)%len(c.ring)]
		if rf.enc == encOpaque {
			c.ep.t.opaque.Delete(opaqueKey{c.ep.rank, c.peer, rf.seq})
		}
		*rf = retainedFrame{}
	}
	c.head, c.nRet = 0, 0
	c.cond.Broadcast()
	c.mu.Unlock()
}
