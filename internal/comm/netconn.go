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

	// sendMu serializes whole messages on the outgoing stream, so the
	// frames of a split payload stay consecutive. Taken before mu.
	sendMu sync.Mutex
	mu     sync.Mutex
	// space wakes the sender (one at most, under sendMu) blocked on a full
	// retention ring: whatever may free a slot or end the wait leaves a
	// token, and a token left before the sender waits is not lost.
	space chan struct{}
	// sock is the live socket, nil while down. sockGen increments (under
	// mu) on every install and teardown so readers and error reporters can
	// tell, without waiting for mu, whether their socket is still the
	// current one.
	sock     net.Conn
	sockGen  atomic.Uint64
	down     bool
	permDown bool // peer (or self) is dead: never reconnect
	everUp   bool // distinguishes first connects from reconnects

	// Outgoing stream state under mu: per-directed-stream data sequence
	// (from 1) and the retention ring of unacked frames, a circular buffer
	// of capacity retainFrames. A full ring blocks the sender —
	// end-to-end backpressure through the wire. acked is the highest
	// acknowledgement the reader has seen; one it could not prune (mu
	// busy) waits there for the ring-full wait to prune up to it.
	sendSeq    uint64
	ring       []retainedFrame
	head, nRet int
	acked      atomic.Uint64

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
	// socket's reader waits for its predecessor to drain). partial holds
	// the pieces so far of a split payload, sent in partialEpoch.
	readerGate   sync.Mutex
	scratch      frameScratch
	recvBufs     map[recvKey]*recvRing
	partial      []byte
	partialEpoch uint64
}

// retainedFrame is one unacked data frame: everything needed to rewrite
// it verbatim after a reconnect. A slice payload's frame holds a view of
// the sender's buffer (zero-copy; a piece of it when the payload is
// split), a scalar's its 8-byte encoding.
type retainedFrame struct {
	seq   uint64
	epoch uint64
	ctx   int64
	tag   int32
	enc   payloadEnc
	more  bool // frameMore: the message goes on in the next frame
	body  []byte
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

// send retains msg, whose slice payload's bytes are body, as the
// stream's next data frames and, when the link is up, writes them
// immediately. A payload above defaultMaxFrameBytes
// goes as consecutive frames of at most that size, flagged frameMore but
// the last. send never waits for a connection — only for ring space and
// an injected stall — so connection loss is invisible to senders beyond
// latency. Injected frame faults apply exactly once, at first
// transmission; resends are verbatim (a deterministic per-seq drop would
// otherwise repeat forever).
func (c *netConn) send(msg message, enc payloadEnc, body []byte) (waited time.Duration, stalled bool, err error) {
	ep := c.ep
	t := ep.t
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Every frame of a message carries one epoch, so a reader that finds
	// one piece stale finds the rest stale too.
	epoch := uint64(t.w.epoch.Load())
	for first := true; first || len(body) > 0; first = false {
		piece := body[:min(len(body), defaultMaxFrameBytes)]
		body = body[len(piece):]
		for c.nRet == len(c.ring) && !c.permDown {
			if c.pruneLocked(c.acked.Load()); c.nRet < len(c.ring) {
				break
			}
			if err := t.bail(); err != nil {
				return waited, stalled, err
			}
			t0 := time.Now()
			c.mu.Unlock()
			<-c.space
			c.mu.Lock()
			waited += time.Since(t0)
		}
		if c.permDown {
			if err := t.w.failErr(); err != nil {
				return waited, stalled, err
			}
			return waited, stalled, &RankFailedError{Rank: c.peer, Cause: "send on permanently closed connection"}
		}
		c.sendSeq++
		seq := c.sendSeq
		rf := retainedFrame{
			seq: seq, epoch: epoch, ctx: int64(msg.ctx), tag: int32(msg.tag),
			enc: enc, more: len(body) > 0, body: piece,
		}
		if enc == encInt64 || enc == encInt || enc == encFloat64 {
			encodeScalar(&rf.word, enc, msg.data)
		}
		c.ring[(c.head+c.nRet)%len(c.ring)] = rf
		c.nRet++

		// First-transmission fault decisions (deterministic per seq).
		var drop, corrupt, sever bool
		if p := t.w.opts.Faults; p != nil {
			sever = p.severAt(ep.rank, c.peer, seq)
			drop = !sever && p.dropFrame(ep.rank, c.peer, seq)
			corrupt = !sever && !drop && p.corruptFrame(ep.rank, c.peer, seq)
			if d, ok := p.stall(ep.rank, c.peer, seq); ok {
				// Sleeping under mu models a serialized slow link:
				// everything behind this frame (including heartbeats)
				// waits too.
				time.Sleep(d)
				stalled = true
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
	}
	return waited, stalled, nil
}

// framePayload returns the wire bytes of a retained frame.
func framePayload(rf *retainedFrame) []byte {
	switch rf.enc {
	case encInt64, encInt, encFloat64:
		return rf.word[:8]
	}
	return rf.body
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
		more: rf.more,
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
	c.sockGen.Add(1)
	if c.sock != nil {
		c.sock.Close()
		c.sock = nil
	}
}

// sever tears the connection down if gen still names the current socket
// (a reader discovering a stale generation must not kill its successor).
// A stale reader returns without waiting for mu, which an install may hold
// while it replays frames only the successor reader drains.
func (c *netConn) sever(gen uint64) {
	if c.sockGen.Load() != gen {
		return
	}
	c.mu.Lock()
	if c.sockGen.Load() == gen && !c.permDown {
		c.teardownLocked()
	}
	c.mu.Unlock()
}

// prune acknowledges the outgoing stream up to ack: retained frames with
// seq ≤ ack are released and a ring-blocked sender wakes. The reader calls
// it and must never wait for mu: a writer holding mu may be blocked on a
// full socket that only this reader's peer drains, and that peer's reader
// may be waiting the same way. When mu is busy the ack stays in acked and
// the sender is woken to prune up to it.
func (c *netConn) prune(ack uint64) {
	if ack > c.acked.Load() {
		c.acked.Store(ack) // readers are serialized: no lost update
	}
	if c.mu.TryLock() {
		c.pruneLocked(c.acked.Load())
		c.mu.Unlock()
	} else {
		c.wake()
	}
}

// wake leaves a token for a sender blocked on a full ring.
func (c *netConn) wake() {
	select {
	case c.space <- struct{}{}:
	default:
	}
}

func (c *netConn) pruneLocked(ack uint64) {
	freed := false
	for c.nRet > 0 {
		rf := &c.ring[c.head]
		if rf.seq > ack {
			break
		}
		*rf = retainedFrame{}
		c.head = (c.head + 1) % len(c.ring)
		c.nRet--
		freed = true
	}
	if freed {
		c.wake()
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

// install adopts a freshly handshaken socket: start its reader, prune what
// the peer already acknowledged (peerHas, from its hello/welcome), replay
// the rest. The reader runs before the replay: when both ends replay more
// than the socket buffers hold, each end's replay completes only while
// the other end reads. Reports whether the socket was accepted. Callers
// hold a wg slot (supervisor or accept handler), which makes the wg.Add
// for the reader safe against shutdown's Wait.
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
	gen := c.sockGen.Add(1)
	c.sock = sock
	c.down = false
	reconnect := c.everUp
	c.everUp = true
	c.lastIn.Store(time.Now().UnixNano())
	t.wg.Add(1)
	go c.readLoop(sock, gen)
	c.pruneLocked(peerHas)
	c.resendLocked()
	c.mu.Unlock()
	ep := c.ep
	ep.stats.connects.Add(1)
	if reconnect {
		ep.stats.reconnects.Add(1)
		ep.event(telemetry.PhaseNetReconnect, c.peer)
	} else {
		ep.event(telemetry.PhaseNetConnect, c.peer)
	}
	return true
}

// permanentlyDown closes the connection forever (dead peer or shutdown):
// no reconnects, retained frames shed, all waiters released.
func (c *netConn) permanentlyDown() {
	c.mu.Lock()
	if c.permDown {
		c.mu.Unlock()
		return
	}
	c.permDown = true
	c.down = true
	c.sockGen.Add(1)
	if c.sock != nil {
		c.sock.Close()
		c.sock = nil
	}
	for i := 0; i < c.nRet; i++ {
		c.ring[(c.head+i)%len(c.ring)] = retainedFrame{}
	}
	c.head, c.nRet = 0, 0
	c.mu.Unlock()
	c.wake()
}
