package comm

import (
	"fmt"
	"io"
	"net"
	"slices"
	"time"
)

// readLoop consumes one socket generation's inbound frame stream and
// deposits data frames into the rank's mailbox. readerGate serializes
// readers across reconnects: a new socket's reader waits until its
// predecessor drained, so lastRecv and the decode buffers advance in
// stream order. Any error — wire, decode, checksum, sequence gap — tears
// the connection down; the retention/resend protocol makes that lossless.
func (c *netConn) readLoop(sock net.Conn, gen uint64) {
	ep := c.ep
	t := ep.t
	defer t.wg.Done()
	c.readerGate.Lock()
	defer c.readerGate.Unlock()
	if c.sockGen.Load() != gen {
		return
	}
	for {
		// The deadline is a backstop only — the supervisor's stall detector
		// fires first on a silent peer; this bounds how long a reader can
		// linger on a socket the supervisor already abandoned.
		sock.SetReadDeadline(time.Now().Add(4 * t.stallAfter))
		if _, err := io.ReadFull(sock, c.scratch.hdr[:]); err != nil {
			c.sever(gen)
			return
		}
		h, err := decodeFrameHeader(&c.scratch.hdr, defaultMaxFrameBytes)
		if err != nil {
			c.sever(gen)
			return
		}
		ep.bytesIn(int64(frameHeaderLen) + int64(h.length))
		switch h.kind {
		case frameHeartbeat:
			if checkFrameCRC(&c.scratch.hdr, nil) != nil {
				ep.checksumErr()
				c.sever(gen)
				return
			}
			if ep.isSilent() {
				continue // hung: drain, acknowledge nothing
			}
			c.lastIn.Store(time.Now().UnixNano())
			c.prune(h.ack)
			// Tail-gap detection: the heartbeat names the peer's last data
			// seq; it was written after that data on the same FIFO socket,
			// so a cursor behind it proves a lost frame. Sever and let the
			// reconnect resend recover it — this bounds the latency of a
			// dropped stream tail to about one heartbeat interval.
			if h.seq > c.lastRecv.Load() {
				ep.gapFrame()
				c.sever(gen)
				return
			}
		case frameData:
			if int(h.source) != c.peer {
				c.sever(gen)
				return
			}
			seq := h.seq
			last := c.lastRecv.Load()
			dup := seq <= last
			gap := seq > last+1
			// A piece of a split payload is read onto the end of the pieces
			// before it, and counts once the frame checks out.
			joined := !dup && !gap && (h.more || len(c.partial) > 0)
			var payload []byte
			var f64dst []float64
			var ring *recvRing
			switch {
			case joined:
				c.partial = slices.Grow(c.partial, int(h.length))
				payload = c.partial[len(c.partial) : len(c.partial)+int(h.length)]
			case dup || gap || h.enc != encF64s && h.enc != encBytes:
				payload = c.scratch.grow(int(h.length))
			case h.enc == encF64s:
				// Zero-copy decode: read the payload straight into the
				// rotation buffer the message will carry.
				f64dst, ring = c.f64Buffer(recvKey{h.ctx, h.tag}, int(h.length)/8)
				payload = f64Bytes(f64dst)
			default:
				// The message carries the buffer read off the wire.
				payload = make([]byte, h.length)
			}
			if _, err := io.ReadFull(sock, payload); err != nil {
				c.sever(gen)
				return
			}
			if checkFrameCRC(&c.scratch.hdr, payload) != nil {
				ep.checksumErr()
				c.sever(gen)
				return
			}
			if ep.isSilent() {
				continue
			}
			c.lastIn.Store(time.Now().UnixNano())
			c.prune(h.ack)
			if dup {
				// Already delivered before the last reconnect; the resend
				// protocol over-replays rather than losing.
				ep.dupFrame()
				continue
			}
			if gap {
				ep.gapFrame()
				c.sever(gen)
				return
			}
			ep.frameRecv()
			if int64(h.epoch) < t.w.epoch.Load() {
				// Pre-recovery traffic: consume for stream continuity, never
				// deliver (the wire analogue of the recovery mailbox purge).
				c.partial = nil
				c.lastRecv.Store(seq)
				continue
			}
			if joined {
				if len(c.partial) > 0 && h.epoch != c.partialEpoch {
					// The pieces before belong to a message its sender
					// abandoned on a rank failure: this frame begins anew.
					payload = c.partial[:copy(c.partial, payload)]
				} else {
					payload = c.partial[:len(c.partial)+len(payload)]
				}
				c.partial, c.partialEpoch = payload, h.epoch
				if h.more {
					c.lastRecv.Store(seq)
					continue
				}
				// A []byte message takes the joined buffer; otherwise it
				// serves the stream's next split payload.
				c.partial = payload[:0]
				switch h.enc {
				case encBytes:
					c.partial = nil
				case encF64s:
					f64dst, ring = c.f64Buffer(recvKey{h.ctx, h.tag}, len(payload)/8)
					copy(f64Bytes(f64dst), payload)
				}
			}
			msg := message{ctx: int(h.ctx), source: int(h.source), tag: int(h.tag)}
			switch h.enc {
			case encF64s:
				if len(f64dst) == 0 {
					f64dst = emptyF64
				}
				msg.f64 = f64dst
			case encBytes:
				msg.data = payload
			case encI64s:
				v := make([]int64, len(payload)/8)
				copy(i64Bytes(v), payload)
				msg.data = v
			case encInt64, encInt, encFloat64:
				msg.data = decodeScalar(h.enc, payload)
			}
			q, freeAt := t.w.mailboxes[ep.rank].put(msg, int64(h.epoch))
			c.lastRecv.Store(seq)
			if ring != nil && q != nil {
				ring.delivered(q, freeAt)
			}
		default:
			// hello/welcome mid-stream: the peer lost framing.
			c.sever(gen)
			return
		}
	}
}

// supervise is the connection's background caretaker: while up it
// heartbeats and tears down stalled links; while down it accuses peers
// silent past FailTimeout and (on the dialer side) redials with capped
// exponential backoff. It stops when its endpoint is silenced: a hung
// rank beats, redials and accuses nothing.
func (c *netConn) supervise() {
	t := c.ep.t
	defer t.wg.Done()
	backoff := reconnectBase
	// Dialers attempt the first connection immediately; acceptors just
	// start their heartbeat cadence.
	first := t.opts.HeartbeatEvery
	if c.dialer {
		first = 0
	}
	timer := time.NewTimer(first)
	defer timer.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-timer.C:
		}
		if c.ep.isSilent() {
			return
		}
		c.mu.Lock()
		if c.permDown {
			c.mu.Unlock()
			return
		}
		down := c.down
		if !down {
			idle := time.Since(time.Unix(0, c.lastIn.Load()))
			if idle > t.stallAfter {
				// Silent past the stall threshold: assume the socket is
				// dead, recycle it. If the peer is alive the redial
				// restores the stream; if not, the accusation clock below
				// keeps running off lastIn.
				c.teardownLocked()
				down = true
			} else {
				c.writeHeartbeatLocked()
			}
		}
		c.mu.Unlock()
		if down {
			c.maybeAccuse()
			if c.dialer && c.tryDial() {
				backoff = reconnectBase
				timer.Reset(t.opts.HeartbeatEvery)
				continue
			}
			timer.Reset(backoff)
			backoff = min(2*backoff, reconnectMax)
		} else {
			backoff = reconnectBase
			timer.Reset(t.opts.HeartbeatEvery)
		}
	}
}

// maybeAccuse declares the peer failed once its beat — any inbound frame,
// heartbeats included — has been missing past FailTimeout with the link
// down. The peer's beat is independent of what its driver waits for, so a
// healthy rank blocked behind a hung one is never accused.
func (c *netConn) maybeAccuse() {
	t := c.ep.t
	ft := t.w.opts.FailTimeout
	if ft <= 0 || t.closed.Load() || t.w.failure.Load() != nil {
		return
	}
	if time.Since(time.Unix(0, c.lastIn.Load())) <= ft {
		return
	}
	c.mu.Lock()
	eligible := c.down && !c.permDown
	c.mu.Unlock()
	if !eligible {
		return
	}
	c.ep.accused(c.peer)
	t.w.declareFailure(&RankFailedError{
		Rank: c.peer,
		Cause: fmt.Sprintf("%srank %d saw no traffic from rank %d on the %s transport within %v",
			timeoutCausePrefix, c.ep.rank, c.peer, t.opts.Network, ft),
	})
}

// tryDial attempts the dialer's half of the handshake: connect, send a
// hello carrying our receive progress, await the welcome carrying the
// peer's. Failures (connect refused, injected refusal, handshake
// timeout) report false and the supervisor backs off.
func (c *netConn) tryDial() bool {
	t := c.ep.t
	d := net.Dialer{Timeout: t.stallAfter}
	sock, err := d.Dial(t.opts.Network, t.addrs[c.peer])
	if err != nil {
		return false
	}
	sock.SetDeadline(time.Now().Add(4 * t.stallAfter))
	var hdr [frameHeaderLen]byte
	encodeFrameHeader(&hdr, frameHeader{
		kind: frameHello, ack: c.lastRecv.Load(),
		epoch: uint64(t.w.epoch.Load()), source: int32(c.ep.rank),
	}, nil)
	if _, err := sock.Write(hdr[:]); err != nil {
		sock.Close()
		return false
	}
	var s frameScratch
	h, _, err := readFrame(sock, defaultMaxFrameBytes, &s)
	if err != nil || h.kind != frameWelcome || int(h.source) != c.peer {
		sock.Close()
		return false
	}
	sock.SetDeadline(time.Time{})
	return c.install(sock, h.ack)
}
