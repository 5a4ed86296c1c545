package comm

import (
	"fmt"
	"time"
)

// Deterministic frame-layer fault injection for the socket transport,
// mirroring FaultPlan one layer down: where FaultPlan drops or delays
// *messages* above the transport, a NetFaultPlan corrupts the *wire* —
// frames vanish, checksums flip, writes stall, sockets sever mid-stream,
// handshakes are refused. A silent endpoint is not a wire fault: it is
// what an injected hang (FaultPlan.Hangs) does. Every decision is a pure function of (seed,
// directed stream, frame sequence number), so a faulty run over real
// sockets is exactly reproducible regardless of goroutine or kernel
// scheduling.

// NetFaultPlan describes the frame-layer faults to inject into a socket
// transport run.
type NetFaultPlan struct {
	// Seed drives the per-frame drop/corrupt/delay decisions.
	Seed int64
	// Drop is the probability in [0,1] that a data frame's socket write is
	// skipped. The frame stays in the sender's retention ring; the receiver
	// observes a sequence gap (at the next data frame or heartbeat) and
	// forces a reconnect, after which the frame is resent — so drops cost
	// latency, never data.
	Drop float64
	// Corrupt is the probability in [0,1] that a data frame is written
	// with a flipped checksum. The receiver's CRC check rejects it, severs
	// the connection and recovers the frame through the reconnect resend.
	Corrupt float64
	// Delay is the probability in [0,1] that the writer stalls for a
	// pseudo-random duration in (0, MaxDelay] before a data frame.
	Delay float64
	// MaxDelay bounds injected write stalls.
	MaxDelay time.Duration
	// Severs closes directed-pair sockets at chosen frames: the connection
	// From→To is torn down immediately before writing the AtFrame-th data
	// frame (1-based). The transport reconnects with backoff and resends.
	Severs []SeverSpec
	// Refusals reject the first Count connection attempts dialed From→To
	// (the acceptor closes the socket before the handshake completes),
	// exercising the connect-retry backoff path — including at startup.
	Refusals []RefuseSpec
}

// SeverSpec tears down the socket carrying the From→To stream just
// before its AtFrame-th data frame (1-based).
type SeverSpec struct {
	From, To int
	AtFrame  uint64
}

// RefuseSpec rejects the first Count connection attempts of the dialer
// From toward the acceptor To.
type RefuseSpec struct {
	From, To int
	Count    int
}

// Validate checks the plan against a world of n ranks.
func (p *NetFaultPlan) Validate(n int) error {
	check01 := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("net fault plan: %s fraction %v outside [0,1]", name, v)
		}
		return nil
	}
	if err := check01("drop", p.Drop); err != nil {
		return err
	}
	if err := check01("corrupt", p.Corrupt); err != nil {
		return err
	}
	if err := check01("delay", p.Delay); err != nil {
		return err
	}
	if p.Delay > 0 && p.MaxDelay <= 0 {
		return fmt.Errorf("net fault plan: delay probability %v requires a positive MaxDelay", p.Delay)
	}
	checkRank := func(what string, r int) error {
		if r < 0 || r >= n {
			return fmt.Errorf("net fault plan: %s rank %d outside world of size %d", what, r, n)
		}
		return nil
	}
	for _, s := range p.Severs {
		if err := checkRank("sever", s.From); err != nil {
			return err
		}
		if err := checkRank("sever", s.To); err != nil {
			return err
		}
		if s.From == s.To {
			return fmt.Errorf("net fault plan: sever of the self stream of rank %d", s.From)
		}
		if s.AtFrame == 0 {
			return fmt.Errorf("net fault plan: sever frame numbers are 1-based")
		}
	}
	for _, r := range p.Refusals {
		if err := checkRank("refusal", r.From); err != nil {
			return err
		}
		if err := checkRank("refusal", r.To); err != nil {
			return err
		}
		if r.Count <= 0 {
			return fmt.Errorf("net fault plan: refusal count %d must be positive", r.Count)
		}
	}
	return nil
}

// Frame-fault decision sub-streams (disjoint from the message-level
// faultKind* space by construction: separate mixer inputs).
const (
	netFaultKindDrop = 1 + iota
	netFaultKindCorrupt
	netFaultKindDelay
	netFaultKindDelayLen
)

// chance returns a deterministic uniform value in [0,1) for the seq-th
// data frame of the directed stream src→dst under sub-stream kind.
func (p *NetFaultPlan) chance(kind, src, dst int, seq uint64) float64 {
	h := mix64(uint64(p.Seed)<<20 ^ uint64(kind)<<56 ^ uint64(src)<<44 ^ uint64(dst)<<32 ^ seq)
	return float64(h>>11) / float64(1<<53)
}

// dropFrame decides whether the seq-th data frame src→dst is dropped.
func (p *NetFaultPlan) dropFrame(src, dst int, seq uint64) bool {
	return p.Drop > 0 && p.chance(netFaultKindDrop, src, dst, seq) < p.Drop
}

// corruptFrame decides whether the seq-th data frame src→dst is written
// with a flipped checksum.
func (p *NetFaultPlan) corruptFrame(src, dst int, seq uint64) bool {
	return p.Corrupt > 0 && p.chance(netFaultKindCorrupt, src, dst, seq) < p.Corrupt
}

// delayFrame returns the injected write stall before the seq-th data
// frame src→dst (0 = none).
func (p *NetFaultPlan) delayFrame(src, dst int, seq uint64) time.Duration {
	if p.Delay <= 0 || p.chance(netFaultKindDelay, src, dst, seq) >= p.Delay {
		return 0
	}
	return time.Duration(p.chance(netFaultKindDelayLen, src, dst, seq) * float64(p.MaxDelay))
}

// severAt reports whether the socket carrying src→dst must be torn down
// just before its seq-th data frame.
func (p *NetFaultPlan) severAt(src, dst int, seq uint64) bool {
	for _, s := range p.Severs {
		if s.From == src && s.To == dst && s.AtFrame == seq {
			return true
		}
	}
	return false
}

// refusals returns the number of connection attempts to reject for the
// dialer from toward the acceptor to.
func (p *NetFaultPlan) refusals(from, to int) int {
	n := 0
	for _, r := range p.Refusals {
		if r.From == from && r.To == to {
			n += r.Count
		}
	}
	return n
}
