package comm

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Deterministic fault injection. A FaultPlan holds rank events — crashes
// and silent hangs at chosen time steps — and wire clauses, which apply
// where a message leaves its sender (transport.deliver). Every wire
// decision is a pure function of (seed, kind, directed stream, per-stream
// sequence number), so a faulty run is exactly reproducible: the same plan
// against the same SPMD program injects the same faults, independent of
// goroutine or kernel scheduling.

// FaultPlan describes the faults to inject into one Run. Messages are
// stalled, never reordered or lost: both transports deliver every message
// of a (source, tag) stream in send order, and the socket transport's
// frame faults (Drop, Corrupt, Severs, Refusals) are absorbed by resend.
type FaultPlan struct {
	// Seed drives every per-message decision.
	Seed int64
	// Delay is the probability in [0,1] that a cross-rank message stalls
	// its stream for a pseudo-random duration in [0, MaxDelay) before it
	// is deposited (in process) or written (socket). The sender waits, so
	// nothing behind the message overtakes it. Both transports.
	Delay    float64
	MaxDelay time.Duration
	// Drop is the probability in [0,1] that a data frame's socket write is
	// skipped. The frame stays in the sender's retention ring; the receiver
	// observes a sequence gap (at the next data frame or heartbeat) and
	// forces a reconnect, after which the frame is resent — so drops cost
	// latency, never data. Socket transport only, like the three below.
	Drop float64
	// Corrupt is the probability in [0,1] that a data frame is written
	// with a flipped checksum. The receiver's CRC check rejects it, severs
	// the connection and recovers the frame through the reconnect resend.
	Corrupt float64
	// Severs closes directed-pair sockets at chosen frames: the connection
	// From→To is torn down immediately before writing the AtFrame-th data
	// frame (1-based). The transport reconnects with backoff and resends.
	Severs []SeverSpec
	// Refusals reject the first Count connection attempts dialed From→To
	// (the acceptor closes the socket before the handshake completes),
	// exercising the connect-retry backoff path — including at startup.
	Refusals []RefuseSpec
	// Crashes lists rank crashes: the victim rank panics with a Crash
	// value at the first SetStep call whose step reaches the trigger.
	// Each entry fires at most once, even across recovery replays.
	Crashes []CrashSpec
	// Hangs lists silent rank failures: at the trigger step the victim's
	// beat stops (the transport silences it) and it panics with a Hang
	// value WITHOUT declaring a global failure, modeling a hung node.
	// Survivors only notice through the transport's failure detector,
	// which accuses the silent rank once its beat has been missing for
	// Options.FailTimeout. Each entry fires at most once, even across
	// recovery replays. A driver must recover by shrinking (the victim
	// never rejoins); the rewind driver would wait for the silent rank
	// forever.
	Hangs []CrashSpec
}

// CrashSpec crashes world rank Rank at simulation step Step.
type CrashSpec struct {
	Rank int
	Step int
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

// Validate checks the options against a world of n ranks (parked spares
// included): the failure timeout and heartbeat interval (never negative),
// the socket flavor and address count, and the fault plan's probabilities
// and rank targets. A wire clause the in-process transport cannot express
// — a drop, corruption, sever or refusal — is rejected there, not ignored.
// RunWithOptions panics on invalid options, so front ends validate
// user-supplied ones first.
func (o Options) Validate(n int) error {
	if o.FailTimeout < 0 {
		return fmt.Errorf("comm: negative FailTimeout %v", o.FailTimeout)
	}
	if o.Net != nil {
		if o.Net.HeartbeatEvery < 0 {
			return fmt.Errorf("comm: negative NetOptions.HeartbeatEvery %v", o.Net.HeartbeatEvery)
		}
		if nw := o.Net.Network; nw != "" && nw != "tcp" && nw != "unix" {
			return fmt.Errorf("comm: unknown network %q (want tcp or unix)", nw)
		}
		if a := len(o.Net.Addrs); a != 0 && a != n {
			return fmt.Errorf("comm: %d transport addresses for %d ranks", a, n)
		}
	}
	p := o.Faults
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"delay", p.Delay}, {"drop", p.Drop}, {"corrupt", p.Corrupt}} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("comm: fault plan: %s probability %v outside [0,1]", f.name, f.v)
		}
	}
	if p.Delay > 0 && p.MaxDelay <= 0 {
		return fmt.Errorf("comm: fault plan: delay probability %v requires a positive MaxDelay", p.Delay)
	}
	if o.Net == nil && (p.Drop > 0 || p.Corrupt > 0 || len(p.Severs) > 0 || len(p.Refusals) > 0) {
		return fmt.Errorf("comm: fault plan: drop, corrupt, sever and refusal clauses need the socket transport")
	}
	rank := func(what string, r int) error {
		if r < 0 || r >= n {
			return fmt.Errorf("comm: fault plan: %s rank %d outside world of size %d", what, r, n)
		}
		return nil
	}
	for _, ev := range []struct {
		what  string
		specs []CrashSpec
	}{{"crash", p.Crashes}, {"hang", p.Hangs}} {
		for _, cs := range ev.specs {
			if err := rank(ev.what, cs.Rank); err != nil {
				return err
			}
			if cs.Step < 0 {
				return fmt.Errorf("comm: fault plan: negative %s step %d", ev.what, cs.Step)
			}
		}
	}
	for _, s := range p.Severs {
		if err := errors.Join(rank("sever", s.From), rank("sever", s.To)); err != nil {
			return err
		}
		if s.From == s.To {
			return fmt.Errorf("comm: fault plan: sever of the self stream of rank %d", s.From)
		}
		if s.AtFrame == 0 {
			return fmt.Errorf("comm: fault plan: sever frame numbers are 1-based")
		}
	}
	for _, r := range p.Refusals {
		if err := errors.Join(rank("refusal", r.From), rank("refusal", r.To)); err != nil {
			return err
		}
		if r.Count <= 0 {
			return fmt.Errorf("comm: fault plan: refusal count %d must be positive", r.Count)
		}
	}
	return nil
}

// Fault decision sub-streams. The values are mixed into every decision:
// changing one changes which messages every seeded plan hits.
const (
	faultKindDrop = 1 + iota
	faultKindCorrupt
	faultKindDelay
	faultKindDelayLen
)

// mix64 is the splitmix64 finalizer, a cheap high-quality bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// chance returns a deterministic uniform value in [0,1) for the seq-th
// message of the directed stream src→dst under sub-stream kind.
func (p *FaultPlan) chance(kind, src, dst int, seq uint64) float64 {
	h := mix64(uint64(p.Seed)<<20 ^ uint64(kind)<<56 ^ uint64(src)<<44 ^ uint64(dst)<<32 ^ seq)
	return float64(h>>11) / float64(1<<53)
}

// stall decides whether the seq-th message src→dst stalls its stream, and
// for how long.
func (p *FaultPlan) stall(src, dst int, seq uint64) (time.Duration, bool) {
	if p.Delay <= 0 || p.chance(faultKindDelay, src, dst, seq) >= p.Delay {
		return 0, false
	}
	return time.Duration(p.chance(faultKindDelayLen, src, dst, seq) * float64(p.MaxDelay)), true
}

// dropFrame decides whether the seq-th data frame src→dst is dropped.
func (p *FaultPlan) dropFrame(src, dst int, seq uint64) bool {
	return p.Drop > 0 && p.chance(faultKindDrop, src, dst, seq) < p.Drop
}

// corruptFrame decides whether the seq-th data frame src→dst is written
// with a flipped checksum.
func (p *FaultPlan) corruptFrame(src, dst int, seq uint64) bool {
	return p.Corrupt > 0 && p.chance(faultKindCorrupt, src, dst, seq) < p.Corrupt
}

// severAt reports whether the socket carrying src→dst must be torn down
// just before its seq-th data frame.
func (p *FaultPlan) severAt(src, dst int, seq uint64) bool {
	for _, s := range p.Severs {
		if s.From == src && s.To == dst && s.AtFrame == seq {
			return true
		}
	}
	return false
}

// refusals returns the number of connection attempts to reject for the
// dialer from toward the acceptor to.
func (p *FaultPlan) refusals(from, to int) int {
	n := 0
	for _, r := range p.Refusals {
		if r.From == from && r.To == to {
			n += r.Count
		}
	}
	return n
}

// Crash is the panic value of an injected rank crash. The resilient
// driver (sim.RunResilient) recovers it; if it escapes to Run the whole
// run fails loudly, like an unhandled fatal signal.
type Crash struct{ Rank int }

func (c Crash) String() string {
	return fmt.Sprintf("injected crash of rank %d", c.Rank)
}

// Hang is the panic value of an injected silent failure (FaultPlan.Hangs).
// Unlike Crash it declares nothing: the rank's beat stops and it stops
// participating, and the rest of the world discovers the failure only
// through the transport's failure detector. The resilient driver catches
// it and retires the rank without ever communicating again.
type Hang struct{ Rank int }

func (h Hang) String() string {
	return fmt.Sprintf("injected silence of rank %d", h.Rank)
}

// RankFailedError reports that a rank has failed (injected crash) or has
// been declared failed (Accuse, or its beat missing for FailTimeout).
// Once declared, every error-returning operation of every rank fails
// fast with this error until Recover is called — the in-process analogue
// of MPI ULFM's communicator revocation, which keeps collectives from
// deadlocking on a dead rank.
type RankFailedError struct {
	// Rank is the world rank that failed or was accused.
	Rank int
	// Cause describes the detection: injected crash or timeout.
	Cause string
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("comm: rank %d failed (%s)", e.Rank, e.Cause)
}

// timeoutCausePrefix marks failures declared by a transport's failure
// detector, so drivers can distinguish detection by timeout from an
// injected crash.
const timeoutCausePrefix = "timeout: "

// TimedOut reports whether this failure was declared by the transport's
// failure detector — the rank's beat missing for Options.FailTimeout —
// rather than by an injected crash or Accuse.
func (e *RankFailedError) TimedOut() bool {
	return strings.HasPrefix(e.Cause, "timeout")
}

// IsRankFailure reports whether err is (or wraps) a rank failure.
func IsRankFailure(err error) bool {
	var rf *RankFailedError
	return errors.As(err, &rf)
}

// SetStep announces the current simulation step of this rank to the fault
// injector; crash and hang triggers whose step has been reached fire
// here, making the failure point deterministic regardless of the step's
// communication pattern. A no-op without a fault plan.
func (c *Comm) SetStep(step int) {
	p := c.w.opts.Faults
	if p == nil {
		return
	}
	me := c.WorldRank()
	for i := range p.Crashes {
		cs := p.Crashes[i]
		if cs.Rank == me && step >= cs.Step && c.w.crashFired[i].CompareAndSwap(false, true) {
			c.w.declareFailure(&RankFailedError{
				Rank:  me,
				Cause: fmt.Sprintf("injected crash at step %d", step),
			})
			panic(Crash{Rank: me})
		}
	}
	for i := range p.Hangs {
		hs := p.Hangs[i]
		if hs.Rank == me && step >= hs.Step && c.w.hangFired[i].CompareAndSwap(false, true) {
			// Deliberately no declareFailure: the world must detect the
			// silence on its own, via the transport's failure detector.
			c.w.transport.silence(me)
			panic(Hang{Rank: me})
		}
	}
}

// Failed returns the currently declared rank failure, or nil.
func (c *Comm) Failed() *RankFailedError { return c.w.failure.Load() }

// Recover is the world-wide recovery rendezvous: every *live* rank of the
// Run (the full world minus ranks marked dead with MarkDead/Retire,
// regardless of subcommunicators) must call it after a failure. Once the
// last live rank arrives, the message epoch is advanced, all mailboxes
// purged and the failure flag cleared, so stale traffic from before the
// failure can never match a post-recovery receive. It returns the new
// epoch number.
//
// Recover is intentionally built on shared synchronization rather than
// messages — it models the out-of-band runtime service (mpirun, a
// resource manager) that real fault-tolerant MPI relies on to reach ranks
// whose communicators are broken.
func (c *Comm) Recover() int64 {
	w := c.w
	w.recMu.Lock()
	w.recCount++
	gen := w.recGen
	w.finishRecoveryLocked()
	for gen == w.recGen {
		w.recCond.Wait()
	}
	epoch := w.epoch.Load()
	w.recMu.Unlock()
	return epoch
}

// finishRecoveryLocked completes a pending recovery rendezvous once every
// live rank has arrived. Caller holds recMu. It is re-evaluated both when
// a rank arrives in Recover and when MarkDead lowers the quorum — the
// orderings "survivors arrive first, then learn who died" and vice versa
// both terminate.
func (w *world) finishRecoveryLocked() {
	if w.recCount == 0 || w.recCount < w.size-w.deadCount {
		return
	}
	w.recCount = 0
	w.recGen++
	w.epoch.Add(1)
	for _, m := range w.mailboxes {
		m.purge()
	}
	w.failure.Store(nil)
	w.recCond.Broadcast()
}
