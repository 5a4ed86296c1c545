package comm

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Deterministic fault injection. A FaultPlan describes message delays as
// a pure function of (seed, sender rank, per-rank send counter) plus
// explicit rank crash and hang trigger points, so a faulty run is exactly
// reproducible: the same plan against the same SPMD program injects the
// same faults, independent of goroutine scheduling.

// FaultPlan describes the faults to inject into one Run. Messages are
// delayed, never lost: both transports deliver reliably, and the socket
// transport's frame-level loss (NetFaultPlan.Drop) is absorbed by resend.
type FaultPlan struct {
	// Seed drives the per-message delay decisions.
	Seed int64
	// DelayProb is the probability in [0,1] that a message is delivered
	// late, after a pseudo-random delay in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected delivery delays.
	MaxDelay time.Duration
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

// Validate checks the plan against a world of n ranks; RunWithOptions
// panics on an invalid plan, so front ends should validate user-supplied
// plans first.
func (p *FaultPlan) Validate(n int) error {
	if p.DelayProb < 0 || p.DelayProb > 1 {
		return fmt.Errorf("fault plan: delay probability %v outside [0,1]", p.DelayProb)
	}
	if p.DelayProb > 0 && p.MaxDelay <= 0 {
		return fmt.Errorf("fault plan: delay probability %v requires a positive MaxDelay", p.DelayProb)
	}
	for _, cs := range p.Crashes {
		if cs.Rank < 0 || cs.Rank >= n {
			return fmt.Errorf("fault plan: crash rank %d outside world of size %d", cs.Rank, n)
		}
		if cs.Step < 0 {
			return fmt.Errorf("fault plan: negative crash step %d", cs.Step)
		}
	}
	for _, hs := range p.Hangs {
		if hs.Rank < 0 || hs.Rank >= n {
			return fmt.Errorf("fault plan: hang rank %d outside world of size %d", hs.Rank, n)
		}
		if hs.Step < 0 {
			return fmt.Errorf("fault plan: negative hang step %d", hs.Step)
		}
	}
	return nil
}

// Fault decision sub-streams. The values are mixed into every decision:
// changing one changes which messages every seeded plan delays.
const (
	faultKindDelay = 2 + iota
	faultKindDelayLen
)

// mix64 is the splitmix64 finalizer, a cheap high-quality bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// chance returns a deterministic uniform value in [0,1) for the n-th send
// of a rank under decision sub-stream kind.
func (p *FaultPlan) chance(kind, rank int, n uint64) float64 {
	h := mix64(uint64(p.Seed)<<16 ^ uint64(kind)<<56 ^ uint64(rank)<<40 ^ n)
	return float64(h>>11) / float64(1<<53)
}

// injectSendFaults applies the delay decision to one outgoing message.
// It returns done=true when the message was consumed by the injector
// (scheduled for delayed delivery).
func (c *Comm) injectSendFaults(p *FaultPlan, worldDst int, msg message) (done bool, err error) {
	w := c.w
	n := w.sendSeq[c.WorldRank()].Add(1)
	if p.DelayProb > 0 && p.chance(faultKindDelay, c.WorldRank(), n) < p.DelayProb {
		c.stats.Delayed++
		c.tel.delay(worldDst)
		if msg.f64 != nil {
			// Typed payloads may be persistent buffers the sender repacks
			// next step; a delayed delivery must snapshot the contents.
			msg.f64 = append([]float64(nil), msg.f64...)
		}
		d := time.Duration(p.chance(faultKindDelayLen, c.WorldRank(), n) * float64(p.MaxDelay))
		epoch := w.epoch.Load()
		mb := w.mailboxes[worldDst]
		// The timer is registered before its callback can observe the
		// registry, and the callback delivers only while still registered:
		// stopDelayedTimers (recovery, run teardown) clears the registry,
		// so a timer it could not Stop in time sheds its message instead of
		// delivering into a recovered or torn-down world.
		w.timerMu.Lock()
		if w.timersClosed {
			w.timerMu.Unlock()
			return true, nil
		}
		var t *time.Timer
		t = time.AfterFunc(d, func() {
			w.timerMu.Lock()
			_, live := w.timers[t]
			delete(w.timers, t)
			w.timerMu.Unlock()
			// A recovery between send and delivery invalidated this
			// message: traffic never crosses epochs.
			if !live || w.epoch.Load() != epoch {
				return
			}
			mb.put(msg, w.failErr) //nolint:errcheck // late traffic may be shed on failure
		})
		w.timers[t] = struct{}{}
		w.timerMu.Unlock()
		return true, nil
	}
	return false, nil
}

// stopDelayedTimers stops and deregisters all pending delayed-delivery
// timers; final additionally refuses future registrations (run teardown).
// A timer that already fired finds itself deregistered and sheds its
// message.
func (w *world) stopDelayedTimers(final bool) {
	w.timerMu.Lock()
	for t := range w.timers {
		t.Stop()
	}
	clear(w.timers)
	if final {
		w.timersClosed = true
	}
	w.timerMu.Unlock()
}

// pendingDelayedTimers reports the number of registered delayed-delivery
// timers (teardown invariant checked by tests).
func (w *world) pendingDelayedTimers() int {
	w.timerMu.Lock()
	defer w.timerMu.Unlock()
	return len(w.timers)
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
// last live rank arrives, all mailboxes are purged, pending
// delayed-delivery timers stopped, the failure flag cleared and the
// message epoch advanced, so stale traffic from before the failure can
// never match a post-recovery receive. It returns the new epoch number.
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
	w.stopDelayedTimers(false)
	for _, m := range w.mailboxes {
		m.purge()
	}
	w.failure.Store(nil)
	w.recCond.Broadcast()
}
