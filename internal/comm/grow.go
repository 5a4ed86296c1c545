package comm

import "slices"

// World re-growing — the healing counterpart of shrink.go. A Run may be
// started with more ranks than the application actively computes on; the
// extra ranks park as *spares* (ParkSpare) while the first `target` live
// world ranks carry the simulation on the communicator built by
// GrowWorld(target). When a rank fails permanently, the survivors shrink
// around it as usual and then *grow* back to the target size: the same
// GrowWorld call, evaluated against the updated dead set, deterministically
// recruits the lowest-indexed live spare into the active set. The recruit
// observes its own recruitment from the shared dead set after the recovery
// rendezvous, so no membership traffic is needed — like Shrink, GrowWorld
// is pure-local.
//
// Parked spares are full members of the world: they hold mailboxes, the
// socket transport keeps connections (and heartbeats) to them, and they
// join every recovery rendezvous — Recover's quorum spans all live world
// ranks, actives and spares alike.

// growCtxSalt distinguishes the context-id derivation of grown
// communicators from Shrink's: a heal performs both a shrink and a grow
// within one recovery epoch, so the two derivations must mix different
// inputs. The salt has bit 62 set, a value no Shrink context occupies in
// practice.
const growCtxSalt = uint64(1) << 62

// WorldSize returns the total number of ranks of the Run this
// communicator belongs to, including parked spares and dead ranks.
func (c *Comm) WorldSize() int { return c.w.size }

// GrowWorld builds the communicator of the first `target` live world
// ranks, in world-rank order — the *active* communicator of a world with
// spares. Pure-local, like Shrink: the members agree because the dead set
// and the epoch are shared world state. Fewer than `target` live ranks
// yield a smaller communicator (the spare pool is exhausted); a caller
// outside the active set receives nil. Must be called at an agreed point
// (at world start, or directly after Recover), because the context id is
// derived from the recovery epoch.
func (c *Comm) GrowWorld(target int) *Comm {
	c.w.recMu.Lock()
	active := c.w.activeLocked(target)
	c.w.recMu.Unlock()
	// Successive grows differ because every recovery advances the epoch;
	// the salt keeps a grow at epoch E disjoint from the shrink at E.
	return c.derive(active, growCtxSalt)
}

// activeLocked returns the first `target` live world ranks, in world-rank
// order. Caller holds w.recMu.
func (w *world) activeLocked(target int) []int {
	var active []int
	for wr := 0; wr < w.size && len(active) < target; wr++ {
		if !w.dead[wr] {
			active = append(active, wr)
		}
	}
	return active
}

// ParkSpare blocks the calling rank until the active world of the given
// target size needs it or the run ends. While parked, the rank joins
// every recovery rendezvous (Recover's quorum spans all live world
// ranks). It returns (epoch, true) when, after a completed recovery, this
// rank has become a member of the active set — the caller must then build
// the active communicator with GrowWorld(target) and join the
// application's healing protocol — or (0, false) once ReleaseSpares has
// been called (the run is over and the spare was never needed).
func (c *Comm) ParkSpare(target int) (int64, bool) {
	w := c.w
	w.recMu.Lock()
	defer w.recMu.Unlock()
	for {
		if w.sparesReleased {
			return 0, false
		}
		if w.failure.Load() == nil {
			// Nothing to do: wait for a declared failure or the release.
			// declareFailure broadcasts recCond, so the wakeup is not lost.
			w.recCond.Wait()
			continue
		}
		// A failure is declared: join the rendezvous exactly as Recover
		// does, and re-examine the active set once it completes.
		w.recCount++
		gen := w.recGen
		w.finishRecoveryLocked()
		for gen == w.recGen && !w.sparesReleased {
			w.recCond.Wait()
		}
		if w.sparesReleased {
			// The run is ending mid-recovery (e.g. the failure budget was
			// exhausted); the rendezvous will never complete.
			return 0, false
		}
		if slices.Contains(w.activeLocked(target), c.WorldRank()) {
			return w.epoch.Load(), true
		}
	}
}

// Accuse declares the given world rank failed, exactly as a transport's
// failure detector (in-process watchdog, connection heartbeat) would: every
// pending error-returning operation aborts with a *RankFailedError and
// parked spares wake into the recovery rendezvous. It is the ULFM
// "revoke" analogue for callers that learn about a death out-of-band — a
// supervisor process, or a test harness. Only the first accusation of an
// epoch sticks; Accuse does not mark the rank dead (see MarkDead).
func (c *Comm) Accuse(worldRank int, cause string) {
	c.w.declareFailure(&RankFailedError{Rank: worldRank, Cause: cause})
}

// ReleaseSpares marks the run as over for every parked spare: current and
// future ParkSpare calls return immediately with joined=false. Idempotent
// and callable by any rank on any communicator of the world; the resilient
// driver calls it on every exit path so spares can never outlive the
// active ranks. Terminal for the world — a released world cannot park
// spares again.
func (c *Comm) ReleaseSpares() {
	w := c.w
	w.recMu.Lock()
	w.sparesReleased = true
	w.recCond.Broadcast()
	w.recMu.Unlock()
}
