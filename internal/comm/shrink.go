package comm

// Shrinking recovery — the ULFM-style alternative to rewind-and-replay.
// A rank that has failed permanently is marked dead (MarkDead by the
// survivors, Retire by the victim itself when it can); the recovery
// rendezvous then completes with the live ranks only, and Shrink derives
// the surviving subcommunicator with a dense re-ranking plus the old→new
// rank map the application needs to re-own the dead rank's work. The
// shrunk communicator shares the world: messages, epochs, statistics and
// any later failures behave exactly as on the original.

// MarkDead records the permanent death of a world rank. Idempotent and
// callable by any rank at any time; a pending recovery rendezvous is
// re-evaluated, so the orderings "Recover first, then MarkDead" and the
// reverse both complete. Dead ranks are excluded from every future
// Recover quorum and from communicators built by Shrink.
func (c *Comm) MarkDead(worldRank int) {
	w := c.w
	if worldRank < 0 || worldRank >= w.size {
		panic("comm: MarkDead of invalid world rank")
	}
	w.recMu.Lock()
	newly := !w.dead[worldRank]
	if newly {
		w.dead[worldRank] = true
		w.deadCount++
		w.finishRecoveryLocked()
	}
	w.recMu.Unlock()
	if newly && w.transport != nil {
		// Outside recMu: the transport closes sockets and sheds retained
		// frames, which takes connection locks of its own.
		w.transport.noteDead(worldRank)
	}
}

// Retire marks the calling rank itself permanently dead — the last act of
// a rank that knows it has failed (e.g. it caught its own injected crash
// under a shrinking-recovery driver). After Retire the rank must not
// communicate or call Recover; it simply returns from the SPMD function.
func (c *Comm) Retire() { c.MarkDead(c.WorldRank()) }

// Alive reports whether a world rank has not been marked permanently
// dead.
func (c *Comm) Alive(worldRank int) bool {
	w := c.w
	w.recMu.Lock()
	defer w.recMu.Unlock()
	return worldRank >= 0 && worldRank < w.size && !w.dead[worldRank]
}

// CommRankOf translates a world rank into this communicator's rank space,
// returning -1 when the rank is not a member.
func (c *Comm) CommRankOf(worldRank int) int {
	if r, ok := c.toIndex[worldRank]; ok {
		return r
	}
	return -1
}

// WorldRankOf translates a rank of this communicator into its world rank,
// returning -1 when the rank is out of range.
func (c *Comm) WorldRankOf(commRank int) int {
	if commRank < 0 || commRank >= len(c.group) {
		return -1
	}
	return c.group[commRank]
}

// Shrink builds the communicator of this communicator's surviving
// members: every member not marked dead, densely re-ranked in the old
// rank order. It returns the new communicator plus the old→new rank map
// (indexed by old communicator rank, -1 for dead members). A caller that
// is itself dead receives a nil communicator.
//
// Shrink is pure-local (no messages — the members agree because the dead
// set and the epoch are shared world state), so survivors can call it
// even though the old communicator is revoked. It must be called at an
// agreed point after Recover: the context id of the shrunk communicator
// is derived deterministically from the parent context and the recovery
// epoch, so all survivors build the same communicator and successive
// shrinks never collide with each other or with the world's context 0.
func (c *Comm) Shrink() (*Comm, []int) {
	w := c.w
	w.recMu.Lock()
	dead := append([]bool(nil), w.dead...)
	w.recMu.Unlock()

	rankMap := make([]int, len(c.group))
	var group []int
	for i, wr := range c.group {
		rankMap[i] = -1
		if !dead[wr] {
			rankMap[i] = len(group)
			group = append(group, wr)
		}
	}
	// The parent context salts the derivation: successive shrinks differ
	// because every recovery advances the epoch.
	return c.derive(group, uint64(int64(c.ctx))), rankMap
}

// derive builds the communicator of the given world ranks, densely ranked
// in that order, or nil when this rank is not among them. Its context id
// is negative (disjoint from the world's context 0) and mixed from the
// recovery epoch and salt: members agree because both are shared.
func (c *Comm) derive(group []int, salt uint64) *Comm {
	toIndex := make(map[int]int, len(group))
	for i, wr := range group {
		toIndex[wr] = i
	}
	rank, ok := toIndex[c.WorldRank()]
	if !ok {
		return nil
	}
	h := mix64(uint64(c.w.epoch.Load())<<32 ^ salt)
	return &Comm{
		w: c.w, group: group, toIndex: toIndex, rank: rank,
		ctx: -int(h>>1) - 1, stats: c.stats, tel: c.tel,
	}
}
