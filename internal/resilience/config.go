// Package resilience is the one recovery driver of the framework. It owns
// what happens *around* a generation of simulation state — when it is
// taken, where its copies live, how a failure is classified, which copy
// every rank agrees to restore and onto which communicator — and knows
// nothing of what a generation contains: a step runtime (internal/sim,
// internal/amr) supplies that through the World interface, as one
// pack/unpack pair per block datum does in the paper's framework.
//
// Protection is a ladder of three rungs: the in-memory buddy ring
// (ring.go), the coordinated disk checkpoint sets (set.go) and the
// runtime's initial state. See docs/RESILIENCE.md.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"walberla/internal/comm"
)

// Mode selects how the driver repairs the world after a permanent rank
// failure.
type Mode int

const (
	// Rewind (the default) keeps the world intact: every rank — including
	// the one that failed, which in the in-process model can rejoin —
	// backs off, rendezvouses and rewinds from the newest valid disk
	// checkpoint set.
	Rewind Mode = iota
	// Shrink drops the failed rank: the survivors shrink the communicator,
	// the dead rank's buddy re-owns its blocks from the in-memory replica,
	// and the run resumes from the replicated step with zero disk I/O
	// (ULFM-style shrinking recovery). Disk checkpoint sets, when
	// configured, remain the fallback for a stale or missing replica
	// generation.
	Shrink
	// Heal additionally repairs the lost capacity: the world grows back to
	// its full size by recruiting a parked spare rank
	// (comm.ParkSpare/GrowWorld), and the dead rank's buddy streams the
	// replica blocks to the recruit instead of adopting them. With the
	// spare pool exhausted a heal degrades to a plain shrink.
	Heal
)

// ErrRetired is returned by the driver on a rank that failed permanently
// under Shrink or Heal: the rank has been removed from the world, the
// survivors carry its blocks on, and this rank must simply return from
// the SPMD function without further communication.
var ErrRetired = errors.New("resilience: rank retired after permanent failure")

// ErrInterrupted is returned (wrapped) by the context-bound drivers when
// the run was stopped by context cancellation rather than by an error:
// the simulation state is a consistent step boundary on every rank, and
// any in-flight checkpoint set was finished (or rolled back atomically)
// before the driver returned.
var ErrInterrupted = errors.New("resilience: run interrupted")

// errSilenced is the internal conversion of an injected Hang: the rank
// must go dark without even marking itself dead — the world has to detect
// the silence through the transport's failure detector.
var errSilenced = errors.New("resilience: rank silenced by injected hang")

// Config tunes the driver.
type Config struct {
	// CheckpointEvery protects every multiple of this step count: a
	// coordinated disk checkpoint set is written when Dir is non-empty,
	// and under Shrink and Heal an in-memory buddy replica generation is
	// produced. 0 disables both: failures rewind to the initial state, and
	// shrink recovery has no replicas to restore from.
	CheckpointEvery int
	// Dir is the checkpoint root directory; one "set-<step>" subdirectory
	// per checkpoint. Empty disables disk checkpointing (Shrink and Heal
	// then run purely in memory); Rewind with a CheckpointEvery needs it.
	Dir string
	// Mode selects rewind (default), shrinking or healing recovery.
	Mode Mode
	// MaxFailures caps how many rank-failure events are tolerated before
	// the run aborts. Negative selects the default of 8; 0 means zero
	// tolerance — abort on the first failure; positive values are the
	// cap.
	MaxFailures int
	// BackoffBase and BackoffMax shape the capped exponential delay
	// between failure detection and the recovery rendezvous; zero means
	// 10ms base, 2s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// Validate normalizes the configuration in place (default failure budget
// and backoff shape) and rejects unknown recovery modes and rewind
// checkpointing without a directory to rewind from. Every World supports
// every mode.
func (c *Config) Validate() error {
	if c.Mode != Rewind && c.Mode != Shrink && c.Mode != Heal {
		return fmt.Errorf("resilience: unknown recovery mode %d", c.Mode)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("resilience: negative checkpoint interval %d", c.CheckpointEvery)
	}
	if c.Mode == Rewind && c.CheckpointEvery > 0 && c.Dir == "" {
		return fmt.Errorf("resilience: rewind checkpointing needs a checkpoint directory (resilience.dir)")
	}
	if c.MaxFailures < 0 {
		c.MaxFailures = 8
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 2 * time.Second
	}
	return nil
}

// backoff returns the capped exponential delay for the nth failure
// (1-based).
func (c *Config) backoff(n int) time.Duration {
	d := c.BackoffBase
	for i := 1; i < n && d < c.BackoffMax; i++ {
		d *= 2
	}
	return min(d, c.BackoffMax)
}

// Stats summarizes the fault-tolerance side of a resilient run on this
// rank: failures observed, protection traffic, and the work redone
// because of restores.
type Stats struct {
	// FailuresDetected counts rank-failure events this rank observed.
	FailuresDetected int
	// Restores counts successful restores (to a replica generation, a
	// checkpoint set, or the initial state when neither existed).
	Restores int
	// StepsReplayed is the total number of time steps re-executed after
	// restores.
	StepsReplayed int
	// CheckpointsWritten counts the checkpoint sets this rank contributed
	// to; CheckpointBytes is this rank's bytes written into them.
	CheckpointsWritten int
	CheckpointBytes    int64
	// TimeLost is the wall time this rank spent in recovery (backoff,
	// rendezvous and state restore), excluding replayed steps.
	TimeLost time.Duration
	// RestoreLatency is the state-restore part of TimeLost alone — from
	// the end of the recovery rendezvous to this rank being ready to step
	// again.
	RestoreLatency time.Duration

	// Replications counts the buddy-replica generations this rank
	// produced; ReplicaBytes is what it put on the wire for them and for
	// heal streams — the envelopes' bytes: the rank-file payload and
	// its 28-byte header.
	Replications int
	ReplicaBytes int64
	// BuddyRestores counts recoveries satisfied entirely from in-memory
	// generations; DiskRestores counts shrink and heal recoveries that
	// had to fall back to a disk checkpoint set.
	BuddyRestores int
	DiskRestores  int
	// Shrinks counts world-shrink events this rank survived;
	// BlocksAdopted is the number of dead ranks' blocks (leaves, on a
	// refined world) this rank re-owned.
	Shrinks       int
	BlocksAdopted int
	// DiskReadsDuringRecovery counts filesystem accesses (set-directory
	// scans and manifest-checked rank-file opens) performed while
	// restoring state after a failure — zero on the pure buddy path.
	DiskReadsDuringRecovery int

	// Heals counts world-heal events this rank took part in — as a
	// survivor, a supplier or a recruited spare.
	Heals int
	// DegradedTime is the wall time this rank observed the world below
	// its full size: from a failure detection until a heal restored the
	// target world size (or until the run ended, under plain shrinking).
	DegradedTime time.Duration
}

// CancelVote is the collective cancellation check of every context-bound
// time loop: each rank contributes whether its context is done, and the
// loop stops iff any rank's is — so all ranks agree on the exact step the
// run ends at. It is a no-op (no communication) for contexts that can
// never be cancelled.
func CancelVote(ctx context.Context, c *comm.Comm) (stop bool, err error) {
	if ctx == nil || ctx.Done() == nil {
		return false, nil
	}
	flag := int64(0)
	if ctx.Err() != nil {
		flag = 1
	}
	v, err := c.AllreduceInt64Err(flag, comm.Max[int64])
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// Interrupted builds the ErrInterrupted-wrapping error of a cancelled
// run, attaching this rank's own context cause when it has one (on ranks
// that merely voted with a cancelled peer the cause is unknown).
func Interrupted(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return fmt.Errorf("%w: %w", ErrInterrupted, cause)
	}
	return ErrInterrupted
}

// sleepCtx sleeps for d or until the context is cancelled, whichever
// comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// guard converts injected-failure panics into the typed errors the
// communication layer returns, so the driver treats "this rank died" and
// "a peer died" uniformly; other panics propagate. Deferred around every
// stretch of driver work that communicates.
func guard(err *error) {
	r := recover()
	if r == nil {
		return
	}
	switch v := r.(type) {
	case comm.Crash:
		*err = &comm.RankFailedError{Rank: v.Rank, Cause: "injected crash"}
		return
	case comm.Hang:
		*err = errSilenced
		return
	case error:
		var rfe *comm.RankFailedError
		if errors.As(v, &rfe) {
			*err = rfe
			return
		}
	}
	panic(r)
}

// minOver is the one restore vote: the minimum of every member's
// contribution, so a single rank that cannot serve a generation (or a
// checkpoint set) vetoes it for all.
func minOver(c *comm.Comm, v int64) (int64, error) {
	return c.AllreduceInt64Err(v, comm.Min[int64])
}

// Agree is the one verdict of a collective change: each member of c
// passes what its own check of the change found, and if any member
// refuses, every member returns an error — its own, or one counting the
// refusals — so no rank goes ahead. Checks come first and communicate
// nothing; Agree is the one collective between them and the change.
func Agree(c *comm.Comm, err error) error {
	var refused int64
	if err != nil {
		refused = 1
	}
	n, cerr := c.AllreduceInt64Err(refused, comm.Sum[int64])
	switch {
	case cerr != nil:
		return cerr
	case err != nil:
		return err
	case n > 0:
		return fmt.Errorf("resilience: refused by %d of %d ranks", n, c.Size())
	}
	return nil
}
