package resilience

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"walberla/internal/comm"
	"walberla/internal/lattice"
	"walberla/internal/output"
	"walberla/internal/telemetry"
)

// State is one rank's blocks at one step as WBK2 records: copies of the
// live fields (an own snapshot), or a decoded rank file (a replica, a heal
// stream, a disk set's file). The driver copies, encodes, decodes, stores,
// votes on and routes states; only a World installs one.
type State = []output.LeafSnapshot

// World is what a step runtime supplies to be run, protected and repaired
// by the driver: how to step, its blocks as records, and how records
// become its blocks again. Everything else — when, where to, which
// generation, in which encoding, onto which communicator — is the
// driver's.
type World interface {
	// Comm returns the communicator the world currently steps on.
	Comm() *comm.Comm
	// Step advances the world by one step.
	Step() error
	// Telemetry returns the driver lane and the metrics registry the
	// recovery timeline is recorded into; both may be nil.
	Telemetry() (*telemetry.Lane, *telemetry.Registry)

	// Records returns this rank's blocks as WBK2 records holding live
	// views of their fields (valid until the next Step or Install), and
	// the stencil their rank file decodes with. A record is
	// self-contained: adopting it needs nothing else.
	Records() (State, *lattice.Stencil)
	// Install commits one restored generation: recs are the records of
	// every block this rank owns at step — its own, then those of the dead
	// ranks it re-owns (none on a rewind; only those on a recruited spare)
	// — and each becomes a block where the records put it. c is the
	// communicator to continue on: the world's own on a rewind, a new one
	// after a shrink or heal. The runtime checks every record without
	// communicating (one shaped unlike its block is an error), the ranks
	// agree on the verdict (Agree) before any record is copied, and the
	// runtime rebuilds its topology from what every rank of c now owns.
	// Collective over c.
	Install(c *comm.Comm, step int, recs State) error
	// Reset rewinds to the initial state at step 0: the last rung, when
	// no generation survives anywhere.
	Reset() error
}

// Driver runs one World under the failure loop.
type Driver struct {
	World  World
	Config Config
	// Ring is the in-memory protection of Shrink and Heal (nil under
	// Rewind).
	Ring *Ring
	// Stats accumulates what the driver did on this rank.
	Stats Stats

	target int // full world size heal grows back to
	lane   *telemetry.Lane
	// start is the step the loop last started from — the run's first step
	// or the restored one — and a protection barrier like every multiple
	// of CheckpointEvery, so a run that starts between two of them is
	// protected from its first step. to is the run's end step, which a
	// heal streams to its recruit.
	start, to int

	checkpointBytes, failures   *telemetry.Counter
	mttrMs, worldSize, degraded *telemetry.Gauge
}

// NewDriver validates the configuration and returns a driver ready to
// Run.
func NewDriver(w World, cfg Config) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lane, reg := w.Telemetry()
	d := &Driver{
		World: w, Config: cfg, target: w.Comm().Size(), lane: lane,
		checkpointBytes: reg.Counter("sim.checkpoint_bytes"),
		failures:        reg.Counter("sim.failures_detected"),
		mttrMs:          reg.Gauge("recovery.mttr_ms"),
		worldSize:       reg.Gauge("recovery.world_size"),
		degraded:        reg.Gauge("recovery.degraded_ms"),
	}
	if cfg.Mode != Rewind {
		d.Ring = NewRing()
		d.Ring.sent = reg.Counter("sim.replica_bytes")
	}
	return d, nil
}

// Run advances the world from step `from` to step `to` under the
// fault-tolerant loop: periodic protection (disk checkpoint sets, and
// under Shrink and Heal in-memory buddy replicas), and on any detected
// rank failure a capped-exponential backoff, a recovery rendezvous and a
// repair before replaying. Because stepping is deterministic, the run
// finishes bit-identical to an uninterrupted one.
//
// Cancellation stops the driver at the next step boundary — never inside
// a checkpoint — with an error wrapping ErrInterrupted; a cancellable
// context costs one scalar allreduce per step so every rank leaves the
// loop at the same step. Under Shrink and Heal a rank that failed
// permanently returns ErrRetired: it is no longer part of the world and
// must not communicate again.
func (d *Driver) Run(ctx context.Context, from, to int) error {
	d.start, d.to = from, to
	step := from
	var dead []int // world ranks whose blocks still need re-owning
	var degradedSince time.Time

	// In heal mode the end of the run — on every path except this rank's
	// own retirement, when one of them is its replacement — must release
	// the parked spares, or they would wait forever for a recruitment that
	// can no longer happen.
	retired := false
	defer func() {
		if c := d.World.Comm(); !retired && d.Config.Mode == Heal && c.WorldSize() > c.Size() {
			c.ReleaseSpares()
		}
	}()

	err := d.attempt(ctx, &step)
	for err != nil {
		if errors.Is(err, errSilenced) {
			// Injected silent failure: go dark without a trace — the
			// survivors must detect the silence via the failure-detection
			// deadline and shrink around this rank.
			retired = true
			return ErrRetired
		}
		// Anything but a rank failure ends the run; cancellation is among
		// them and no failure — every rank left the loop at the same step
		// boundary with every checkpoint set committed.
		var rfe *comm.RankFailedError
		if !errors.As(err, &rfe) {
			return err
		}
		d.Stats.FailuresDetected++
		d.failures.Inc()
		if d.Stats.FailuresDetected > d.Config.MaxFailures {
			return fmt.Errorf("resilience: giving up after %d rank failures: %w", d.Stats.FailuresDetected, err)
		}
		if d.Config.Mode != Rewind {
			if c := d.World.Comm(); rfe.Rank == c.WorldRank() {
				// This rank is the victim: leave the world for good.
				retired = true
				c.Retire()
				return ErrRetired
			}
			if !slices.Contains(dead, rfe.Rank) {
				dead = append(dead, rfe.Rank)
			}
			if degradedSince.IsZero() {
				degradedSince = time.Now()
			}
		}

		// A repair that itself fails is one more failure event: classified
		// above, backed off for, and retried.
		if err = d.recoverFrom(ctx, dead, &step, &degradedSince); err == nil {
			dead = nil
			err = d.attempt(ctx, &step)
		}
	}
	if !degradedSince.IsZero() {
		d.Stats.DegradedTime += time.Since(degradedSince)
	}
	d.publish(time.Time{})
	return nil
}

// attempt executes steps until completion or the first detected failure.
func (d *Driver) attempt(ctx context.Context, step *int) (err error) {
	defer guard(&err)
	w, cfg := d.World, &d.Config
	for *step < d.to {
		// The cancellation vote sits before this step's protection work,
		// so a cancel that lands while a checkpoint set or replica
		// generation is being produced is only acted on at the next step
		// boundary — after the set committed.
		if stop, err := CancelVote(ctx, w.Comm()); err != nil {
			return err
		} else if stop {
			return Interrupted(ctx)
		}
		// Arm this step's injected crashes and hangs (each fires at most
		// once per spec across replays) before any collective work for
		// the step.
		w.Comm().SetStep(*step)
		barrier := cfg.CheckpointEvery > 0 && (*step%cfg.CheckpointEvery == 0 || *step == d.start)
		if barrier && d.Ring != nil && d.Ring.lastStep != *step {
			// Produce a buddy-replica generation, including one at the
			// first step so the buddy always holds at least the state the
			// run started from.
			t0 := d.lane.Start()
			if err := d.Ring.Replicate(w, *step, &d.Stats); err != nil {
				return err
			}
			d.lane.Span(telemetry.PhaseReplicate, *step, 0, t0)
		}
		if barrier && cfg.Dir != "" && *step > 0 {
			t0 := d.lane.Start()
			n, err := WriteSet(w, cfg.Dir, *step)
			if err != nil {
				return err
			}
			if n > 0 {
				d.Stats.CheckpointsWritten++
				d.Stats.CheckpointBytes += n
				d.checkpointBytes.Add(n)
			}
			d.lane.Span(telemetry.PhaseCheckpoint, *step, 0, t0)
		}
		if err := w.Step(); err != nil {
			return err
		}
		*step++
	}
	return w.Comm().BarrierErr()
}

// recoverFrom is one pass of the recovery timeline: back off, rendezvous,
// repair, and account what it cost.
func (d *Driver) recoverFrom(ctx context.Context, dead []int, step *int, degradedSince *time.Time) error {
	recStart, t0 := d.lane.Start(), time.Now()
	// The backoff observes ctx so cancellation mid-recovery does not sit
	// out the whole ladder; the rendezvous and repair still run (skipping
	// them would strand the peers in the collective), and the cancellation
	// vote at the top of the next attempt then exits every rank at the
	// same point.
	sleepCtx(ctx, d.Config.backoff(d.Stats.FailuresDetected))
	c := d.World.Comm()
	for _, w := range dead {
		c.MarkDead(w)
	}
	c.Recover()
	resStart := d.lane.Start()
	restored, err := d.Repair(dead)
	d.Stats.TimeLost += time.Since(t0)
	if err != nil {
		return err
	}
	d.Stats.Restores++
	if *step > restored {
		d.Stats.StepsReplayed += *step - restored
	}
	*step = restored
	if !degradedSince.IsZero() && d.World.Comm().Size() >= d.target {
		// A heal restored the full world size; plain shrinking stays
		// degraded until the run ends.
		d.Stats.DegradedTime += time.Since(*degradedSince)
		*degradedSince = time.Time{}
	}
	d.publish(*degradedSince)
	d.lane.Span(telemetry.PhaseRestore, *step, 0, resStart)
	d.lane.Span(telemetry.PhaseRecovery, *step, 0, recStart)
	return nil
}

// publish refreshes the resilience gauges: mean time to repair, current
// world size, and accumulated degraded wall time.
func (d *Driver) publish(degradedSince time.Time) {
	if d.Stats.Restores > 0 {
		d.mttrMs.Set(float64(d.Stats.TimeLost.Milliseconds()) / float64(d.Stats.Restores))
	}
	d.worldSize.Set(float64(d.World.Comm().Size()))
	deg := d.Stats.DegradedTime
	if !degradedSince.IsZero() {
		deg += time.Since(degradedSince)
	}
	d.degraded.Set(float64(deg.Milliseconds()))
}

// ward is one dead rank whose state this rank supplies.
type ward struct {
	world int // its world rank (keys the ring)
	rank  int // its rank in the pre-repair communicator (names its rank file)
	dest  int // who re-owns its blocks, as a rank of the repaired communicator
}

// Repair restores the world after the recovery rendezvous and returns the
// restored step. dead lists the world ranks that failed permanently (none
// under Rewind, where everyone rejoins). Every dead rank's state has one
// source — its buddy's replica, else the buddy's read of the disk set —
// and one destination — the buddy itself, or under Heal the spare
// recruited in its place; every survivor rewinds to the same generation.
func (d *Driver) Repair(dead []int) (restored int, err error) {
	c := d.World.Comm()
	if d.Config.Mode == Rewind {
		return d.restore(c, c, nil, telemetry.PhaseRestore)
	}
	old := c.Size()
	var deadOld []int // dead ranks of the pre-repair communicator, ascending
	for _, w := range dead {
		r := c.CommRankOf(w)
		if r < 0 {
			return 0, fmt.Errorf("resilience: dead world rank %d is not a member of the communicator", w)
		}
		deadOld = append(deadOld, r)
	}
	slices.Sort(deadOld)

	// The repaired communicator: the survivors plus, under Heal, one
	// recruit per dead rank. No recruits means the spare pool is exhausted
	// — the run degrades to shrinking and carries on at reduced size.
	var nc *comm.Comm
	var recruits []int // ranks of nc that were not members of c, ascending
	phase := telemetry.PhaseShrink
	if d.Config.Mode == Heal {
		if nc = c.GrowWorld(d.target); nc == nil {
			return 0, ErrRetired
		}
		for r := 0; r < nc.Size(); r++ {
			if c.CommRankOf(nc.WorldRankOf(r)) < 0 {
				recruits = append(recruits, r)
			}
		}
		if len(recruits) != 0 && len(recruits) != len(deadOld) {
			// Single-failure-at-a-time semantics make a partial recruitment
			// unreachable; refuse rather than desynchronize with the spares.
			return 0, fmt.Errorf("resilience: %d recruits for %d dead ranks", len(recruits), len(deadOld))
		}
	}
	if len(recruits) == 0 {
		if nc, _ = c.Shrink(); nc == nil {
			return 0, ErrRetired
		}
	} else {
		phase = telemetry.PhaseHeal
	}

	// The old→new rank map, a routing table of this rank's alone. Survivors
	// keep their identity; a dead rank maps to whoever re-owns its blocks:
	// the i-th recruit for the i-th dead rank, else its buddy — both
	// deterministic, so no agreement traffic is needed. A dead buddy means
	// the replica is gone with it: with single-failure-at-a-time semantics
	// this cannot occur (the previous failure is fully recovered, and
	// re-protected, before the next one is handled), so it is
	// unrecoverable.
	redirect := make([]int, old)
	for r := range redirect {
		redirect[r] = nc.CommRankOf(c.WorldRankOf(r))
	}
	var mine []ward
	for i, dr := range deadOld {
		buddy := (dr + 1) % old
		if slices.Contains(deadOld, buddy) {
			return 0, fmt.Errorf("resilience: buddy rank of dead rank %d died too; compound failure is unrecoverable", dr)
		}
		redirect[dr] = redirect[buddy]
		if len(recruits) > 0 {
			redirect[dr] = recruits[i]
		}
		if buddy == c.Rank() {
			mine = append(mine, ward{world: c.WorldRankOf(dr), rank: dr, dest: redirect[dr]})
		}
	}
	for r, nr := range redirect {
		if nr < 0 {
			return 0, fmt.Errorf("resilience: surviving rank %d missing from the repaired communicator", r)
		}
	}
	return d.restore(c, nc, mine, phase)
}

// restore picks the restore generation over nc — memory, else disk, else
// (under Rewind only) the initial state — routes every ward's state to
// its destination and commits. c is the pre-repair communicator, nil on
// a recruited spare: it holds nothing, votes neutrally throughout and
// receives its blocks by stream. A failure can strike during recovery
// traffic too, hence the guard.
func (d *Driver) restore(c, nc *comm.Comm, mine []ward, phase telemetry.Phase) (restored int, err error) {
	defer guard(&err)
	start, t0 := time.Now(), d.lane.Start()
	w, cfg := d.World, &d.Config
	var own State
	wards := make([]State, len(mine))
	step, found := 0, false

	if cfg.Mode != Rewind {
		worlds := make([]int, len(mine))
		for i, wd := range mine {
			worlds[i] = wd.world
		}
		ring := d.Ring
		if c == nil {
			ring = nil
		}
		g, ok, err := ring.vote(nc, worlds)
		if err != nil {
			return 0, err
		}
		if step, found = g, ok; found {
			d.Stats.BuddyRestores++
			if c != nil {
				own = d.Ring.ownAt(g).State
			}
			for i, wd := range mine {
				wards[i] = d.Ring.ReplicaAt(wd.world, g).State
			}
		}
	}
	if !found {
		if cfg.Mode != Rewind && cfg.Dir == "" {
			return 0, fmt.Errorf("resilience: no common in-memory generation and no disk checkpoint directory configured")
		}
		// The set was written under the pre-repair communicator, whose
		// ranks name its files.
		var load func(string) error
		if c != nil {
			load = func(setDir string) (err error) {
				if own, err = d.readRankFile(setDir, c.Rank(), c.Size()); err != nil {
					return err
				}
				for i, wd := range mine {
					if wards[i], err = d.readRankFile(setDir, wd.rank, c.Size()); err != nil {
						return err
					}
				}
				return nil
			}
		}
		s, ok, err := d.newestUsableSet(nc, cfg.Dir, load)
		if err != nil {
			return 0, err
		}
		if !ok {
			if cfg.Mode != Rewind {
				return 0, fmt.Errorf("resilience: no usable disk checkpoint set for recovery in %s", cfg.Dir)
			}
			// No usable checkpoint: rewind to the initial state.
			if err := w.Reset(); err != nil {
				return 0, err
			}
			d.Stats.RestoreLatency += time.Since(start)
			return 0, nil
		}
		if cfg.Mode != Rewind {
			d.Stats.DiskRestores++
		}
		step = int(s)
	}

	// Route the wards: adopt here, or stream to the recruit in the replica
	// envelope, with the step the run ends at.
	var adopt []State
	for i, wd := range mine {
		if wd.dest == nc.Rank() {
			adopt = append(adopt, wards[i])
			continue
		}
		env := envelope{Step: step, SrcWorld: wd.world, To: d.to}
		if err := d.Ring.send(nc, wd.dest, tagForward, env.seal(wards[i]), &d.Stats); err != nil {
			return 0, err
		}
	}
	if c == nil {
		env, err := receive(nc, comm.AnySource, tagForward)
		if err != nil {
			return 0, err
		}
		state, err := decode(w, env)
		if err != nil {
			return 0, fmt.Errorf("resilience: heal stream for step %d failed validation: %w", env.Step, err)
		}
		adopt, d.to = []State{state}, env.To
	}

	recs := slices.Concat(append([]State{own}, adopt...)...)
	if err := w.Install(nc, step, recs); err != nil {
		return 0, err
	}
	d.Stats.BlocksAdopted += len(recs) - len(own)
	d.start = step
	// This rank is ready to step again; what remains is waiting for the
	// peers. RestoreLatency is the per-rank rendezvous-to-ready time, so it
	// is taken here — the barrier below is coordination, and the moments
	// after it are already re-protection work competing for cores.
	ready := time.Since(start)
	if cfg.Mode != Rewind {
		if phase == telemetry.PhaseHeal {
			d.Stats.Heals++
		} else {
			d.Stats.Shrinks++
		}
		// Drop all pre-repair generations (their communicator ranks are
		// stale). Re-protection is NOT done here — the restored step is
		// always a checkpoint barrier, so the time loop re-replicates on the
		// new topology before the first post-restore step, outside the
		// measured restore window.
		d.Ring.reset()
		// Recovery completes collectively, recruit included: no rank
		// resumes the time loop while a peer is still committing the
		// repaired topology.
		if err := nc.BarrierErr(); err != nil {
			return 0, err
		}
		d.lane.Span(phase, step, 0, t0)
	}
	d.Stats.RestoreLatency += ready
	return step, nil
}

// RestoreNewestSet rewinds the world to the newest checkpoint set under
// dir that every rank can load and CRC-validate, voting sets down
// collectively so all ranks restore the same one; with no usable set the
// world is reset to its initial state. Returns the restored step.
func RestoreNewestSet(w World, dir string) (int64, error) {
	d := &Driver{World: w, Config: Config{Dir: dir}}
	step, err := d.restore(w.Comm(), w.Comm(), nil, telemetry.PhaseRestore)
	return int64(step), err
}

// RunSpare parks this rank as a hot spare of a heal-mode run: it waits at
// the communicator layer, joins every recovery rendezvous, and when
// recruited receives the dead rank's state and finishes the run as a full
// member of the world, up to the survivors' end step that arrives with
// its state. world is the communicator this rank received from comm.Run,
// active the target active world size, and build constructs the
// recruit's (still empty) World on the grown communicator. It returns
// joined=false when the run ended without needing this spare, and
// otherwise the joined run's World and stats; like Run it returns
// ErrRetired if this rank itself fails permanently after joining.
func RunSpare(ctx context.Context, world *comm.Comm, active int, cfg Config, build func(*comm.Comm) (World, error)) (w World, st Stats, joined bool, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, false, err
	}
	if cfg.Mode != Heal {
		return nil, Stats{}, false, fmt.Errorf("resilience: RunSpare requires recovery mode heal, got mode %d", cfg.Mode)
	}
	if _, join := world.ParkSpare(active); !join {
		return nil, Stats{}, false, nil
	}
	nc := world.GrowWorld(active)
	if nc == nil {
		return nil, Stats{}, true, fmt.Errorf("resilience: recruited spare is outside the grown communicator")
	}
	// A recruit failing mid-join collapses the heal and ends the run for
	// everyone, so any exit before Run takes over must release the
	// remaining spares; Run's own release logic is in charge after that.
	release := true
	defer func() {
		if release && nc.WorldSize() > nc.Size() {
			nc.ReleaseSpares()
		}
	}()
	if w, err = build(nc); err != nil {
		return w, Stats{}, true, err
	}
	d, err := NewDriver(w, cfg)
	if err != nil {
		return w, Stats{}, true, err
	}
	d.target = active
	// The recruit's side of Repair.
	step, err := d.restore(nil, nc, nil, telemetry.PhaseHeal)
	if err != nil {
		return w, d.Stats, true, err
	}
	d.worldSize.Set(float64(nc.Size()))
	release = false
	err = d.Run(ctx, step, d.to)
	return w, d.Stats, true, err
}
