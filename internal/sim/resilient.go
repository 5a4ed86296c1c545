package sim

import (
	"context"
	"time"

	"walberla/internal/comm"
	"walberla/internal/lattice"
	"walberla/internal/resilience"
	"walberla/internal/telemetry"
)

// Resilient execution, of a uniform and a refined world alike. The failure
// loop, the checkpoint-set protocol, the buddy ring and the restore vote
// live in internal/resilience, which also reads a set's files and copies,
// encodes and decodes the records; this file supplies what a generation of
// a world *contains* (the resilience.World methods of type world: its
// blocks as WBK2 records with their full leaf identity — a uniform block is
// the level-0 leaf of its root; installing one record list) and the public
// entry points. A record is self-contained: its identity fixes the block's
// box, and flags are a function of the geometry and the neighbourhood. So
// every restore — a rewind, a shrink or a heal — lands each record where
// the generation put it through the one landing routine (Land): the ranks
// agree that every record fits, every rank allgathers the leaf set,
// rebuilds its neighbourhoods from it, keeps the blocks it holds and
// builds the adopted ones, flags included, as construction does; a refined
// world's Refiner takes the landed leaf set, so re-grades between the
// generation and the failure are undone with the fields. Protection is
// taken at a step barrier, and stepping, the refine/coarsen controller and
// its balancer are deterministic, so a restored run replays the exact step
// sequence and finishes bit-identical to an uninterrupted one. See
// docs/RESILIENCE.md.

// The resilience vocabulary under the names this package has always
// exported.
type (
	// RecoveryMode selects how RunResilient repairs the world after a
	// permanent rank failure.
	RecoveryMode = resilience.Mode
	// ResilienceConfig tunes RunResilient.
	ResilienceConfig = resilience.Config
	// RecoveryStats summarizes the fault-tolerance side of a resilient
	// run on this rank.
	RecoveryStats = resilience.Stats
)

const (
	RecoverRewind = resilience.Rewind
	RecoverShrink = resilience.Shrink
	RecoverHeal   = resilience.Heal
)

var (
	// ErrRetired is returned by RunResilient on a rank that failed
	// permanently under RecoverShrink or RecoverHeal.
	ErrRetired = resilience.ErrRetired
	// ErrInterrupted is returned (wrapped) by RunCtx and RunResilientCtx
	// when the run was stopped by context cancellation.
	ErrInterrupted = resilience.ErrInterrupted
)

// WriteCheckpointSet writes a coordinated checkpoint set for the given
// step: every rank writes all of its blocks (both PDF fields, since the
// field hash folds the solid interior cells of both) into a per-rank WBK2
// file, committed atomically by the set protocol (resilience.WriteSet).
// Returns the bytes this rank wrote (0 if the set already existed).
func (s *Simulation) WriteCheckpointSet(dir string, step int) (int64, error) {
	return resilience.WriteSet(world{s}, dir, step)
}

// RestoreLatestCheckpointSet rewinds the simulation to the newest
// checkpoint set that every rank can load and CRC-validate
// (resilience.RestoreNewestSet); simulated time continues from the set's
// step (WorldStep). With no usable set, the fields are re-initialized to
// the configured step-zero state. Returns the restored step.
func (s *Simulation) RestoreLatestCheckpointSet(dir string) (int64, error) {
	return resilience.RestoreNewestSet(world{s}, dir)
}

// RunResilient advances the simulation by the given number of steps under
// the fault-tolerant driver (resilience.Driver): periodic protection, and
// on any detected rank failure a backoff, a recovery rendezvous and a
// repair in the configured mode before replaying. Under RecoverShrink and
// RecoverHeal a rank that failed permanently returns ErrRetired: it is no
// longer part of the world and must not communicate again.
func (s *Simulation) RunResilient(steps int, rc ResilienceConfig) (Metrics, error) {
	return s.RunResilientCtx(context.Background(), steps, rc)
}

// RunResilientCtx is RunResilient bound to a context. Cancellation stops
// the driver at the next step boundary — never inside a checkpoint — with
// an error wrapping ErrInterrupted.
func (s *Simulation) RunResilientCtx(ctx context.Context, steps int, rc ResilienceConfig) (Metrics, error) {
	d, err := resilience.NewDriver(world{s}, rc)
	if err != nil {
		return Metrics{}, err
	}
	return s.runDriver(ctx, d, steps)
}

// runDriver runs the driver for steps steps from the current simulated
// time — so checkpoint sets and fault schedules count absolute steps, also
// after a restore — and reduces the run's metrics.
func (s *Simulation) runDriver(ctx context.Context, d *resilience.Driver, steps int) (Metrics, error) {
	s.ResetTimers()
	start := time.Now()
	if err := d.Run(ctx, s.worldSteps, s.worldSteps+steps); err != nil {
		return Metrics{}, err
	}
	m, err := s.gatherMetrics(steps, time.Since(start))
	if err != nil {
		return Metrics{}, err
	}
	m.Recovery = d.Stats
	return m, nil
}

// RunSpareCtx parks this rank as a hot spare of a heal-mode resilient
// run: it waits at the communicator layer, joins every recovery
// rendezvous, and when recruited receives the dead rank's state and
// finishes the run as a full member of the world — the spare-rank
// counterpart of RunResilientCtx. wc is the world communicator this rank
// received from comm.Run; active is the target active world size; build
// makes, on the grown communicator, the world that owns no block yet which
// the recruit adopts its blocks into (a uniform one is New on the forest
// header alone; the block assignment itself is streamed on recruitment,
// with the step the survivors run to); steps is the run's length, which
// the metrics are reduced over. It returns joined=false with a nil Simulation when the run
// ended without needing this spare, and otherwise the joined run's
// Simulation (for FieldHash and the like) and metrics. Like
// RunResilientCtx it returns ErrRetired if this rank itself fails
// permanently after joining.
func RunSpareCtx(ctx context.Context, wc *comm.Comm, active int, build func(c *comm.Comm) (*Simulation, error), steps int, rc ResilienceConfig) (*Simulation, Metrics, bool, error) {
	var s *Simulation
	var start time.Time
	_, rec, joined, err := resilience.RunSpare(ctx, wc, active, rc, func(c *comm.Comm) (resilience.World, error) {
		start = time.Now()
		var err error
		s, err = build(c)
		return world{s}, err
	})
	if err != nil || !joined {
		return s, Metrics{}, joined, err
	}
	// The recruit counted its blocks' updates from step 0 on (Install); the
	// run began steps before its end.
	for i := range s.work {
		s.work[i] -= int64(s.worldSteps-steps) * s.stepWork[i]
	}
	m, err := s.gatherMetrics(steps, time.Since(start))
	m.Recovery = rec
	return s, m, true, err
}

// world is the simulation as the recovery driver sees it; its Step is
// the Simulation's. Its state is a decoded rank file:
// []output.LeafSnapshot.
type world struct{ *Simulation }

func (w world) Comm() *comm.Comm { return w.Simulation.Comm }

func (w world) Telemetry() (*telemetry.Lane, *telemetry.Registry) {
	return w.tel.driver, w.Config.Metrics
}

// Records are the live blocks as WBK2 records.
func (w world) Records() (resilience.State, *lattice.Stencil) {
	return records(w.Blocks), w.Stencil
}

// Reset re-initializes every block — a refined world rebuilds its step-0
// forest — and simulated time.
func (w world) Reset() error {
	w.worldSteps = 0
	var err error
	if w.refiner != nil {
		err = w.refiner.Reset()
	} else {
		for _, bd := range w.Blocks { // the step-0 state, as assembled
			w.fillUniform(bd)
			w.applyInitialState(bd)
		}
	}
	w.rebaseWork(0)
	return err
}

// Install lands the records where the generation put them (Land), on c —
// a rewind, a shrink and a heal alike.
func (w world) Install(c *comm.Comm, step int, recs resilience.State) error {
	if err := w.Land(c, recs); err != nil {
		return err
	}
	// Simulated time resumes at the restored step; the plain driver's
	// fault-injection announcements continue from there.
	w.worldSteps = step
	w.rebaseWork(step)
	return nil
}
