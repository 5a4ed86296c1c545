package amr

import (
	"context"

	"walberla/internal/comm"
	"walberla/internal/lattice"
	"walberla/internal/output"
	"walberla/internal/resilience"
	"walberla/internal/telemetry"
)

// Resilient execution for refined worlds. The failure loop, the
// checkpoint-set protocol, the buddy ring, the restore vote, the rank-
// file codec and the reading of a set's files are internal/resilience's;
// this file supplies what a generation of a refined world consists of
// (the resilience.World methods of type world): Records — the owned
// leaves as WBK2 records, which carry the full leaf identity (tree,
// octree path, level, coordinates) alongside both PDF fields; and Install
// — one record list (this rank's own leaves, then the wards' it adopts)
// landed by the routine the uniform runtime lands its records with
// (sim.Simulation.Land): checked and agreed on by every rank before any is
// copied, the forest of the restored step rebuilt from the restored
// leaves themselves, so re-grades between the checkpoint and the failure
// are undone together with the field state, the leaves this rank holds
// kept and the others assembled like every leaf, flags from the block and
// its neighbourhood, so a record is self-contained. Because stepping, the
// refinement controller and the balancer are all deterministic, a
// recovered run — rewound, shrunk or healed onto a recruited spare
// (RunSpareCtx) — finishes bit-identical to an uninterrupted one.

// WriteCheckpointSet writes a coordinated checkpoint set for the given
// coarse step: every rank snapshots all of its leaves into a per-rank
// WBK2 file, committed atomically by the set protocol. Returns the bytes
// this rank wrote (0 if the set already existed).
func (s *Sim) WriteCheckpointSet(dir string, step int) (int64, error) {
	return resilience.WriteSet(world{s}, dir, step)
}

// RestoreLatestCheckpointSet rewinds the simulation to the newest
// checkpoint set every rank can load and CRC-validate. The restored
// forest topology replaces the current one entirely. With no usable set,
// the world rewinds to the initial uniform forest. Returns the restored
// coarse step.
func (s *Sim) RestoreLatestCheckpointSet(dir string) (int64, error) {
	return resilience.RestoreNewestSet(world{s}, dir)
}

// RunResilient advances the simulation to the given coarse step under the
// fault-tolerant driver. Under resilience.Shrink and resilience.Heal a
// rank that failed permanently returns resilience.ErrRetired.
func (s *Sim) RunResilient(steps int, rc resilience.Config) (resilience.Stats, error) {
	return s.RunResilientCtx(context.Background(), steps, rc)
}

// RunResilientCtx is RunResilient bound to a context. Cancellation stops
// the driver at the next coarse-step boundary, never inside a checkpoint,
// with an error wrapping resilience.ErrInterrupted.
func (s *Sim) RunResilientCtx(ctx context.Context, steps int, rc resilience.Config) (resilience.Stats, error) {
	d, err := resilience.NewDriver(world{s}, rc)
	if err != nil {
		return resilience.Stats{}, err
	}
	err = d.Run(ctx, s.step, steps)
	return d.Stats, err
}

// RunSpareCtx parks this rank as a hot spare of a heal-mode resilient run
// of a refined world — the spare-rank counterpart of RunResilientCtx. It
// waits at the communicator layer, joins every recovery rendezvous, and
// when recruited builds a world that owns no leaf on the grown
// communicator, adopts the dead rank's streamed leaves (the forest is
// rebuilt from every rank's leaves, as on any restore) and finishes the
// run as a full member of the world. wc is the world communicator this
// rank received from comm.Run; active is the target active world size. It
// returns joined=false with a nil Sim when the run ended without needing
// this spare. Like RunResilientCtx it returns resilience.ErrRetired if
// this rank itself fails permanently after joining.
func RunSpareCtx(ctx context.Context, wc *comm.Comm, active int, cfg Config, rc resilience.Config) (*Sim, resilience.Stats, bool, error) {
	var s *Sim
	_, rec, joined, err := resilience.RunSpare(ctx, wc, active, rc, func(c *comm.Comm) (resilience.World, error) {
		var err error
		s, err = newSim(c, cfg)
		return world{s}, err
	})
	return s, rec, joined, err
}

// world is the refined simulation as the recovery driver sees it.
type world struct{ *Sim }

func (w world) Comm() *comm.Comm { return w.Sim.Comm }

func (w world) Telemetry() (*telemetry.Lane, *telemetry.Registry) {
	return w.tel.driver, w.cfg.Metrics
}

// Records are the owned leaves as WBK2 records, in canonical order.
func (w world) Records() (resilience.State, *lattice.Stencil) {
	snaps := make([]output.LeafSnapshot, len(w.blocks))
	for i, b := range w.blocks {
		snaps[i] = output.LeafSnapshot{
			Tree: b.ID.Tree, Path: b.ID.Path, Level: b.ID.Level,
			Coord: b.Coord, Src: b.Src, Dst: b.Dst,
		}
	}
	return snaps, w.cfg.Stencil
}

func (w world) Reset() error {
	w.step = 0
	return w.buildInitialForest()
}

// Install lands the records — this rank's own leaves, then the wards' it
// adopts — through the data plane's landing routine (Land), on c: checked
// and agreed on by every rank, the forest of the restored step rebuilt
// from the leaf identities every rank holds, the leaves this rank still
// holds kept and the others assembled as every leaf is. No old→new
// renumbering pass is needed.
func (w world) Install(c *comm.Comm, step int, recs resilience.State) error {
	s := w.Sim
	leaves, err := s.plane.Land(c, recs, s.depth(), resampler{s})
	s.Comm = s.plane.Comm
	if leaves != nil {
		s.setForest(leaves)
		s.step = step
	}
	return err
}
