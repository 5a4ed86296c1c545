package amr

import (
	"context"
	"fmt"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/output"
	"walberla/internal/resilience"
	"walberla/internal/telemetry"
)

// Resilient execution for refined worlds. The failure loop, the
// checkpoint-set protocol, the buddy ring, the restore vote and the rank-
// file codec are internal/resilience's; this file supplies the three
// things a generation of a refined world consists of (the resilience.World
// methods of type world): Records — the owned leaves as WBK2 records,
// which carry the full leaf identity (tree, octree path, level,
// coordinates) alongside both PDF fields; blocksFromSnapshots — runtime
// blocks back from such records, assembled from the pure config function,
// so a record is self-contained; and installRestored — the forest of the
// restored step rebuilt from the restored leaves themselves, so re-grades
// between the checkpoint and the failure are undone together with the
// field state. Because stepping, the refinement controller and the
// balancer are all deterministic, a recovered run — rewound, shrunk or
// healed onto a recruited spare (RunSpareCtx) — finishes bit-identical to
// an uninterrupted one.

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
// fault-tolerant driver. Under resilience.Shrink a rank that failed
// permanently returns resilience.ErrRetired.
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

// Own takes this rank's file as is: Install replaces the topology.
func (w world) Own(read func(rank int) (resilience.State, error)) (resilience.State, error) {
	return read(w.Comm().Rank())
}

func (w world) Reset() error {
	w.step = 0
	return w.buildInitialForest()
}

// Install rebuilds this rank's blocks from its own restored state plus the
// adopted wards and commits them on c; the leaf-descriptor allgather of
// installRestored rebuilds the forest with c's ranks, so no old→new
// renumbering pass is needed.
func (w world) Install(c *comm.Comm, step int, own resilience.State, wards []resilience.State) (int, error) {
	s := w.Sim
	var blocks []*Block
	kept := 0
	for i, snaps := range append([]resilience.State{own}, wards...) {
		if err := s.blocksFromSnapshots(&blocks, snaps); err != nil {
			return 0, err
		}
		if i == 0 {
			kept = len(blocks)
		}
	}
	s.Comm, s.plane.Comm = c, c
	return len(blocks) - kept, s.installRestored(blocks, step)
}

// blocksFromSnapshots appends to blocks the runtime blocks of decoded
// WBK2 records, assembled like every leaf from the pure config function
// and filled with a copy of the records, whatever layout they were stored
// in (a buddy ring keeps its decoded replicas). A record shaped unlike a
// leaf is refused before any is copied. installRestored assigns the owner.
func (s *Sim) blocksFromSnapshots(blocks *[]*Block, snaps []output.LeafSnapshot) error {
	for _, sn := range snaps {
		for _, f := range [2]*field.PDFField{sn.Src, sn.Dst} {
			if [3]int{f.Nx, f.Ny, f.Nz} != s.cfg.Cells {
				return fmt.Errorf("amr: snapshot leaf %d/%d shape mismatch", sn.Tree, sn.Path)
			}
		}
	}
	for _, sn := range snaps {
		b, err := s.newBlock(leafFrom(blockforest.Leaf{ID: snapID(sn), Coord: sn.Coord}), nil, nil)
		if err != nil {
			return err
		}
		b.Src.CopyFrom(sn.Src)
		b.Dst.CopyFrom(sn.Dst)
		*blocks = append(*blocks, b)
	}
	return nil
}

// installRestored commits a restored local block set: the global forest
// is rebuilt by allgathering every rank's restored leaf descriptors, so
// topology recovery needs no side channel — the rank files themselves
// carry the forest. Collective over s.Comm.
func (s *Sim) installRestored(blocks []*Block, step int) error {
	local := make([]int64, 0, 6*len(blocks)) // per leaf: ID, then Coord
	for _, b := range blocks {
		local = append(appendID(local, b.ID), int64(b.Coord[0]), int64(b.Coord[1]), int64(b.Coord[2]))
	}
	gathered, err := s.Comm.AllgatherErr(local)
	if err != nil {
		return err
	}
	var all []blockforest.Leaf
	for r, g := range gathered {
		for w := g.([]int64); len(w) >= 6; w = w[6:] {
			all = append(all, blockforest.Leaf{ID: idAt(w), Coord: [3]int{int(w[3]), int(w[4]), int(w[5])}, Rank: r})
		}
	}
	sortLeaves(all)
	if err := blockforest.CheckGraded(all, s.cfg.Grid, s.cfg.Periodic); err != nil {
		return fmt.Errorf("amr: restored forest is not 2:1 graded: %w", err)
	}
	s.setLeaves(all)
	for _, b := range blocks {
		b.Rank = s.Comm.Rank()
	}
	if err := s.install(blocks); err != nil {
		return err
	}
	s.step = step
	return nil
}
