package amr

import (
	"context"
	"fmt"
	"io"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/output"
	"walberla/internal/resilience"
	"walberla/internal/telemetry"
)

// Resilient execution for refined worlds. The failure loop, the
// checkpoint-set protocol, the buddy ring and the restore vote are
// internal/resilience's; this file supplies the three things a generation
// of a refined world consists of (the resilience.World methods of type
// world): leafSnapshots — the WBK2 rank file, whose records carry the full
// leaf identity (tree, octree path, level, coordinates) alongside both PDF
// fields, also the form of the own in-memory generation; blocksFromSnapshots
// — runtime blocks back from such records, assembled from the pure config
// function, so a record is self-contained; and installRestored — the
// forest of the restored step rebuilt
// from the restored leaves themselves, so re-grades between the
// checkpoint and the failure are undone together with the field state.
// Because stepping, the refinement controller and the balancer are all
// deterministic, a recovered run finishes bit-identical to an
// uninterrupted one. Heal is one method (resilience.Forwarder) away.

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

// world is the refined simulation as the recovery driver sees it.
type world struct{ *Sim }

func (w world) Comm() *comm.Comm { return w.Sim.Comm }

func (w world) Telemetry() (*telemetry.Lane, *telemetry.Registry) {
	return w.tel.driver, w.cfg.Metrics
}

// Snapshot is this rank's own generation in the form every other one
// takes: WBK2 records of its leaves, holding field copies (in the previous
// generation's storage where it fits), installed like a decoded rank file.
func (w world) Snapshot(reuse resilience.State) resilience.State {
	old, _ := reuse.([]output.LeafSnapshot)
	snaps := w.leafSnapshots()
	output.CopyLeaves(snaps, old)
	return snaps
}

func (w world) Encode(out io.Writer) (int64, uint32, error) {
	return output.WriteLeafFile(out, w.leafSnapshots())
}

// Decode reads a rank file. WBK2 records are self-contained: a leaf's
// identity fixes its box, and flag fields are a pure function of the
// config.
func (w world) Decode(r io.Reader) (resilience.State, uint32, error) {
	snaps, crc, err := output.ReadLeafFile(r, w.cfg.Stencil)
	if err != nil {
		return nil, 0, err
	}
	C := w.cfg.Cells
	for _, sn := range snaps {
		for _, f := range [2][3]int{{sn.Src.Nx, sn.Src.Ny, sn.Src.Nz}, {sn.Dst.Nx, sn.Dst.Ny, sn.Dst.Nz}} {
			if f != C {
				return nil, 0, fmt.Errorf("amr: snapshot leaf %d/%d shape mismatch", sn.Tree, sn.Path)
			}
		}
	}
	return snaps, crc, nil
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
	for i, st := range append([]resilience.State{own}, wards...) {
		snaps, _ := st.([]output.LeafSnapshot)
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

// leafSnapshots converts the owned blocks into WBK2 records.
func (s *Sim) leafSnapshots() []output.LeafSnapshot {
	snaps := make([]output.LeafSnapshot, len(s.blocks))
	for i, b := range s.blocks {
		snaps[i] = output.LeafSnapshot{
			Tree: b.ID.Tree, Path: b.ID.Path, Level: b.ID.Level,
			Coord: b.Coord, Src: b.Src, Dst: b.Dst,
		}
	}
	return snaps
}

// blocksFromSnapshots appends to blocks the runtime blocks of decoded
// (shape-checked) WBK2 records, assembled like every leaf from the pure
// config function and filled with a copy of the records, whatever layout
// they were stored in (a buddy ring keeps its decoded replicas).
// installRestored assigns the owner.
func (s *Sim) blocksFromSnapshots(blocks *[]*Block, snaps []output.LeafSnapshot) error {
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
