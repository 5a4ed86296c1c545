package amr

import (
	"context"
	"fmt"
	"io"
	"sort"

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
// fields; blocksFromSnapshots — runtime blocks back from such records,
// flags regenerated from the pure config function, so a replica needs no
// side band; and installRestored — the forest of the restored step rebuilt
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

// ownSnapshot is this rank's raw state: the owned leaf descriptors plus
// field copies in the configured layout, restored without decoding.
type ownSnapshot struct {
	leaves   []blockforest.Leaf
	src, dst [][]float64
}

func (w world) Snapshot(reuse resilience.State) resilience.State {
	og, _ := reuse.(*ownSnapshot)
	if og == nil || len(og.src) != len(w.blocks) {
		og = &ownSnapshot{src: make([][]float64, len(w.blocks)), dst: make([][]float64, len(w.blocks))}
	}
	og.leaves = og.leaves[:0]
	for i, b := range w.blocks {
		og.leaves = append(og.leaves, blockforest.Leaf{ID: b.ID, Coord: b.Coord})
		og.src[i] = append(og.src[i][:0], b.Src.Data()...)
		og.dst[i] = append(og.dst[i][:0], b.Dst.Data()...)
	}
	return og
}

func (w world) Encode(out io.Writer) (int64, uint32, error) {
	return output.WriteLeafFile(out, w.leafSnapshots())
}

// Meta is empty: the leaf list is replicated metadata and flag fields are
// a pure function of the config, so WBK2 records are self-contained.
func (w world) Meta() ([]byte, error) { return nil, nil }

func (w world) Decode(r io.Reader, _ []byte) (resilience.State, uint32, error) {
	snaps, crc, err := output.ReadLeafFileStored(r, w.cfg.Stencil)
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

// Owns accepts any rank file: Install replaces the topology.
func (w world) Owns(resilience.State) error { return nil }

func (w world) Reset() error {
	w.step = 0
	return w.buildInitialForest()
}

// Install rebuilds this rank's blocks from its own restored state plus the
// adopted wards and commits them on c; the leaf-descriptor allgather of
// installRestored rebuilds the forest with c's ranks, so no old→new
// renumbering pass is needed.
func (w world) Install(c *comm.Comm, _ []int, step int, own resilience.State, wards []resilience.State) (int, error) {
	s := w.Sim
	var blocks []*Block
	switch o := own.(type) {
	case *ownSnapshot:
		for i, bl := range o.leaves {
			b := s.newBlock(leafFrom(bl), false)
			copy(b.Src.Data(), o.src[i])
			copy(b.Dst.Data(), o.dst[i])
			blocks = append(blocks, b)
		}
	case []output.LeafSnapshot:
		blocks = s.blocksFromSnapshots(o)
	}
	kept := len(blocks)
	for _, ward := range wards {
		blocks = append(blocks, s.blocksFromSnapshots(ward.([]output.LeafSnapshot))...)
	}
	s.Comm = c
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

// blocksFromSnapshots turns decoded (shape-checked) WBK2 records into
// runtime blocks, converting layouts and regenerating flag fields from the
// pure config function. installRestored assigns the owner.
func (s *Sim) blocksFromSnapshots(snaps []output.LeafSnapshot) []*Block {
	blocks := make([]*Block, 0, len(snaps))
	for _, sn := range snaps {
		bl := blockforest.Leaf{
			ID:    blockforest.BlockID{Tree: sn.Tree, Path: sn.Path, Level: sn.Level},
			Coord: sn.Coord,
		}
		b := &Block{Leaf: leafFrom(bl), Src: s.ensureLayout(sn.Src), Dst: s.ensureLayout(sn.Dst)}
		s.attachFlags(b)
		blocks = append(blocks, b)
	}
	return blocks
}

// installRestored commits a restored local block set: the global forest
// is rebuilt by allgathering every rank's restored leaf descriptors, so
// topology recovery needs no side channel — the rank files themselves
// carry the forest. Collective over s.Comm.
func (s *Sim) installRestored(blocks []*Block, step int) error {
	type leafDesc struct {
		Tree  uint32
		Path  uint64
		Level uint8
		Coord [3]int
	}
	local := make([]leafDesc, len(blocks))
	for i, b := range blocks {
		local[i] = leafDesc{Tree: b.ID.Tree, Path: b.ID.Path, Level: b.ID.Level, Coord: b.Coord}
	}
	gathered, err := s.Comm.AllgatherErr(local)
	if err != nil {
		return err
	}
	var all []blockforest.Leaf
	for r, g := range gathered {
		for _, d := range g.([]leafDesc) {
			all = append(all, blockforest.Leaf{
				ID:    blockforest.BlockID{Tree: d.Tree, Path: d.Path, Level: d.Level},
				Coord: d.Coord,
				Rank:  r,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		ki, kj := blockforest.MortonKey(all[i].Coord), blockforest.MortonKey(all[j].Coord)
		if ki != kj {
			return ki < kj
		}
		return all[i].ID.Less(all[j].ID)
	})
	if err := blockforest.CheckGraded(all, s.cfg.Grid, s.cfg.Periodic); err != nil {
		return fmt.Errorf("amr: restored forest is not 2:1 graded: %w", err)
	}
	s.setLeaves(all)
	s.blocks = nil
	s.byID = nil
	for _, b := range blocks {
		b.Rank = s.Comm.Rank()
		s.addBlock(b)
	}
	s.sortBlocks()
	if err := s.rebuildKernels(); err != nil {
		return err
	}
	s.rebuildPlan()
	s.step = step
	return nil
}
