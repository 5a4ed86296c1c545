package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/output"
	"walberla/internal/resilience"
	"walberla/internal/telemetry"
)

// Resilient execution of the uniform simulation. The failure loop, the
// checkpoint-set protocol, the buddy ring and the restore vote live in
// internal/resilience; this file supplies what a generation of a uniform
// world *contains* (the resilience.World methods of type world: WBK2 rank
// files whose records are level-0 leaves, plus gob-encoded block
// metadata; raw field snapshots; block adoption and neighborhood
// renumbering) and the public entry points.
// Protection is taken at a step barrier, so a restored run replays the
// exact deterministic step sequence and finishes bit-identical to an
// uninterrupted one. See docs/RESILIENCE.md.

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
// step: every rank snapshots all of its blocks (both PDF fields, so replay
// is bit-identical) into a per-rank WBK2 file, committed atomically by the
// set protocol (resilience.WriteSet). Returns the bytes this rank wrote (0
// if the set already existed).
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
// received from comm.Run; active is the target active world size; domain
// supplies the forest header (Domain, GridSize, CellsPerBlock, Periodic —
// the block assignment itself is streamed on recruitment, with the step
// the survivors run to); steps is the run's length, which the metrics
// are reduced over. It returns joined=false with a nil Simulation
// when the run ended without needing this spare, and otherwise the joined
// run's Simulation (for FieldHash and the like) and metrics. Like
// RunResilientCtx it returns ErrRetired if this rank itself fails
// permanently after joining.
func RunSpareCtx(ctx context.Context, wc *comm.Comm, active int, domain *blockforest.BlockForest, cfg Config, steps int, rc ResilienceConfig) (*Simulation, Metrics, bool, error) {
	var s *Simulation
	var start time.Time
	_, rec, joined, err := resilience.RunSpare(ctx, wc, active, rc, func(c *comm.Comm) (resilience.World, error) {
		start = time.Now()
		var err error
		s, err = New(c, &blockforest.BlockForest{
			Rank:          c.Rank(),
			NumRanks:      c.Size(),
			Domain:        domain.Domain,
			GridSize:      domain.GridSize,
			CellsPerBlock: domain.CellsPerBlock,
			Periodic:      domain.Periodic,
		}, cfg)
		return world{s}, err
	})
	if err != nil || !joined {
		return s, Metrics{}, joined, err
	}
	m, err := s.gatherMetrics(steps, time.Since(start))
	m.Recovery = rec
	return s, m, true, err
}

// world is the uniform simulation as the recovery driver sees it.
type world struct{ *Simulation }

func (w world) Comm() *comm.Comm { return w.Simulation.Comm }

func (w world) Telemetry() (*telemetry.Lane, *telemetry.Registry) {
	return w.tel.driver, w.Config.Metrics
}

// Step is one time step of the driver's loop, which keeps simulated time
// itself (Install sets it to the restored step).
func (w world) Step() error {
	w.worldSteps++
	return w.Simulation.Step()
}

// Snapshot is this rank's own generation in the form of a decoded rank
// file without metadata: copies of both PDF fields of every local block
// (in the previous generation's storage where it fits), restored by
// memcpy — the survivor's rewind needs no decoding at all.
func (w world) Snapshot(reuse resilience.State) resilience.State {
	var prev []output.LeafSnapshot
	if old, ok := reuse.(*blockSet); ok {
		prev = old.snaps
	}
	set := &blockSet{snaps: records(w.Blocks)}
	output.CopyLeaves(set.snaps, prev)
	return set
}

// blockMeta carries the non-field state of one block — the side band of
// the rank file, which stores only identities and fields: the forest
// block (ID, coordinates, AABB, neighborhood with communicator ranks as of
// the producing generation) and the flag field contents.
type blockMeta struct {
	Block blockforest.Block
	Flags []field.CellType
}

// blockSet is a decoded rank file: whole-block field snapshots in the
// layout they were stored in, joined — when the blocks are to be adopted —
// with their metadata.
type blockSet struct {
	snaps []output.LeafSnapshot
	metas []blockMeta
}

// records are the given live blocks as WBK2 records: a uniform block is a
// level-0 leaf of its root.
func records(blocks []*BlockData) []output.LeafSnapshot {
	snaps := make([]output.LeafSnapshot, len(blocks))
	for i, bd := range blocks {
		snaps[i] = output.LeafSnapshot{Tree: bd.Block.ID.Tree, Coord: bd.Block.Coord, Src: bd.Src, Dst: bd.Dst}
	}
	return snaps
}

// metas are the given live blocks' metadata.
func metas(blocks []*BlockData) []blockMeta {
	out := make([]blockMeta, len(blocks))
	for i, bd := range blocks {
		out[i] = blockMeta{Block: *bd.Block, Flags: bd.Flags.Data()}
	}
	return out
}

func (w world) Encode(out io.Writer) (int64, uint32, error) {
	return output.WriteLeafFile(out, records(w.Blocks))
}

func (w world) Meta() ([]byte, error) {
	return encodeMetas(metas(w.Blocks))
}

func encodeMetas(metas []blockMeta) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(metas)
	return buf.Bytes(), err
}

// Decode reads every block in the layout it was stored in — ranks can run
// a mix of layouts under per-block kernel selection; CopyFrom transposes
// if the live block disagrees.
func (w world) Decode(r io.Reader, meta []byte) (resilience.State, uint32, error) {
	snaps, crc, err := output.ReadLeafFile(r, w.Stencil)
	if err != nil {
		return nil, 0, err
	}
	set := &blockSet{snaps: snaps}
	if meta != nil {
		if err := gob.NewDecoder(bytes.NewReader(meta)).Decode(&set.metas); err != nil {
			return nil, 0, fmt.Errorf("sim: decoding replica metadata: %w", err)
		}
		if len(set.metas) != len(snaps) {
			return nil, 0, fmt.Errorf("sim: replica has %d field snapshots but %d metadata records", len(snaps), len(set.metas))
		}
	}
	return set, crc, nil
}

func (w world) Reencode(ward resilience.State) ([]byte, uint32, []byte, error) {
	set := ward.(*blockSet)
	var payload bytes.Buffer
	_, crc, err := output.WriteLeafFile(&payload, set.snaps)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("sim: encoding heal payload: %w", err)
	}
	meta, err := encodeMetas(set.metas)
	return payload.Bytes(), crc, meta, err
}

// Own gathers the records of the blocks this rank owns — level-0 leaves
// of the blocks' roots, shaped like them, each found once — from the
// set's rank files, its own file first: that one holds them all unless
// the set was written under another block ownership (a rebalanced run,
// or one that shrank).
func (w world) Own(read func(rank int) (resilience.State, error)) (resilience.State, error) {
	own := &blockSet{}
	found := make(map[[3]int]bool, len(w.Blocks))
	c := w.Comm()
	for i := range c.Size() {
		state, err := read((c.Rank() + i) % c.Size())
		if err != nil {
			return nil, err
		}
		for _, snap := range state.(*blockSet).snaps {
			bd, ok := w.byCoord[snap.Coord]
			if !ok {
				continue
			}
			if found[snap.Coord] || snap.Tree != bd.Block.ID.Tree || snap.Path != 0 || snap.Level != 0 {
				return nil, fmt.Errorf("sim: checkpoint set has a duplicate or foreign record %d/%#o/L%d %v",
					snap.Tree, snap.Path, snap.Level, snap.Coord)
			}
			for _, pf := range [2]*field.PDFField{snap.Src, snap.Dst} {
				if pf.Nx != bd.Src.Nx || pf.Ny != bd.Src.Ny || pf.Nz != bd.Src.Nz || pf.Ghost != bd.Src.Ghost {
					return nil, fmt.Errorf("sim: checkpoint set block %v shape mismatch", snap.Coord)
				}
			}
			found[snap.Coord] = true
			own.snaps = append(own.snaps, snap)
		}
		if len(own.snaps) == len(w.Blocks) {
			return own, nil
		}
	}
	return nil, fmt.Errorf("sim: checkpoint set holds %d of the %d blocks rank %d owns", len(own.snaps), len(w.Blocks), c.Rank())
}

// Reset re-initializes every block and simulated time.
func (w world) Reset() error {
	for _, bd := range w.Blocks {
		w.initBlockState(bd)
	}
	w.worldSteps = 0
	return nil
}

// Install rewinds the local blocks, re-owns the wards' through the same
// adoption path the dynamic load balancer uses, and — when the
// communicator changed — renumbers every neighborhood with the old→new
// rank map and rebuilds the exchange plan.
func (w world) Install(c *comm.Comm, redirect []int, step int, own resilience.State, wards []resilience.State) (int, error) {
	s := w.Simulation
	if o, ok := own.(*blockSet); ok { // own snapshot, or a rank file Owns vouched for
		for _, snap := range o.snaps {
			bd := s.byCoord[snap.Coord]
			bd.Src.CopyFrom(snap.Src)
			bd.Dst.CopyFrom(snap.Dst)
		}
	}
	// Simulated time resumes at the restored step; the plain driver's
	// fault-injection announcements continue from there.
	s.worldSteps = step
	var adopted []*BlockData
	for _, ward := range wards {
		blocks, err := s.buildAdoptedBlocks(ward.(*blockSet))
		if err != nil {
			return 0, err
		}
		adopted = append(adopted, blocks...)
	}
	if redirect == nil {
		return 0, nil
	}
	s.Comm = c
	s.Forest.Rank = c.Rank()
	s.Forest.NumRanks = c.Size()
	return len(adopted), s.install(append(s.Blocks, adopted...), redirect)
}

// install makes blocks this rank's block set — in Morton order, indexed
// by coordinate and listed in the forest — with every neighbor rank r
// renumbered to redirect[r] (nil: the ranks are already the new ones),
// and rebuilds the exchange plan. Install and Rebalance end in it.
func (s *Simulation) install(blocks []*BlockData, redirect []int) error {
	sort.Slice(blocks, func(i, j int) bool {
		return blockforest.MortonKey(blocks[i].Block.Coord) < blockforest.MortonKey(blocks[j].Block.Coord)
	})
	s.Blocks = blocks
	s.byCoord = make(map[[3]int]*BlockData, len(blocks))
	s.Forest.Blocks = make([]*blockforest.Block, 0, len(blocks))
	for _, bd := range blocks {
		for i := 0; redirect != nil && i < len(bd.Block.Neighbors); i++ {
			n := &bd.Block.Neighbors[i]
			if n.Rank < 0 || n.Rank >= len(redirect) {
				return fmt.Errorf("sim: neighbor of block %v has invalid rank %d", bd.Block.Coord, n.Rank)
			}
			n.Rank = redirect[n.Rank]
		}
		s.byCoord[bd.Block.Coord] = bd
		s.Forest.Blocks = append(s.Forest.Blocks, bd.Block)
	}
	return s.rebuildPlan()
}

// buildAdoptedBlocks joins decoded field snapshots with their metadata
// into runtime blocks.
func (s *Simulation) buildAdoptedBlocks(set *blockSet) ([]*BlockData, error) {
	byCoord := make(map[[3]int]*blockMeta, len(set.metas))
	for i := range set.metas {
		byCoord[set.metas[i].Block.Coord] = &set.metas[i]
	}
	blocks := make([]*BlockData, 0, len(set.snaps))
	for _, snap := range set.snaps {
		m := byCoord[snap.Coord]
		if m == nil {
			return nil, fmt.Errorf("sim: replica block %v has no metadata", snap.Coord)
		}
		cells := m.Block.Cells
		for _, pf := range [2]*field.PDFField{snap.Src, snap.Dst} {
			if pf.Nx != cells[0] || pf.Ny != cells[1] || pf.Nz != cells[2] || pf.Ghost != 1 {
				return nil, fmt.Errorf("sim: replica block %v shape mismatch", snap.Coord)
			}
		}
		flags := field.NewFlagField(cells[0], cells[1], cells[2], 1)
		copy(flags.Data(), m.Flags)
		blk := m.Block // copy out of the decoded metadata
		// Snapshots are decoded whole-block and in the layout they were
		// stored in; the copy crops to the window and transposes. (Never
		// handed over: a buddy ring keeps its decoded replicas.)
		bd, err := s.AssembleBlock(&blk, flags, nil, nil)
		if err != nil {
			return nil, err
		}
		bd.Src.CopyFrom(snap.Src)
		bd.Dst.CopyFrom(snap.Dst)
		blocks = append(blocks, bd)
	}
	return blocks, nil
}
