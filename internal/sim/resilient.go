package sim

import (
	"context"
	"fmt"
	"slices"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/output"
	"walberla/internal/resilience"
	"walberla/internal/telemetry"
)

// Resilient execution of the uniform simulation. The failure loop, the
// checkpoint-set protocol, the buddy ring and the restore vote live in
// internal/resilience, which also copies, encodes and decodes the
// records; this file supplies what a generation of a uniform world
// *contains* (the resilience.World methods of type world: its blocks as
// WBK2 records, level-0 leaves of their roots; block adoption) and the
// public entry points. A record is self-contained: its
// identity fixes the block's box, and flags are a function of the
// geometry and the neighbourhood. So when ownership changes (a shrink or
// heal, never a rewind) every rank allgathers the block coordinates all
// ranks now own, rebuilds its neighbourhoods with the setup code and
// builds the adopted blocks' flags as construction does (reown).
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

// world is the uniform simulation as the recovery driver sees it. Its
// state is a decoded rank file: []output.LeafSnapshot.
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

// Records are the live blocks as WBK2 records.
func (w world) Records() (resilience.State, *lattice.Stencil) {
	return records(w.Blocks), w.Stencil
}

// records are the given live blocks as WBK2 records: a uniform block is a
// level-0 leaf of its root. A decoded rank file is such a list, in the
// layout each block was stored in.
func records(blocks []*BlockData) []output.LeafSnapshot {
	snaps := make([]output.LeafSnapshot, len(blocks))
	for i, bd := range blocks {
		snaps[i] = output.LeafSnapshot{Tree: bd.Block.ID.Tree, Coord: bd.Block.Coord, Src: bd.Src, Dst: bd.Dst}
	}
	return snaps
}

// Own gathers the records of the blocks this rank owns, each found once,
// from the set's rank files, its own file first: that one holds them all
// unless the set was written under another block ownership (a rebalanced
// run, or one that shrank). Install checks that they fit the blocks.
func (w world) Own(read func(rank int) (resilience.State, error)) (resilience.State, error) {
	var own []output.LeafSnapshot
	found := make(map[[3]int]bool, len(w.Blocks))
	c := w.Comm()
	for i := range c.Size() {
		state, err := read((c.Rank() + i) % c.Size())
		if err != nil {
			return nil, err
		}
		for _, snap := range state {
			if w.byCoord[snap.Coord] == nil {
				continue
			}
			if found[snap.Coord] {
				return nil, fmt.Errorf("sim: checkpoint set has a duplicate record of block %v", snap.Coord)
			}
			found[snap.Coord] = true
			own = append(own, snap)
		}
		if len(own) == len(w.Blocks) {
			return own, nil
		}
	}
	return nil, fmt.Errorf("sim: checkpoint set holds %d of the %d blocks rank %d owns", len(own), len(w.Blocks), c.Rank())
}

// checkRecord reports whether rec can be the state of block b: its
// level-0 leaf, shaped like it.
func checkRecord(rec output.LeafSnapshot, b *blockforest.Block) error {
	if rec.Tree != b.ID.Tree || rec.Path != 0 || rec.Level != 0 {
		return fmt.Errorf("sim: record %d/%#o/L%d %v is no block of this forest", rec.Tree, rec.Path, rec.Level, rec.Coord)
	}
	for _, pf := range [2]*field.PDFField{rec.Src, rec.Dst} {
		if pf.Nx != b.Cells[0] || pf.Ny != b.Cells[1] || pf.Nz != b.Cells[2] || pf.Ghost != 1 {
			return fmt.Errorf("sim: record of block %v shape mismatch", rec.Coord)
		}
	}
	return nil
}

// Reset re-initializes every block and simulated time.
func (w world) Reset() error {
	for _, bd := range w.Blocks {
		w.initBlockState(bd)
	}
	w.worldSteps = 0
	return nil
}

// Install rewinds the local blocks — own is the own snapshot, or records
// Own vouched for, all checked before any is copied — and, when ownership
// changed (a new communicator, or wards to adopt), re-owns the wards'
// records through the same path the dynamic load balancer uses (reown).
func (w world) Install(c *comm.Comm, step int, own resilience.State, wards []resilience.State) (int, error) {
	s := w.Simulation
	for _, rec := range own {
		if err := checkRecord(rec, s.byCoord[rec.Coord].Block); err != nil {
			return 0, err
		}
	}
	for _, rec := range own {
		bd := s.byCoord[rec.Coord]
		bd.Src.CopyFrom(rec.Src)
		bd.Dst.CopyFrom(rec.Dst)
	}
	// Simulated time resumes at the restored step; the plain driver's
	// fault-injection announcements continue from there.
	s.worldSteps = step
	if c == s.Comm && len(wards) == 0 {
		return 0, nil // a rewind
	}
	adopted := slices.Concat(wards...)
	s.Comm = c
	return len(adopted), s.reown(s.Blocks, adopted)
}

// reown makes kept and the blocks of recs this rank's block set after its
// ownership changed (Install and Rebalance end in it), rebuilding topology
// as setup does: every rank's owned coordinates are allgathered into a
// setup forest whose Build yields this rank's blocks, neighbourhoods and
// owners — the forest keeps only those. A kept block keeps its BlockData;
// the adopted ones are built on the worker pool, each from its flags
// (setupFlags) and filled from its record (adopt). Collective over
// s.Comm; a failure before the allgather completes leaves the world as it
// was.
func (s *Simulation) reown(kept []*BlockData, recs []output.LeafSnapshot) error {
	local := make([]int64, 0, 3*(len(kept)+len(recs)))
	for _, bd := range kept {
		local = append(local, int64(bd.Block.Coord[0]), int64(bd.Block.Coord[1]), int64(bd.Block.Coord[2]))
	}
	for _, rec := range recs {
		local = append(local, int64(rec.Coord[0]), int64(rec.Coord[1]), int64(rec.Coord[2]))
	}
	gathered, err := s.Comm.AllgatherErr(local)
	if err != nil {
		return fmt.Errorf("sim: gathering block ownership: %w", err)
	}
	f := s.Forest
	setup := blockforest.NewSetupForest(f.Domain, f.GridSize, f.CellsPerBlock, f.Periodic)
	owner := make(map[[3]int]int)
	for r, g := range gathered {
		for v, _ := g.([]int64); len(v) >= 3; v = v[3:] {
			c := [3]int{int(v[0]), int(v[1]), int(v[2])}
			if _, twice := owner[c]; twice || setup.Block(c) == nil {
				return fmt.Errorf("sim: block %v is owned twice or lies outside the grid", c)
			}
			owner[c] = r
		}
	}
	setup.Keep(func(b *blockforest.SetupBlock) bool {
		r, ok := owner[b.Coord]
		b.Rank = r
		return ok
	})
	*s.Forest = *blockforest.Build(setup, s.Comm.Rank(), s.Comm.Size())

	byCoord := make(map[[3]int]*BlockData, len(kept))
	for _, bd := range kept {
		byCoord[bd.Block.Coord] = bd
	}
	byRecord := make(map[[3]int]output.LeafSnapshot, len(recs))
	for _, rec := range recs {
		byRecord[rec.Coord] = rec
	}
	s.Blocks = make([]*BlockData, len(s.Forest.Blocks))
	var adopted []int // indices of the blocks built from records
	for i, b := range s.Forest.Blocks {
		if bd := byCoord[b.Coord]; bd != nil {
			bd.Block.Neighbors = b.Neighbors
			s.Forest.Blocks[i], s.Blocks[i] = bd.Block, bd
		} else {
			adopted = append(adopted, i)
		}
	}
	errs := make([]error, len(adopted))
	s.pool.run(len(adopted), func(_, k int) {
		b := s.Forest.Blocks[adopted[k]]
		s.Blocks[adopted[k]], errs[k] = s.adopt(b, byRecord[b.Coord])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, bd := range s.Blocks {
		byCoord[bd.Block.Coord] = bd
	}
	s.byCoord = byCoord
	return s.rebuildPlan()
}

// adopt builds block b from its flags as construction does and fills it
// with rec's fields: the records are decoded whole-block and in the layout
// they were stored in, and the copy crops to the block's rows and
// transposes. (Never handed over: a buddy ring keeps its decoded
// replicas.)
func (s *Simulation) adopt(b *blockforest.Block, rec output.LeafSnapshot) (*BlockData, error) {
	if err := checkRecord(rec, b); err != nil {
		return nil, err
	}
	bd, err := s.AssembleBlock(b, s.setupFlags(b), nil, nil)
	if err != nil {
		return nil, err
	}
	bd.Src.CopyFrom(rec.Src)
	bd.Dst.CopyFrom(rec.Dst)
	return bd, nil
}
