package amr

import (
	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/lattice"
	"walberla/internal/sim"
)

// Block is one locally owned leaf with its simulation state, a block of
// the data plane (internal/sim) like any uniform block: level kernel,
// allocation window, flag field and boundary sweep included.
type Block struct {
	Leaf
	*sim.BlockData
}

// Sim is a distributed AMR simulation: the refine/coarsen controller and
// the leaf set of a data plane (internal/sim), which assembles, sweeps,
// exchanges, runs, checkpoints and recovers the blocks (Plane). Every rank
// holds the full (lightweight) leaf list, so re-grade and balancing
// decisions are computed identically everywhere without collective
// negotiation; the heavyweight state — the blocks — lives only on the
// owning rank.
type Sim struct {
	cfg Config

	leaves   []Leaf // canonical forest order, all ranks
	maxLevel int    // deepest level currently present

	// plane owns the blocks — this rank's leaves, in canonical order —
	// their data, exchange plans, the step and simulated time (WorldStep
	// counts the coarse steps).
	plane *sim.Simulation

	tel   amrTel
	stats Stats

	// scratch is the per-worker scratch of the transfer walk;
	// allDirs lists every direction of the stencil, the output of the
	// whole-block transfers.
	scratch []interpScratch
	allDirs []lattice.Direction
	// critU and critF are the refinement criterion's per-cell velocities
	// and PDF vector.
	critU [][3]float64
	critF []float64
}

// Stats accumulates AMR bookkeeping of one rank since construction.
type Stats struct {
	Regrades   int
	Splits     int // leaves created by refinement (global)
	Merges     int // leaves removed by coarsening (global)
	Migrated   int // leaves that changed rank (global)
	RegradeNs  int64
	MigrateNs  int64
	SweepNs    [9]int64 // per level: interior + frontier sweeps
	ExchangeNs [9]int64 // per level: exchange post + wait
}

// New builds an AMR simulation on the communicator: a uniform level-0
// forest with one leaf per root grid cell, Morton-distributed across
// ranks. The refinement controller (if enabled) first runs before the
// first step.
func New(c *comm.Comm, cfg Config) (*Sim, error) {
	s, err := NewSpare(c, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.buildInitialForest(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewSpare builds a refined world on c that owns no leaf yet: what a
// recruited spare adopts its leaves into (sim.RunSpareCtx, building the
// world's Plane).
func NewSpare(c *comm.Comm, cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, n := cfg.Grid, cfg.Cells
	plane, err := sim.New(c, &blockforest.BlockForest{
		Rank: c.Rank(), NumRanks: c.Size(), GridSize: g, CellsPerBlock: n, Periodic: cfg.Periodic,
		Domain: blockforest.NewAABB([3]float64{}, [3]float64{float64(g[0] * n[0]), float64(g[1] * n[1]), float64(g[2] * n[2])}),
	}, cfg.Config)
	if err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, plane: plane}
	plane.SetRefiner(refiner{s})
	s.tel = resolveAMRTel(cfg.Tracer, cfg.Metrics)
	s.scratch = make([]interpScratch, plane.Workers())
	for a := 0; a < cfg.Stencil.Q; a++ {
		s.allDirs = append(s.allDirs, lattice.Direction(a))
	}
	s.critU = make([][3]float64, cfg.Cells[0]*cfg.Cells[1]*cfg.Cells[2])
	s.critF = make([]float64, cfg.Stencil.Q)
	return s, nil
}

// Plane returns the data plane the world runs on: what steps, runs,
// checkpoints and recovers it (Run, RunResilient, WriteCheckpointSet,
// sim.RunSpareCtx), as it does a uniform world.
func (s *Sim) Plane() *sim.Simulation { return s.plane }

// buildInitialForest (re)installs the uniform level-0 forest with the
// configured initial condition: one leaf per root grid cell in canonical
// (Morton) order, assigned by the data plane's balance (every root weighs
// a whole block of fluid), this rank's built on the worker pool. Also the
// rewind target when no usable checkpoint set exists.
func (s *Sim) buildInitialForest() error {
	var roots []blockforest.Leaf
	for z := 0; z < s.cfg.Grid[2]; z++ {
		for y := 0; y < s.cfg.Grid[1]; y++ {
			for x := 0; x < s.cfg.Grid[0]; x++ {
				coord := [3]int{x, y, z}
				roots = append(roots, blockforest.Leaf{ID: blockforest.BlockID{Tree: blockforest.TreeIndex(s.cfg.Grid, coord)}, Coord: coord})
			}
		}
	}
	blockforest.SortLeaves(roots)
	block := sim.Weight{Static: int64(s.cfg.Cells[0] * s.cfg.Cells[1] * s.cfg.Cells[2])}
	for i, r := range s.plane.Assign(len(roots), func(int) sim.Weight { return block }) {
		roots[i].Rank = r
	}
	x := blockforest.NewIndex(roots, s.cfg.Grid, s.cfg.Periodic)
	var mine []blockforest.Leaf
	for _, l := range roots {
		if l.Rank == s.plane.Comm.Rank() {
			mine = append(mine, l)
		}
	}
	return s.install(roots, x, s.plane.NewBlocks(x, mine, nil))
}

// install commits this rank's blocks — leaves of the set x indexes,
// which leaves lists in canonical order — in the data plane (Commit) and
// takes the leaf set (setForest). It fails when a neighbor rank fails
// during the plan build.
func (s *Sim) install(leaves []blockforest.Leaf, x *blockforest.Index, blocks []*sim.BlockData) error {
	err := s.plane.Commit(x, blocks)
	s.setForest(leaves)
	return err
}

// setForest takes the leaf set the data plane's blocks were committed
// against: the replicated leaf list and the forest-shape gauges.
func (s *Sim) setForest(leaves []blockforest.Leaf) {
	s.leaves = make([]Leaf, len(leaves))
	s.maxLevel = 0
	for i, l := range leaves {
		s.leaves[i] = leafFrom(l)
		s.maxLevel = max(s.maxLevel, l.Level())
	}
	s.tel.leaves.Set(float64(len(s.leaves)))
	s.tel.maxLevel.Set(float64(s.maxLevel))
	s.tel.cells.Set(float64(s.TotalCells()))
}

// FieldHash is the data plane's field hash (sim.Simulation.FieldHash),
// which keys a refined world's leaves by their full identity.
func (s *Sim) FieldHash() (uint64, error) { return s.plane.FieldHash() }

// Steps returns the number of completed coarse steps: the plane's
// simulated time (sim.Simulation.WorldStep).
func (s *Sim) Steps() int { return s.plane.WorldStep() }

// WriteCheckpointSet writes a coordinated checkpoint set of the world for
// the given coarse step (sim.Simulation.WriteCheckpointSet): every rank's
// leaves, with their full identity, in one WBK2 rank file.
func (s *Sim) WriteCheckpointSet(dir string, step int) (int64, error) {
	return s.plane.WriteCheckpointSet(dir, step)
}

// RestoreLatestCheckpointSet rewinds the world to the newest checkpoint
// set every rank can load (sim.Simulation.RestoreLatestCheckpointSet): the
// forest of the restored step is rebuilt from the restored leaves, or
// without a usable set the initial uniform forest. Returns the restored
// coarse step.
func (s *Sim) RestoreLatestCheckpointSet(dir string) (int64, error) {
	return s.plane.RestoreLatestCheckpointSet(dir)
}

// MaxLevel returns the deepest refinement level currently present.
func (s *Sim) MaxLevel() int { return s.maxLevel }

// NumLeaves returns the global leaf count.
func (s *Sim) NumLeaves() int { return len(s.leaves) }

// Leaves returns a copy of the global leaf list in canonical order.
func (s *Sim) Leaves() []Leaf { return append([]Leaf(nil), s.leaves...) }

// OwnedBlocks returns this rank's blocks — the data plane's — in
// canonical order. The slice is new; the blocks are live state — read-only
// for callers.
func (s *Sim) OwnedBlocks() []*Block {
	out := make([]*Block, len(s.plane.Blocks))
	for i, bd := range s.plane.Blocks {
		out[i] = &Block{Leaf: leafFrom(blockforest.Leaf{ID: bd.Block.ID, Coord: bd.Block.Coord, Rank: s.plane.Comm.Rank()}), BlockData: bd}
	}
	return out
}

// TotalCells returns the global cell count of the current forest.
func (s *Sim) TotalCells() int64 {
	per := int64(s.cfg.Cells[0]) * int64(s.cfg.Cells[1]) * int64(s.cfg.Cells[2])
	return per * int64(len(s.leaves))
}

// LevelCounts returns the number of leaves per level.
func (s *Sim) LevelCounts() []int {
	counts := make([]int, s.maxLevel+1)
	for _, l := range s.leaves {
		counts[l.Level()]++
	}
	return counts
}

// GetStats returns the accumulated AMR statistics of this rank; the
// per-level step times are the data plane's (sim.Simulation.LevelOverlap).
func (s *Sim) GetStats() Stats {
	st := s.stats
	for l := range st.SweepNs {
		o := s.plane.LevelOverlap(l)
		st.SweepNs[l], st.ExchangeNs[l] = int64(o.Interior+o.Frontier), int64(o.Post+o.Wait)
	}
	return st
}
