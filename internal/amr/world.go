package amr

import (
	"fmt"
	"sort"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
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

// lkey addresses a block region by level and level-grid index.
type lkey struct {
	level int
	idx   [3]int
}

// Sim is a distributed AMR simulation. Every rank holds the full
// (lightweight) leaf list, so re-grade and balancing decisions are
// computed identically everywhere without collective negotiation; the
// heavyweight state — the blocks — lives only on the owning rank, in the
// data plane that assembles, sweeps and exchanges them.
type Sim struct {
	Comm *comm.Comm
	cfg  Config

	leaves   []Leaf       // canonical forest order, all ranks
	byKey    map[lkey]int // (level, idx) → position in leaves
	maxLevel int          // deepest level currently present

	blocks []*Block // owned leaves, canonical order
	byID   map[blockforest.BlockID]*Block

	// plane owns the blocks' data, sweeps and exchange plans; phase is the
	// temporal interpolation phase of the exchange it is running (see
	// resampler).
	plane *sim.Simulation
	phase int

	step  int // coarse steps completed
	tel   amrTel
	stats Stats

	// scratch is per-worker interpolation scratch (Q-vector pairs);
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
	SweepNs    [9]int64 // per level
	ExchangeNs [9]int64 // per level
}

// New builds an AMR simulation on the communicator: a uniform level-0
// forest with one leaf per root grid cell, Morton-distributed across
// ranks. The refinement controller (if enabled) first runs before
// step 1 of Run.
func New(c *comm.Comm, cfg Config) (*Sim, error) {
	s, err := newSim(c, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.buildInitialForest(); err != nil {
		return nil, err
	}
	return s, nil
}

// newSim builds a refined world on c that owns no leaf yet: what a
// recruited spare adopts its leaves into (RunSpareCtx).
func newSim(c *comm.Comm, cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plane, err := sim.New(c, &blockforest.BlockForest{Rank: c.Rank(), NumRanks: c.Size()}, cfg.simConfig())
	if err != nil {
		return nil, err
	}
	s := &Sim{Comm: c, cfg: cfg, plane: plane}
	s.tel = resolveAMRTel(cfg.Tracer, cfg.Metrics)
	s.scratch = make([]interpScratch, plane.Workers())
	for i := range s.scratch {
		s.scratch[i] = newInterpScratch(cfg.Stencil.Q)
	}
	for a := 0; a < cfg.Stencil.Q; a++ {
		s.allDirs = append(s.allDirs, lattice.Direction(a))
	}
	s.critU = make([][3]float64, cfg.Cells[0]*cfg.Cells[1]*cfg.Cells[2])
	s.critF = make([]float64, cfg.Stencil.Q)
	return s, nil
}

// buildInitialForest (re)installs the uniform level-0 forest with the
// configured initial condition: one leaf per root grid cell in canonical
// (Morton) order, contiguously assigned. Also the rewind target when no
// usable checkpoint set exists.
func (s *Sim) buildInitialForest() error {
	var roots []blockforest.Leaf
	for z := 0; z < s.cfg.Grid[2]; z++ {
		for y := 0; y < s.cfg.Grid[1]; y++ {
			for x := 0; x < s.cfg.Grid[0]; x++ {
				coord := [3]int{x, y, z}
				roots = append(roots, blockforest.Leaf{
					ID:    blockforest.BlockID{Tree: s.treeOf(coord)},
					Coord: coord,
				})
			}
		}
	}
	sortLeaves(roots)
	s.assignRanks(roots)
	s.setLeaves(roots)
	var blocks []*Block
	for _, l := range s.leaves {
		if l.Rank != s.Comm.Rank() {
			continue
		}
		b, err := s.newBlock(l, nil, nil)
		if err != nil {
			return err
		}
		s.initBlockState(b)
		blocks = append(blocks, b)
	}
	return s.install(blocks)
}

// sortLeaves puts leaves in canonical forest order.
func sortLeaves(ls []blockforest.Leaf) {
	sort.Slice(ls, func(i, j int) bool { return canonicalLess(ls[i].Coord, ls[j].Coord, ls[i].ID, ls[j].ID) })
}

// canonicalLess is the forest order: Morton order of the root trees, then
// depth-first within a tree.
func canonicalLess(ci, cj [3]int, i, j blockforest.BlockID) bool {
	if ki, kj := blockforest.MortonKey(ci), blockforest.MortonKey(cj); ki != kj {
		return ki < kj
	}
	return i.Less(j)
}

// assignRanks distributes leaves (in canonical order) contiguously by
// level-weighted cost: a level-ℓ block sweeps 2^ℓ sub-steps per coarse
// step, so it costs 2^ℓ× a coarse block.
func (s *Sim) assignRanks(ls []blockforest.Leaf) {
	weights := make([]float64, len(ls))
	for i, l := range ls {
		weights[i] = float64(int(1) << uint(l.ID.Level))
	}
	for i, r := range blockforest.AssignContiguous(weights, s.Comm.Size()) {
		ls[i].Rank = r
	}
}

// treeOf returns the root tree index of a grid coordinate (the same
// numbering as blockforest.SetupForest).
func (s *Sim) treeOf(c [3]int) uint32 {
	return uint32((c[2]*s.cfg.Grid[1]+c[1])*s.cfg.Grid[0] + c[0])
}

// setLeaves installs a new global leaf list (already in canonical
// order) and rebuilds the level index.
func (s *Sim) setLeaves(bls []blockforest.Leaf) {
	s.leaves = make([]Leaf, len(bls))
	s.byKey = make(map[lkey]int, len(bls))
	s.maxLevel = 0
	for i, bl := range bls {
		l := leafFrom(bl)
		s.leaves[i] = l
		s.byKey[lkey{level: l.Level(), idx: l.Idx}] = i
		if l.Level() > s.maxLevel {
			s.maxLevel = l.Level()
		}
	}
}

// bfLeaves converts the global leaf list back to blockforest form.
func (s *Sim) bfLeaves() []blockforest.Leaf {
	out := make([]blockforest.Leaf, len(s.leaves))
	for i, l := range s.leaves {
		out[i] = blockforest.Leaf{ID: l.ID, Coord: l.Coord, Rank: l.Rank}
	}
	return out
}

// newBlock assembles one owned leaf in the data plane — flags from the
// pure Config.Flags function (all fluid without one), the level's kernel,
// the allocation window, the boundary sweep — holding the uniform initial
// equilibrium, or the state src and dst that migration hands over.
func (s *Sim) newBlock(l Leaf, src, dst *field.PDFField) (*Block, error) {
	C := s.cfg.Cells
	var flags *field.FlagField
	if s.cfg.Flags != nil {
		flags = s.cfg.Flags(l, s.cfg.Grid, C)
	}
	if flags == nil {
		flags = field.NewFlagField(C[0], C[1], C[2], 1)
		flags.Fill(field.Fluid)
	}
	bd, err := s.plane.AssembleBlock(&blockforest.Block{ID: l.ID, Coord: l.Coord, Cells: C}, flags, src, dst)
	if err != nil {
		return nil, fmt.Errorf("amr: leaf %v: %w", l.ID, err)
	}
	return &Block{Leaf: l, BlockData: bd}, nil
}

// initBlockState writes the configured initial state into both fields of
// one block (a per-cell InitialState makes the window whole).
func (s *Sim) initBlockState(b *Block) {
	if s.cfg.InitialState == nil {
		return
	}
	// Physical positions in level-0 lattice units: level ℓ has cell
	// size 2^-ℓ.
	h := 1.0 / float64(int(1)<<uint(b.Level()))
	C := s.cfg.Cells
	feq := make([]float64, s.cfg.Stencil.Q)
	for z := 0; z < C[2]; z++ {
		for y := 0; y < C[1]; y++ {
			for x := 0; x < C[0]; x++ {
				px := (float64(b.Idx[0]*C[0]+x) + 0.5) * h
				py := (float64(b.Idx[1]*C[1]+y) + 0.5) * h
				pz := (float64(b.Idx[2]*C[2]+z) + 0.5) * h
				r, ux, uy, uz := s.cfg.InitialState(px, py, pz)
				s.cfg.Stencil.Equilibrium(feq, r, ux, uy, uz)
				for a, fv := range feq {
					b.Src.Set(x, y, z, lattice.Direction(a), fv)
					b.Dst.Set(x, y, z, lattice.Direction(a), fv)
				}
			}
		}
	}
}

// install commits an owned block set (any order) against the current
// leaf list: canonical order, the identity index, every block's
// neighborhood — the same-level, coarser or finer leaves around it — the
// data plane's exchange plans and the forest-shape gauges. It fails when a
// neighbor rank fails during the plan build.
func (s *Sim) install(blocks []*Block) error {
	sort.Slice(blocks, func(i, j int) bool {
		return canonicalLess(blocks[i].Coord, blocks[j].Coord, blocks[i].ID, blocks[j].ID)
	})
	s.blocks = blocks
	s.byID = make(map[blockforest.BlockID]*Block, len(blocks))
	data := make([]*sim.BlockData, len(blocks))
	for i, b := range blocks {
		s.byID[b.ID] = b
		b.Block.Neighbors = s.neighbors(b.Leaf)
		data[i] = b.BlockData
	}
	if err := s.plane.SetBlocks(data, resampler{s}); err != nil {
		return err
	}
	s.tel.leaves.Set(float64(len(s.leaves)))
	s.tel.maxLevel.Set(float64(s.maxLevel))
	s.tel.cells.Set(float64(s.TotalCells()))
	return nil
}

// neighbors lists the leaves around l, offset by offset: the leaf of the
// same level, else the coarser leaf covering the region, else — by 2:1
// grading — the finer leaves adjacent to l (four across a face, two
// across an edge, one across a corner). Regions beyond a non-periodic
// domain boundary have none.
func (s *Sim) neighbors(l Leaf) []blockforest.Neighbor {
	out := make([]blockforest.Neighbor, 0, 26)
	lv := l.Level()
	add := func(i int, o [3]int) {
		n := &s.leaves[i]
		out = append(out, blockforest.Neighbor{ID: n.ID, Coord: n.Coord, Offset: o, Rank: n.Rank})
	}
	for oi := 0; oi < 27; oi++ {
		o := [3]int{oi%3 - 1, oi/3%3 - 1, oi/9 - 1}
		if o == ([3]int{}) {
			continue
		}
		n, ok := s.wrapIdx(lv, [3]int{l.Idx[0] + o[0], l.Idx[1] + o[1], l.Idx[2] + o[2]})
		if !ok {
			continue // domain boundary: handled by boundary conditions
		}
		if i, ok := s.leafAt(lv, n); ok {
			add(i, o)
			continue
		}
		if i, ok := s.leafAt(lv-1, [3]int{n[0] >> 1, n[1] >> 1, n[2] >> 1}); ok { // never at level 0
			add(i, o)
			continue
		}
	children:
		for b := 0; b < 8; b++ {
			bits := [3]int{b & 1, b >> 1 & 1, b >> 2 & 1}
			for d := 0; d < 3; d++ {
				if o[d] != 0 && bits[d] != (1-o[d])/2 {
					continue children // not adjacent to l
				}
			}
			i, ok := s.leafAt(lv+1, [3]int{2*n[0] + bits[0], 2*n[1] + bits[1], 2*n[2] + bits[2]})
			if !ok {
				panic(fmt.Sprintf("amr: 2:1 balance broken at level %d region %v", lv, n))
			}
			add(i, o)
		}
	}
	return out
}

// FieldHash folds every interior PDF value of every leaf into one
// FNV-1a hash, identical on all ranks (sim.WorldHash). Leaves are sorted
// by the full leaf identity (forest order is placement-independent) and
// folded with level metadata, so equal hashes mean bit-identical refined
// worlds regardless of rank count, worker count, transport or layout.
func (s *Sim) FieldHash() (uint64, error) {
	data := make([]*sim.BlockData, len(s.blocks))
	keys := make([][]uint64, len(s.blocks))
	for i, b := range s.blocks {
		data[i] = b.BlockData
		keys[i] = []uint64{uint64(b.ID.Tree), b.ID.Path, uint64(b.ID.Level),
			uint64(int64(b.Coord[0])), uint64(int64(b.Coord[1])), uint64(int64(b.Coord[2]))}
	}
	return sim.WorldHash(s.Comm, data, keys, []int{0, 2, 1}) // tree, level, path
}

// Steps returns the number of completed coarse steps.
func (s *Sim) Steps() int { return s.step }

// MaxLevel returns the deepest refinement level currently present.
func (s *Sim) MaxLevel() int { return s.maxLevel }

// NumLeaves returns the global leaf count.
func (s *Sim) NumLeaves() int { return len(s.leaves) }

// Leaves returns a copy of the global leaf list in canonical order.
func (s *Sim) Leaves() []Leaf { return append([]Leaf(nil), s.leaves...) }

// OwnedBlocks returns this rank's blocks in canonical order. The slice
// is a copy; the blocks are live state — read-only for callers.
func (s *Sim) OwnedBlocks() []*Block { return append([]*Block(nil), s.blocks...) }

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

// GetStats returns the accumulated AMR statistics of this rank.
func (s *Sim) GetStats() Stats { return s.stats }

// wrapIdx wraps an unwrapped level index into the periodic domain; ok
// is false outside a non-periodic boundary.
func (s *Sim) wrapIdx(level int, idx [3]int) (w [3]int, ok bool) {
	for d := 0; d < 3; d++ {
		ext := s.cfg.Grid[d] << uint(level)
		w[d] = idx[d]
		if w[d] < 0 || w[d] >= ext {
			if !s.cfg.Periodic[d] {
				return w, false
			}
			w[d] = ((w[d] % ext) + ext) % ext
		}
	}
	return w, true
}

// leafAt looks up the leaf covering a level-grid region at exactly the
// given level.
func (s *Sim) leafAt(level int, idx [3]int) (int, bool) {
	i, ok := s.byKey[lkey{level: level, idx: idx}]
	return i, ok
}
