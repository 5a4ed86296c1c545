package amr

import (
	"fmt"
	"sort"

	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/kernels"
	"walberla/internal/lattice"
)

// Block is one locally owned leaf with its simulation state.
type Block struct {
	Leaf
	Src, Dst *field.PDFField
	// Flags is non-nil only for blocks with boundary cells; dense fluid
	// blocks take the flag-free kernel fast path.
	Flags    *field.FlagField
	Boundary *boundary.Sweep
}

// lkey addresses a block region by level and level-grid index.
type lkey struct {
	level int
	idx   [3]int
}

// Sim is a distributed AMR simulation. Every rank holds the full
// (lightweight) leaf list, so re-grade and balancing decisions are
// computed identically everywhere without collective negotiation; the
// heavyweight state — PDF fields — lives only on the owning rank.
type Sim struct {
	Comm *comm.Comm
	cfg  Config

	leaves   []Leaf       // canonical forest order, all ranks
	byKey    map[lkey]int // (level, idx) → position in leaves
	maxLevel int          // deepest level currently present

	blocks        []*Block // owned leaves, canonical order
	byID          map[blockforest.BlockID]*Block
	blocksByLevel [][]*Block

	kernels []kernels.Kernel // per level, 0..maxLevel
	pool    workerPool
	plan    *plan

	step  int // coarse steps completed
	tel   amrTel
	stats Stats

	// scratch is per-worker interpolation scratch (Q-vector pairs).
	scratch []interpScratch
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{Comm: c, cfg: cfg}
	s.tel = resolveAMRTel(cfg.Tracer, cfg.Metrics)
	s.pool.workers = cfg.workers()
	s.scratch = make([]interpScratch, cfg.workers())
	for i := range s.scratch {
		s.scratch[i] = newInterpScratch(cfg.Stencil.Q)
	}

	if err := s.buildInitialForest(); err != nil {
		return nil, err
	}
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
	sort.Slice(roots, func(i, j int) bool {
		ki, kj := blockforest.MortonKey(roots[i].Coord), blockforest.MortonKey(roots[j].Coord)
		if ki != kj {
			return ki < kj
		}
		return roots[i].ID.Less(roots[j].ID)
	})
	weights := make([]float64, len(roots))
	for i := range weights {
		weights[i] = 1
	}
	for i, r := range blockforest.AssignContiguous(weights, s.Comm.Size()) {
		roots[i].Rank = r
	}
	s.setLeaves(roots)
	s.blocks = nil
	s.byID = nil
	for _, l := range s.leaves {
		if l.Rank != s.Comm.Rank() {
			continue
		}
		s.addBlock(s.newBlock(l, true))
	}
	s.sortBlocks()
	if err := s.rebuildKernels(); err != nil {
		return err
	}
	s.rebuildPlan()
	return nil
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

// newBlock allocates the state of one owned leaf. init fills the
// initial condition; migration paths pass init=false and install
// transferred fields instead.
func (s *Sim) newBlock(l Leaf, init bool) *Block {
	C := s.cfg.Cells
	b := &Block{Leaf: l}
	b.Src = field.NewPDFField(s.cfg.Stencil, C[0], C[1], C[2], 1, s.cfg.Layout)
	b.Dst = field.NewPDFField(s.cfg.Stencil, C[0], C[1], C[2], 1, s.cfg.Layout)
	if init {
		s.initBlockState(b)
	}
	s.attachFlags(b)
	return b
}

// initBlockState fills the initial condition of one block.
func (s *Sim) initBlockState(b *Block) {
	rho := s.cfg.InitialRho
	if rho == 0 {
		rho = 1
	}
	v := s.cfg.InitialVelocity
	b.Src.FillEquilibrium(rho, v[0], v[1], v[2])
	b.Dst.FillEquilibrium(rho, v[0], v[1], v[2])
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

// attachFlags regenerates the block's flag field and boundary sweep
// from the pure config function (nil flags for dense fluid blocks).
func (s *Sim) attachFlags(b *Block) {
	b.Flags, b.Boundary = nil, nil
	if s.cfg.Flags == nil {
		return
	}
	fl := s.cfg.Flags(b.Leaf, s.cfg.Grid, s.cfg.Cells)
	if fl == nil {
		return
	}
	sw := boundary.NewSweep(s.cfg.Stencil, fl, s.cfg.Boundary)
	ns, v, p := sw.Links()
	boundaryCells := ns+v+p > 0
	allFluid := fl.Count(field.Fluid) == fl.Nx*fl.Ny*fl.Nz
	if !boundaryCells && allFluid {
		return // dense fast path
	}
	b.Flags = fl
	if boundaryCells {
		b.Boundary = sw
	}
}

// addBlock registers an owned block.
func (s *Sim) addBlock(b *Block) {
	if s.byID == nil {
		s.byID = make(map[blockforest.BlockID]*Block)
	}
	s.blocks = append(s.blocks, b)
	s.byID[b.ID] = b
}

// sortBlocks restores canonical order after additions.
func (s *Sim) sortBlocks() {
	sort.Slice(s.blocks, func(i, j int) bool {
		ki, kj := blockforest.MortonKey(s.blocks[i].Coord), blockforest.MortonKey(s.blocks[j].Coord)
		if ki != kj {
			return ki < kj
		}
		return s.blocks[i].ID.Less(s.blocks[j].ID)
	})
}

// rebuildKernels instantiates the per-level collision kernels for the
// current depth.
func (s *Sim) rebuildKernels() error {
	s.kernels = make([]kernels.Kernel, s.maxLevel+1)
	for l := 0; l <= s.maxLevel; l++ {
		spec, err := s.cfg.kernelSpec(l)
		if err != nil {
			return err
		}
		k, err := kernels.New(spec)
		if err != nil {
			return fmt.Errorf("amr: level %d kernel: %w", l, err)
		}
		s.kernels[l] = k
	}
	return nil
}

// Step returns the number of completed coarse steps.
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

// levelExtent returns the level-ℓ block grid extent.
func (s *Sim) levelExtent(level int) [3]int {
	return [3]int{
		s.cfg.Grid[0] << uint(level),
		s.cfg.Grid[1] << uint(level),
		s.cfg.Grid[2] << uint(level),
	}
}

// wrapIdx wraps an unwrapped level index into the periodic domain; ok
// is false outside a non-periodic boundary.
func (s *Sim) wrapIdx(level int, idx [3]int) (w [3]int, ok bool) {
	ext := s.levelExtent(level)
	for d := 0; d < 3; d++ {
		w[d] = idx[d]
		if w[d] < 0 || w[d] >= ext[d] {
			if !s.cfg.Periodic[d] {
				return w, false
			}
			w[d] = ((w[d] % ext[d]) + ext[d]) % ext[d]
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

// floorDiv2 is floor(a/2) for possibly negative a.
func floorDiv2(a int) int {
	if a < 0 {
		return -((-a + 1) / 2)
	}
	return a / 2
}
