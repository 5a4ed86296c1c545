package sim

import (
	"sort"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/lattice"
)

// Refined worlds. The refined runtime (internal/amr) keeps its leaves here
// as blocks (AssembleBlock, with the level's relaxation time), and Step
// runs them: one sub-step of a level is the uniform step's post /
// interior / wait / frontier over that level's blocks, followed by two
// sub-steps of the next finer level (Simulation.subStep). Run, the
// resilient driver, checkpoint sets and spares run a refined world as they
// run a uniform one. The refined runtime supplies only what it alone
// knows, as the world's Refiner: the arithmetic of transfers between
// levels (the Resampler), the refine/coarsen controller and its leaf set.

// Transfer is a ghost transfer between blocks one level apart, produced on
// the sender at the receiver's resolution when the exchange packs it: for
// every cell p of the receiver-frame box [Lo, Hi) and every direction of
// Dirs, in PackRegion order (dir-major, then z, y, x), the receiver's value
// taken from Src — of these slots the ones the receiver keeps (Kept).
type Transfer struct {
	Src *BlockData
	// ToFiner is set when the receiver is one level finer than Src (the
	// transfer prolongs), clear when it is one level coarser (it restricts).
	ToFiner bool
	Lo, Hi  [3]int
	// Base maps receiver cell p into Src: prolonging, p+Base is a cell of
	// Src's 2× subdivision (its interior spans [0, 2N)); restricting, 2p+Base
	// is the origin of a 2×2×2 group of Src's interior cells.
	Base [3]int
	Dirs []lattice.Direction
	// keep is the receiver's mask of the slots, as for a slab of one level.
	keep slotMask
	// Table and Memo are the Resampler's to keep from one exchange to a
	// later one: Table what it lowers the transfer to, Memo, on a transfer
	// to a finer level, samples; MemoStamp is what it last stamped Memo
	// with, -1 before the first stamp. They die with the plan.
	Table     any
	Memo      []float64
	MemoStamp int
}

// Kept reports whether the receiver keeps slot k of the transfer (PackRegion
// order over the box and Dirs). The payload holds the kept slots in order.
func (t *Transfer) Kept(k int) bool { return t.keep.has(k) }

// Resampler computes transfers between levels. Resample writes the payload
// of t into buf (its kept slots); phase is the
// receiving sub-step's half of its parent's interval (0 for the first of a
// level's two sub-steps, 1 for the second: the parity of the receiving
// level's LevelSweeps), and worker the pool worker running it, for
// per-worker scratch. Concurrent calls read only the interiors of their
// sources and write only their own transfer.
type Resampler interface {
	Resample(t *Transfer, buf []float64, phase, worker int)
}

// Refiner is what a refined world's controller adds to its data plane
// (SetRefiner).
type Refiner interface {
	// Resampler computes the world's transfers between levels.
	Resampler
	// BeforeStep runs before the coarse step that starts at world step
	// step: the controller's pass, which may change the block set (Commit).
	BeforeStep(step int) error
	// Depth is the deepest level a landed leaf may have.
	Depth() int
	// Landed takes the leaf set Land committed, owners included.
	Landed(leaves []blockforest.Leaf)
	// Reset rebuilds the forest of step 0 at the initial state: a
	// restore's last rung, when no generation survives.
	Reset() error
}

// SetRefiner makes the world a refined one whose controller is r: Step
// runs r's pass first, Land and Commit take r's depth and transfers, and a
// restore without a surviving generation rebuilds r's step-0 forest.
func (s *Simulation) SetRefiner(r Refiner) { s.refiner = r }

// LeafLevels returns the global leaf count per level of a refined world,
// from level 0 to the deepest level present, counted over every rank's
// blocks; nil on a world without a Refiner. Collective on a refined world.
func (s *Simulation) LeafLevels() ([]int, error) {
	if s.refiner == nil {
		return nil, nil
	}
	counts := make([]int, s.refiner.Depth()+1)
	for _, bd := range s.Blocks {
		counts[bd.Block.ID.Level]++
	}
	for l, n := range counts {
		total, err := s.Comm.AllreduceInt64Err(int64(n), comm.Sum[int64])
		if err != nil {
			return nil, err
		}
		counts[l] = int(total)
	}
	for len(counts) > 1 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	return counts, nil
}

// TauAt returns the relaxation time of refinement level l under acoustic
// scaling: both dx and dt halve per level, so ν = c_s²(τ−1/2)dt requires
// τ_ℓ − 1/2 = 2^ℓ(τ₀ − 1/2). Level 0 is Tau itself, exactly (τ − 1/2 is
// exact in floating point for τ ≥ 1/2).
func (c *Config) TauAt(l int) float64 {
	return 0.5 + float64(int(1)<<uint(l))*(c.Tau-0.5)
}

// SetBlocks makes blocks this rank's block set — blocks of any levels,
// each with its whole neighborhood in Block.Neighbors, put in canonical
// order (the forest's too) — re-forms the arenas whose members changed
// (formArenas), and rebuilds the exchange plans of all levels, whose
// transfers between levels r computes. Like every plan rebuild it runs at
// a step boundary, is collective among neighboring ranks and fails only
// when one of them does.
func (s *Simulation) SetBlocks(blocks []*BlockData, r Resampler) error {
	sort.Slice(blocks, func(i, j int) bool {
		return blockforest.CanonicalLess(blocks[i].Block.Coord, blocks[i].Block.ID, blocks[j].Block.Coord, blocks[j].Block.ID)
	})
	f := s.Forest
	f.Rank, f.NumRanks, f.Blocks = s.Comm.Rank(), s.Comm.Size(), make([]*blockforest.Block, len(blocks))
	for i, bd := range blocks {
		f.Blocks[i] = bd.Block
	}
	s.Blocks, s.resample = blocks, r
	if err := s.formArenas(blocks); err != nil {
		return err
	}
	return s.rebuildPlan()
}

// LevelSweeps returns the number of sub-steps of one level since the last
// plan build. While the world steps only these sub-steps write the level's
// fields, so the count stamps state derived from them.
func (s *Simulation) LevelSweeps(level int) int {
	if level >= len(s.levelSweeps) {
		return 0
	}
	return s.levelSweeps[level]
}

// Level geometry. 2:1 grading keeps neighbors within one level, so in the
// block grid of the finer of two neighbors each spans one or two blocks
// per axis, and where one starts relative to the other decides every
// transfer between them. A refined block's octant bits are the low bits of
// its level-grid index.

func neg(o [3]int) [3]int { return [3]int{-o[0], -o[1], -o[2]} }

// octantBits returns the octant bits of a refined block.
func octantBits(id blockforest.BlockID) [3]int {
	oct := id.Octant()
	return [3]int{oct & 1, oct >> 1 & 1, oct >> 2 & 1}
}

// relOrigin returns where neighbor n of block id starts relative to id, in
// blocks of the finer level's grid, with the widths of id and n there.
func relOrigin(id blockforest.BlockID, n blockforest.Neighbor) (rel [3]int, w, wn int) {
	p := n.Offset
	switch int(n.ID.Level) - int(id.Level) {
	case 0:
		return p, 1, 1
	case 1: // n is a child of id's neighbor region p
		c := octantBits(n.ID)
		for d := range rel {
			rel[d] = 2*p[d] + c[d]
		}
		return rel, 2, 1
	}
	b := octantBits(id) // id is a child, n its parent's neighbor
	for d := range rel {
		rel[d] = 2*((b[d]+p[d])>>1) - b[d]
	}
	return rel, 1, 2
}

// receiverOffsets lists in out[:n] the offsets at which the ghost layer
// of a neighbor starting at rel (width wn) overlaps a sender of width w —
// at most four (a finer neighbor across a face).
func receiverOffsets(rel [3]int, w, wn int) (out [4][3]int, n int) {
	for oi := 0; oi < 27; oi++ {
		o := [3]int{oi%3 - 1, oi/3%3 - 1, oi/9 - 1}
		in := o != [3]int{}
		for d := 0; d < 3 && in; d++ {
			lo := rel[d] + o[d]*wn
			in = lo < w && lo+wn > 0
		}
		if in {
			out[n] = o
			n++
		}
	}
	return out, n
}

// entering reports whether a local block enters the transfer into its
// neighbor's ghost layer at offset o from its own neighbor entry at offset
// p: from the entry that is zero wherever o is. Only a coarser neighbor
// is seen at several entries yielding the same o, and exactly one of them
// qualifies; every other transfer has a single entry, which does.
func entering(p, o [3]int) bool {
	for d := 0; d < 3; d++ {
		if o[d] == 0 && p[d] != 0 {
			return false
		}
	}
	return true
}

// ghostBox is the part of a receiver's ghost slab at offset o that a
// sender starting at rel (relative to the receiver, width w; the
// receiver's width wr) covers: the whole slab, or for a finer sender the
// half it occupies along every axis the slab spans.
func ghostBox(cells, o, rel [3]int, w, wr int) region {
	r := recvRegion(cells, o)
	for d := 0; d < 3; d++ {
		if wr > w && o[d] == 0 {
			r.lo[d], r.hi[d] = rel[d]*cells[d]/2, (rel[d]+1)*cells[d]/2
		}
	}
	return r
}
