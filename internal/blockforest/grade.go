package blockforest

import (
	"fmt"
	"sort"
)

// 2:1 grading: the one routine that turns a set of per-leaf
// refine/coarsen marks into a new, 2:1-balanced leaf set. The runtime AMR
// re-grade controller (internal/amr) is its caller, and the setup forest
// stays flat, so the invariants — octet-complete coarsening, 2:1 balance
// across all 26 neighbor directions, exact volume conservation — are
// enforced in exactly one place. Grade works on, and CheckGraded checks,
// the same Index that lists every block's neighbours (index.go), so the
// wrap and the covering lookup that grade a forest are the ones its
// blocks exchange along.

// Mark is a per-leaf refinement vote fed into Grade.
type Mark int8

const (
	// MarkKeep leaves the block at its current level.
	MarkKeep Mark = 0
	// MarkRefine splits the block into its eight children (unless it is
	// already at the maximum level).
	MarkRefine Mark = 1
	// MarkCoarsen votes to merge the block into its parent; the merge
	// happens only if all eight siblings are leaves and all vote to
	// coarsen (octet-complete coarsening).
	MarkCoarsen Mark = -1
)

// Leaf is the lightweight leaf descriptor Grade operates on: enough to
// identify the block in the octree and on the root grid, plus the rank
// currently owning it. Runtime AMR replicates the full leaf list on
// every rank so re-grade decisions are computed identically everywhere.
type Leaf struct {
	ID    BlockID
	Coord [3]int // root-tree grid coordinate
	Rank  int
}

// Level returns the leaf's refinement level.
func (l Leaf) Level() int { return int(l.ID.Level) }

// LevelIndex returns the block's index on its level's grid: level ℓ
// subdivides every root tree into 2^ℓ blocks per axis, so the level grid
// spans GridSize·2^ℓ cells. The index follows the octree path from the
// root coordinate, using the AABB.Octant bit convention (bit d of an
// octant selects the upper half of axis d).
func LevelIndex(coord [3]int, id BlockID) [3]int {
	idx := coord
	for l := int(id.Level) - 1; l >= 0; l-- {
		oct := int(id.Path >> (3 * uint(l)) & 7)
		for d := 0; d < 3; d++ {
			idx[d] = idx[d]<<1 | (oct >> d & 1)
		}
	}
	return idx
}

// split replaces a leaf with its eight children (children inherit the
// rank until the next balancing pass reassigns them).
func (x *Index) split(l Leaf) {
	delete(x.leaves, key(l))
	for o := 0; o < 8; o++ {
		x.add(Leaf{ID: l.ID.Child(o), Coord: l.Coord, Rank: l.Rank})
	}
}

// Grade applies marks to a leaf set and returns the new leaf set,
// re-graded under 2:1 balance:
//
//  1. every MarkRefine leaf below maxLevel splits into its 8 children;
//  2. a MarkCoarsen octet (all 8 siblings present as leaves, all marked)
//     merges into its parent;
//  3. the result is iterated to a fixpoint where no two face-, edge- or
//     corner-adjacent leaves differ by more than one level — conflicts
//     are always resolved by refining the coarser block, never by
//     undoing a refinement, so marks act as resolution floors.
//
// marks runs parallel to leaves. The returned slice is sorted in
// canonical forest order (Morton key of the root coordinate, then
// BlockID), and the call is deterministic: equal inputs produce equal
// outputs on every rank. Volume is conserved exactly — the sum of
// 8^-level over leaves never changes.
func Grade(leaves []Leaf, marks []Mark, grid [3]int, periodic [3]bool, maxLevel int) []Leaf {
	if len(marks) != len(leaves) {
		panic(fmt.Sprintf("blockforest: Grade got %d marks for %d leaves", len(marks), len(leaves)))
	}
	g := NewIndex(leaves, grid, periodic)

	// Phase 1: refine marks.
	for i, l := range leaves {
		if marks[i] == MarkRefine && l.Level() < maxLevel {
			g.split(l)
		}
	}

	// Phase 2: octet-complete coarsening. Group coarsen votes by parent;
	// merge only octets whose every sibling is still a leaf (a sibling
	// split in phase 1 vetoes the merge).
	type octet struct {
		count int
		coord [3]int
	}
	votes := make(map[BlockID]*octet)
	for i, l := range leaves {
		if marks[i] == MarkCoarsen && l.Level() > 0 {
			p := l.ID.Parent()
			if v := votes[p]; v != nil {
				v.count++
			} else {
				votes[p] = &octet{count: 1, coord: l.Coord}
			}
		}
	}
	for parent, v := range votes {
		if v.count != 8 {
			continue
		}
		ok := true
		children := [8]Leaf{}
		for o := 0; o < 8; o++ {
			c, exists := g.leaves[key(Leaf{ID: parent.Child(o), Coord: v.coord})]
			if !exists || c.ID != parent.Child(o) {
				ok = false
				break
			}
			children[o] = c
		}
		if !ok {
			continue
		}
		for o := 0; o < 8; o++ {
			delete(g.leaves, key(children[o]))
		}
		g.add(Leaf{ID: parent, Coord: children[0].Coord, Rank: children[0].Rank})
	}

	// Phase 3: 2:1 fixpoint. Any leaf with a neighbor two or more levels
	// coarser forces that coarse leaf to split. Iterate until quiet; each
	// pass walks a sorted snapshot so the split order (and therefore the
	// intermediate map state) is deterministic.
	for {
		snapshot := g.sorted()
		var tooCoarse []Leaf
		seen := make(map[lkey]bool)
		for _, l := range snapshot {
			lv := l.Level()
			idx := LevelIndex(l.Coord, l.ID)
			for _, off := range offsets {
				n, ok := g.wrap(lv, idx, off)
				if !ok {
					continue
				}
				c, clv, found := g.covering(lv, n)
				if !found || clv >= lv-1 {
					continue
				}
				k := key(c)
				if !seen[k] {
					seen[k] = true
					tooCoarse = append(tooCoarse, c)
				}
			}
		}
		if len(tooCoarse) == 0 {
			break
		}
		for _, c := range tooCoarse {
			if _, still := g.leaves[key(c)]; still {
				g.split(c)
			}
		}
	}
	return g.sorted()
}

// sorted returns the leaf set in canonical forest order.
func (x *Index) sorted() []Leaf {
	out := make([]Leaf, 0, len(x.leaves))
	for _, l := range x.leaves {
		out = append(out, l)
	}
	SortLeaves(out)
	return out
}

// SortLeaves puts leaves in canonical forest order.
func SortLeaves(ls []Leaf) {
	sort.Slice(ls, func(i, j int) bool { return CanonicalLess(ls[i].Coord, ls[i].ID, ls[j].Coord, ls[j].ID) })
}

// CanonicalLess is the forest order: Morton order of the root trees, then
// BlockID (depth-first within a tree).
func CanonicalLess(ci [3]int, i BlockID, cj [3]int, j BlockID) bool {
	if ki, kj := mortonKey(ci), mortonKey(cj); ki != kj {
		return ki < kj
	}
	return i.Less(j)
}

// CheckGraded verifies the 2:1 invariant of a leaf set: no two adjacent
// leaves (faces, edges or corners, with periodic wrap) differ by more
// than one level, and every region is covered at most once.
func CheckGraded(leaves []Leaf, grid [3]int, periodic [3]bool) error {
	g := newIndex(grid, periodic, len(leaves))
	for _, l := range leaves {
		if prev, dup := g.leaves[key(l)]; dup {
			return fmt.Errorf("blockforest: leaves %v and %v cover the same region %v", prev.ID, l.ID, key(l))
		}
		g.add(l)
	}
	for _, l := range leaves {
		lv := l.Level()
		idx := LevelIndex(l.Coord, l.ID)
		// Overlap with a strict ancestor region is also a double cover.
		if _, clv, found := g.covering(lv, idx); found && clv != lv {
			return fmt.Errorf("blockforest: leaf %v shadowed by coarser leaf at level %d", l.ID, clv)
		}
		for _, off := range offsets {
			n, ok := g.wrap(lv, idx, off)
			if !ok {
				continue
			}
			if c, clv, found := g.covering(lv, n); found && clv < lv-1 {
				return fmt.Errorf("blockforest: leaves %v (level %d) and %v (level %d) break 2:1 balance", l.ID, lv, c.ID, clv)
			}
		}
	}
	return nil
}

// AssignContiguous splits a workload sequence into numRanks contiguous
// chunks of near-equal weight and returns the rank of every entry: the one
// cut of the framework, behind set-up's BalanceMorton and the data plane's
// balance (sim.Simulation.Assign), which a refined world's regrade and the
// periodic rebalance both run. Entries must already be in curve order
// (Morton, or a refined forest's canonical order), so each rank receives a
// spatially compact run. The cut moves on to the next rank once the entry's
// midpoint reaches the per-rank target, and only after the current rank
// took an entry: every rank it reaches is non-empty, so zero weights
// spread one entry per rank and a heavy entry does not swallow its light
// neighbours. Ranks it never reaches stay empty: [100 1 1 1] on three
// ranks is [0 1 1 1].
func AssignContiguous(workloads []float64, numRanks int) []int {
	if numRanks <= 0 {
		panic("blockforest: AssignContiguous requires at least one rank")
	}
	var total float64
	for _, w := range workloads {
		total += w
	}
	target := total / float64(numRanks)
	ranks := make([]int, len(workloads))
	rank, count := 0, 0
	var acc float64
	for i, w := range workloads {
		if rank < numRanks-1 && count > 0 && acc+w/2 >= target {
			rank, count, acc = rank+1, 0, 0
		}
		ranks[i] = rank
		acc += w
		count++
	}
	return ranks
}
