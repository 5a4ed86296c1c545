package blockforest

import (
	"fmt"
	"slices"
)

// The reference neighbourhoods that Index.Neighbors replaced, kept as the
// oracles of TestNeighborsMatchOracle and FuzzRegrade.

// setupNeighbors is the neighbourhood loop of the flat setup forest: the
// existing blocks of the 26-neighbourhood of c, respecting periodic axes,
// each with its offset before wrapping.
func setupNeighbors(f *SetupForest, c [3]int) []Neighbor {
	var out []Neighbor
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				n := [3]int{c[0] + dx, c[1] + dy, c[2] + dz}
				ok := true
				for i := 0; i < 3; i++ {
					if n[i] < 0 || n[i] >= f.GridSize[i] {
						if !f.Periodic[i] {
							ok = false
							break
						}
						n[i] = (n[i] + f.GridSize[i]) % f.GridSize[i]
					}
				}
				if nb := f.Block(n); ok && nb != nil {
					out = append(out, Neighbor{ID: nb.ID, Coord: n, Offset: [3]int{dx, dy, dz}, Rank: nb.Rank})
				}
			}
		}
	}
	return out
}

// gradedNeighbors is the refined runtime's neighbourhood of a leaf of a
// graded leaf set, indexed by region in at: per offset the leaf of the
// same level, else the one a level coarser, else the adjacent leaves a
// level finer, all of which 2:1 grading guarantees.
func gradedNeighbors(at map[lkey]Leaf, grid [3]int, periodic [3]bool, l Leaf) []Neighbor {
	wrapIdx := func(level int, idx [3]int) ([3]int, bool) {
		for d := 0; d < 3; d++ {
			ext := grid[d] << uint(level)
			if idx[d] < 0 || idx[d] >= ext {
				if !periodic[d] {
					return idx, false
				}
				idx[d] = ((idx[d] % ext) + ext) % ext
			}
		}
		return idx, true
	}
	var out []Neighbor
	lv, idx := l.Level(), LevelIndex(l.Coord, l.ID)
	add := func(n Leaf, o [3]int) {
		out = append(out, Neighbor{ID: n.ID, Coord: n.Coord, Offset: o, Rank: n.Rank})
	}
	for oi := 0; oi < 27; oi++ {
		o := [3]int{oi%3 - 1, oi/3%3 - 1, oi/9 - 1}
		if o == ([3]int{}) {
			continue
		}
		n, ok := wrapIdx(lv, [3]int{idx[0] + o[0], idx[1] + o[1], idx[2] + o[2]})
		if !ok {
			continue
		}
		if x, ok := at[lkey{lv, n}]; ok {
			add(x, o)
			continue
		}
		if x, ok := at[lkey{lv - 1, [3]int{n[0] >> 1, n[1] >> 1, n[2] >> 1}}]; ok {
			add(x, o)
			continue
		}
	children:
		for b := 0; b < 8; b++ {
			bits := [3]int{b & 1, b >> 1 & 1, b >> 2 & 1}
			for d := 0; d < 3; d++ {
				if o[d] != 0 && bits[d] != (1-o[d])/2 {
					continue children
				}
			}
			x, ok := at[lkey{lv + 1, [3]int{2*n[0] + bits[0], 2*n[1] + bits[1], 2*n[2] + bits[2]}}]
			if !ok {
				panic(fmt.Sprintf("2:1 balance broken at level %d region %v", lv, n))
			}
			add(x, o)
		}
	}
	return out
}

// matchGradedOracle reports the first leaf whose Index.Neighbors list
// differs from gradedNeighbors', order included.
func matchGradedOracle(leaves []Leaf, grid [3]int, periodic [3]bool) error {
	x := NewIndex(leaves, grid, periodic)
	at := make(map[lkey]Leaf, len(leaves))
	for _, l := range leaves {
		at[key(l)] = l
	}
	for _, l := range leaves {
		got, want := x.Neighbors(l), gradedNeighbors(at, grid, periodic, l)
		if !slices.Equal(got, want) {
			return fmt.Errorf("leaf %v: Neighbors %v, the oracle lists %v", l.ID, got, want)
		}
	}
	return nil
}

// matchSetupOracle does the same on a flat setup forest against
// setupNeighbors.
func matchSetupOracle(f *SetupForest) error {
	x := f.Index()
	for _, b := range f.Blocks() {
		got, want := x.Neighbors(b.Leaf()), setupNeighbors(f, b.Coord)
		if !slices.Equal(got, want) {
			return fmt.Errorf("block %v: Neighbors %v, the oracle lists %v", b.Coord, got, want)
		}
	}
	return nil
}

// The oracles' checks for the package's external tests.
var (
	MatchSetupOracle  = matchSetupOracle
	MatchGradedOracle = matchGradedOracle
)
