package blockforest

// Neighbourhoods. Which blocks surround a block is answered in one place
// for every forest, flat or graded: an Index maps the region of each leaf
// — its level and its index on that level's block grid (LevelIndex) — to
// the leaf, and Neighbors looks the regions around a leaf up in it. Build,
// partition's block graph, Grade and CheckGraded (which share its wrap and
// covering lookup) and the refined runtime all ask it.

// lkey addresses a block region by level and level-grid index.
type lkey struct {
	level int
	idx   [3]int
}

func key(l Leaf) lkey { return lkey{level: l.Level(), idx: LevelIndex(l.Coord, l.ID)} }

// offsets are the 26 neighbour directions in x-fastest order, the order
// every neighbour list follows.
var offsets = func() (o [26][3]int) {
	i := 0
	for oi := range 27 {
		if oi != 13 {
			o[i] = [3]int{oi%3 - 1, oi/3%3 - 1, oi/9 - 1}
			i++
		}
	}
	return o
}()

// Index is a leaf set on a root grid, indexed by region.
type Index struct {
	grid     [3]int
	periodic [3]bool
	leaves   map[lkey]Leaf
	maxLevel int // no leaf is finer
}

// NewIndex indexes leaves on a root grid with the given periodic axes.
func NewIndex(leaves []Leaf, grid [3]int, periodic [3]bool) *Index {
	x := newIndex(grid, periodic, len(leaves))
	for _, l := range leaves {
		x.add(l)
	}
	return x
}

func newIndex(grid [3]int, periodic [3]bool, n int) *Index {
	return &Index{grid: grid, periodic: periodic, leaves: make(map[lkey]Leaf, n)}
}

func (x *Index) add(l Leaf) {
	x.leaves[key(l)] = l
	x.maxLevel = max(x.maxLevel, l.Level())
}

// Neighbors lists the leaves around l, per offset in x-fastest order: the
// leaf of the same level, else the coarser leaf covering that region, else
// the finer leaves adjacent to l — by 2:1 grading four across a face, two
// across an edge, one across a corner. A region beyond a non-periodic
// boundary, or of a root tree the geometry trimmed, has none.
func (x *Index) Neighbors(l Leaf) []Neighbor {
	out := make([]Neighbor, 0, 26)
	lv, idx := l.Level(), LevelIndex(l.Coord, l.ID)
	add := func(n Leaf, o [3]int) {
		out = append(out, Neighbor{ID: n.ID, Coord: n.Coord, Offset: o, Rank: n.Rank})
	}
	for _, o := range offsets {
		n, ok := x.wrap(lv, idx, o)
		if !ok {
			continue
		}
		if c, _, ok := x.covering(lv, n); ok {
			add(c, o)
			continue
		}
		if lv >= x.maxLevel {
			continue
		}
	children:
		for b := range 8 {
			bits := [3]int{b & 1, b >> 1 & 1, b >> 2 & 1}
			for d := range 3 {
				if o[d] != 0 && bits[d] != (1-o[d])/2 {
					continue children // not adjacent to l
				}
			}
			if c, ok := x.leaves[lkey{level: lv + 1, idx: [3]int{2*n[0] + bits[0], 2*n[1] + bits[1], 2*n[2] + bits[2]}}]; ok {
				add(c, o)
			}
		}
	}
	return out
}

// wrap resolves the level-ℓ region adjacent to idx in direction off,
// honoring periodic wrap. ok is false outside a non-periodic boundary.
func (x *Index) wrap(level int, idx, off [3]int) (n [3]int, ok bool) {
	for d := 0; d < 3; d++ {
		ext := x.grid[d] << uint(level)
		n[d] = idx[d] + off[d]
		if n[d] < 0 || n[d] >= ext {
			if !x.periodic[d] {
				return n, false
			}
			n[d] = ((n[d] % ext) + ext) % ext
		}
	}
	return n, true
}

// covering finds the leaf covering the level-ℓ region idx at level ℓ or
// coarser, and its level. Regions of trimmed trees have no covering leaf.
func (x *Index) covering(level int, idx [3]int) (Leaf, int, bool) {
	for lv := level; lv >= 0; lv-- {
		shift := uint(level - lv)
		if l, ok := x.leaves[lkey{level: lv, idx: [3]int{idx[0] >> shift, idx[1] >> shift, idx[2] >> shift}}]; ok {
			return l, lv, true
		}
	}
	return Leaf{}, 0, false
}
