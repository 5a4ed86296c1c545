package blockforest

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"walberla/internal/comm"
)

func unitDomain() AABB {
	return NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
}

func TestAABBBasics(t *testing.T) {
	b := NewAABB([3]float64{1, 2, 3}, [3]float64{0, 5, 4})
	if b.Min != [3]float64{0, 2, 3} || b.Max != [3]float64{1, 5, 4} {
		t.Errorf("normalization failed: %+v", b)
	}
	if b.Volume() != 1*3*1 {
		t.Errorf("Volume = %v, want 3", b.Volume())
	}
	if c := b.Center(); c != [3]float64{0.5, 3.5, 3.5} {
		t.Errorf("Center = %v", c)
	}
	if !b.Contains([3]float64{0.5, 3, 3.5}) || b.Contains([3]float64{2, 3, 3.5}) {
		t.Error("Contains wrong")
	}
}

func TestAABBIntersects(t *testing.T) {
	a := NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	cases := []struct {
		b    AABB
		want bool
	}{
		{NewAABB([3]float64{0.5, 0.5, 0.5}, [3]float64{2, 2, 2}), true},
		{NewAABB([3]float64{1, 0, 0}, [3]float64{2, 1, 1}), true}, // touching
		{NewAABB([3]float64{1.1, 0, 0}, [3]float64{2, 1, 1}), false},
		{NewAABB([3]float64{-1, -1, -1}, [3]float64{2, 2, 2}), true},
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestSphereRadii(t *testing.T) {
	b := NewAABB([3]float64{0, 0, 0}, [3]float64{2, 4, 4})
	if got := b.InsphereRadius(); got != 1 {
		t.Errorf("InsphereRadius = %v, want 1", got)
	}
	want := 0.5 * math.Sqrt(4+16+16)
	if got := b.CircumsphereRadius(); math.Abs(got-want) > 1e-15 {
		t.Errorf("CircumsphereRadius = %v, want %v", got, want)
	}
	if b.InsphereRadius() > b.CircumsphereRadius() {
		t.Error("insphere larger than circumsphere")
	}
}

func TestOctants(t *testing.T) {
	b := unitDomain()
	var vol float64
	for i := 0; i < 8; i++ {
		o := b.Octant(i)
		vol += o.Volume()
		if !b.Intersects(o) {
			t.Errorf("octant %d outside parent", i)
		}
		c := o.Center()
		for d := 0; d < 3; d++ {
			upper := i>>d&1 == 1
			if upper != (c[d] > 0.5) {
				t.Errorf("octant %d axis %d on wrong side", i, d)
			}
		}
	}
	if math.Abs(vol-1) > 1e-15 {
		t.Errorf("octant volumes sum to %v, want 1", vol)
	}
}

func TestBlockIDTree(t *testing.T) {
	root := BlockID{Tree: 5}
	child := root.Child(3)
	if child.Level != 1 || child.Octant() != 3 || child.Parent() != root {
		t.Errorf("child/parent round trip failed: %+v", child)
	}
	grand := child.Child(7)
	if grand.Level != 2 || grand.Octant() != 7 || grand.Parent() != child {
		t.Errorf("grandchild wrong: %+v", grand)
	}
}

func TestBlockIDEncodeDecode(t *testing.T) {
	f := func(tree uint32, path uint64, level uint8) bool {
		level = level % 10
		path &= 1<<(3*uint(level)) - 1
		id := BlockID{Tree: tree, Path: path, Level: level}
		return DecodeBlockID(id.Encode(), level) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockIDOrdering(t *testing.T) {
	a := BlockID{Tree: 1}
	b := BlockID{Tree: 2}
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Error("Less not a strict order on trees")
	}
	c := a.Child(0)
	if !a.Less(c) {
		t.Error("parent must order before child")
	}
}

func TestSetupForestGrid(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{4, 2, 3}, [3]int{8, 8, 8}, [3]bool{})
	if f.NumBlocks() != 24 {
		t.Fatalf("NumBlocks = %d, want 24", f.NumBlocks())
	}
	if f.TotalCells() != 24*512 {
		t.Errorf("TotalCells = %d, want %d", f.TotalCells(), 24*512)
	}
	b := f.Block([3]int{3, 1, 2})
	if b == nil {
		t.Fatal("corner block missing")
	}
	if b.AABB.Max != [3]float64{1, 1, 1} {
		t.Errorf("corner block AABB.Max = %v", b.AABB.Max)
	}
	dx := f.CellSize()
	if math.Abs(dx[0]-1.0/32.0) > 1e-15 || math.Abs(dx[1]-1.0/16.0) > 1e-15 || math.Abs(dx[2]-1.0/24.0) > 1e-15 {
		t.Errorf("CellSize = %v", dx)
	}
}

func TestSetupForestBlockAABBsTile(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{3, 3, 3}, [3]int{4, 4, 4}, [3]bool{})
	var vol float64
	for _, b := range f.Blocks() {
		vol += b.AABB.Volume()
	}
	if math.Abs(vol-1) > 1e-12 {
		t.Errorf("block volumes sum to %v, want 1", vol)
	}
}

// neighborCoords lists the coordinates and offsets of the blocks around
// the block at c.
func neighborCoords(f *SetupForest, c [3]int) (coords, offsets [][3]int) {
	for _, n := range f.Index().Neighbors(f.Block(c).Leaf()) {
		coords, offsets = append(coords, n.Coord), append(offsets, n.Offset)
	}
	return coords, offsets
}

func TestNeighbors(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{3, 3, 3}, [3]int{4, 4, 4}, [3]bool{})
	coords, _ := neighborCoords(f, [3]int{1, 1, 1})
	if len(coords) != 26 {
		t.Errorf("center block has %d neighbors, want 26", len(coords))
	}
	coords, _ = neighborCoords(f, [3]int{0, 0, 0})
	if len(coords) != 7 {
		t.Errorf("corner block has %d neighbors, want 7", len(coords))
	}
	// Remove a block: it must vanish from neighborhoods.
	f.RemoveBlock([3]int{1, 1, 0})
	coords, _ = neighborCoords(f, [3]int{1, 1, 1})
	if len(coords) != 25 {
		t.Errorf("after removal %d neighbors, want 25", len(coords))
	}
}

func TestNeighborsPeriodic(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{3, 3, 3}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	coords, offsets := neighborCoords(f, [3]int{0, 0, 0})
	if len(coords) != 26 {
		t.Fatalf("periodic corner block has %d neighbors, want 26", len(coords))
	}
	// The -x neighbor of column 0 wraps to column 2.
	found := false
	for i, off := range offsets {
		if off == [3]int{-1, 0, 0} {
			found = true
			if coords[i] != [3]int{2, 0, 0} {
				t.Errorf("periodic -x neighbor = %v, want (2,0,0)", coords[i])
			}
		}
	}
	if !found {
		t.Error("no -x neighbor found")
	}
}

func TestKeepAndRemove(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{4, 4, 4}, [3]int{4, 4, 4}, [3]bool{})
	removed := f.Keep(func(b *SetupBlock) bool { return b.Coord[0] < 2 })
	if removed != 32 || f.NumBlocks() != 32 {
		t.Errorf("Keep removed %d, left %d; want 32/32", removed, f.NumBlocks())
	}
}

func TestMortonOrderIsDeterministicAndLocal(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{4, 4, 4}, [3]int{4, 4, 4}, [3]bool{})
	a := f.Blocks()
	b := f.Blocks()
	for i := range a {
		if a[i].Coord != b[i].Coord {
			t.Fatal("Blocks order not deterministic")
		}
	}
	// First 8 blocks of the Morton order form the lower 2x2x2 corner.
	for i := 0; i < 8; i++ {
		c := a[i].Coord
		if c[0] > 1 || c[1] > 1 || c[2] > 1 {
			t.Errorf("Morton block %d at %v outside first octant", i, c)
		}
	}
}

func TestBalanceMortonEvenWorkloads(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{8, 8, 8}, [3]int{4, 4, 4}, [3]bool{})
	const ranks = 16
	f.BalanceMorton(ranks)
	if f.MaxRank() != ranks-1 {
		t.Fatalf("MaxRank = %d, want %d", f.MaxRank(), ranks-1)
	}
	w := f.RankWorkloads(ranks)
	total := 0.0
	for _, v := range w {
		total += v
	}
	target := total / ranks
	for r, v := range w {
		if v < target*0.5 || v > target*1.5 {
			t.Errorf("rank %d workload %v far from target %v", r, v, target)
		}
	}
}

// The Morton curve balancer keeps blocks of one rank spatially adjacent
// ("blocks on one process are ideally neighboring each other to exploit
// fast local communication"): the fraction of neighbor pairs that stay
// rank-internal must be far above a scattered assignment.
func TestBalanceMortonLocality(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{8, 8, 8}, [3]int{4, 4, 4}, [3]bool{})
	const ranks = 8
	f.BalanceMorton(ranks)
	internalFrac := func(rankOf func(b *SetupBlock) int) float64 {
		internal, total := 0, 0
		for _, b := range f.Blocks() {
			coords, _ := neighborCoords(f, b.Coord)
			for _, nc := range coords {
				total++
				if rankOf(f.Block(nc)) == rankOf(b) {
					internal++
				}
			}
		}
		return float64(internal) / float64(total)
	}
	morton := internalFrac(func(b *SetupBlock) int { return b.Rank })
	// Scattered round-robin assignment for comparison.
	idx := map[[3]int]int{}
	for i, b := range f.Blocks() {
		idx[b.Coord] = i % ranks
	}
	scattered := internalFrac(func(b *SetupBlock) int { return idx[b.Coord] })
	if morton < 2*scattered {
		t.Errorf("Morton locality %v not clearly above scattered %v", morton, scattered)
	}
	if morton < 0.4 {
		t.Errorf("Morton internal-neighbor fraction %v too low", morton)
	}
}

func TestBalanceMoreRanksThanBlocks(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{2, 1, 1}, [3]int{4, 4, 4}, [3]bool{})
	f.BalanceMorton(8)
	// Two blocks on eight ranks: some ranks stay empty, none invalid.
	for _, b := range f.Blocks() {
		if b.Rank < 0 || b.Rank >= 8 {
			t.Errorf("block %v assigned invalid rank %d", b.Coord, b.Rank)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := NewSetupForest(NewAABB([3]float64{-1, 0, 2}, [3]float64{3, 5, 7}),
		[3]int{5, 4, 3}, [3]int{16, 8, 4}, [3]bool{true, false, true})
	f.RemoveBlock([3]int{2, 2, 1})
	f.RemoveBlock([3]int{0, 0, 0})
	for i, b := range f.Blocks() {
		b.Workload = float64(100 + i)
	}
	f.BalanceMorton(7)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != f.FileSize() {
		t.Errorf("FileSize = %d, actual %d", f.FileSize(), buf.Len())
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlocks() != f.NumBlocks() || g.GridSize != f.GridSize ||
		g.CellsPerBlock != f.CellsPerBlock || g.Periodic != f.Periodic ||
		g.Domain != f.Domain {
		t.Fatalf("header mismatch: %+v vs %+v", g, f)
	}
	fa, ga := f.Blocks(), g.Blocks()
	for i := range fa {
		if fa[i].Coord != ga[i].Coord || fa[i].Rank != ga[i].Rank ||
			math.Abs(fa[i].Workload-ga[i].Workload) > 0.5 {
			t.Errorf("block %d mismatch: %+v vs %+v", i, fa[i], ga[i])
		}
	}
}

// Section 2.2: ranks of simulations with up to 65,536 processes must
// occupy exactly two bytes on disk.
func TestFileMinimalByteEncoding(t *testing.T) {
	if minBytes(255) != 1 || minBytes(256) != 2 || minBytes(65535) != 2 ||
		minBytes(65536) != 3 || minBytes(0) != 1 {
		t.Error("minBytes thresholds wrong")
	}
	f := NewSetupForest(unitDomain(), [3]int{16, 16, 16}, [3]int{4, 4, 4}, [3]bool{})
	// 4096 blocks, one per rank: ranks up to 4095 -> 2 bytes each.
	f.BalanceMorton(4096)
	perBlock := (f.FileSize() - headerSize()) / int64(f.NumBlocks())
	// coord: 1 byte x3, rank: 2 bytes, workload(64): 1 byte = 6 bytes.
	if perBlock != 6 {
		t.Errorf("per-block bytes = %d, want 6", perBlock)
	}
}

// headerSize is the fixed per-file overhead: header plus the 4-byte
// CRC32C trailer.
func headerSize() int64 { return 4 + 6*8 + 3*4 + 3*4 + 1 + 8 + 4 + 3 + 4 }

// The file size must scale linearly in blocks with a small constant — the
// paper stores half a million blocks in ~40 MiB; our format is tighter.
func TestFileSizeScaling(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{64, 64, 64}, [3]int{8, 8, 8}, [3]bool{})
	f.BalanceMorton(262144)
	perBlock := float64(f.FileSize()-headerSize()) / float64(f.NumBlocks())
	if perBlock > 16 {
		t.Errorf("per-block file cost %v bytes, want <= 16", perBlock)
	}
}

func TestBuildDistributedView(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{4, 4, 4}, [3]int{8, 8, 8}, [3]bool{})
	const ranks = 8
	f.BalanceMorton(ranks)
	total := 0
	for r := 0; r < ranks; r++ {
		bf := Build(f, r, ranks)
		total += len(bf.Blocks)
		for _, b := range bf.Blocks {
			if f.Block(b.Coord).Rank != r {
				t.Errorf("rank %d holds foreign block %v", r, b.Coord)
			}
			for _, n := range b.Neighbors {
				if got := f.Block(n.Coord).Rank; got != n.Rank {
					t.Errorf("neighbor header rank %d, truth %d", n.Rank, got)
				}
			}
		}
		if bf.LocalCells() != int64(len(bf.Blocks)*512) {
			t.Errorf("LocalCells = %d", bf.LocalCells())
		}
	}
	if total != f.NumBlocks() {
		t.Errorf("distributed views cover %d blocks, want %d", total, f.NumBlocks())
	}
}

// The distributed-memory invariant of section 2.2: the number of stored
// remote headers per rank depends on the local neighborhood only — growing
// the global domain with fixed per-rank share must not grow it.
func TestDistributedMemoryInvariant(t *testing.T) {
	headerCountFor := func(grid int) int {
		f := NewSetupForest(unitDomain(), [3]int{grid, grid, grid}, [3]int{4, 4, 4}, [3]bool{})
		ranks := grid * grid * grid // one block per rank
		f.BalanceMorton(ranks)
		// Inspect an interior rank (owner of an interior block).
		interior := f.Block([3]int{grid / 2, grid / 2, grid / 2}).Rank
		bf := Build(f, interior, ranks)
		if len(bf.Blocks) != 1 {
			t.Fatalf("grid %d: interior rank owns %d blocks, want 1", grid, len(bf.Blocks))
		}
		return bf.StoredHeaders()
	}
	h4, h8 := headerCountFor(4), headerCountFor(8)
	if h4 != 26 || h8 != 26 {
		t.Errorf("interior header counts %d and %d, want 26 and 26", h4, h8)
	}
}

func TestNeighborLookup(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{3, 3, 3}, [3]int{4, 4, 4}, [3]bool{})
	f.BalanceMorton(1)
	bf := Build(f, 0, 1)
	var center *Block
	for _, b := range bf.Blocks {
		if b.Coord == [3]int{1, 1, 1} {
			center = b
		}
	}
	if center == nil {
		t.Fatal("center block missing")
	}
	n := center.Neighbor([3]int{1, 0, 0})
	if n == nil || n.Coord != [3]int{2, 1, 1} {
		t.Errorf("+x neighbor = %+v", n)
	}
	if center.Neighbor([3]int{9, 9, 9}) != nil {
		t.Error("bogus offset returned a neighbor")
	}
}

// Distribute must reproduce Build's result via the broadcast protocol.
func TestDistributeOverComm(t *testing.T) {
	f := NewSetupForest(unitDomain(), [3]int{4, 4, 2}, [3]int{8, 8, 8}, [3]bool{})
	const ranks = 6
	f.BalanceMorton(ranks)
	comm.Run(ranks, func(c *comm.Comm) {
		var in *SetupForest
		if c.Rank() == 0 {
			in = f
		}
		bf, err := Distribute(c, in)
		if err != nil {
			t.Error(err)
			return
		}
		want := Build(f, c.Rank(), ranks)
		if len(bf.Blocks) != len(want.Blocks) {
			t.Errorf("rank %d: %d blocks via Distribute, %d via Build", c.Rank(), len(bf.Blocks), len(want.Blocks))
			return
		}
		for i := range bf.Blocks {
			if bf.Blocks[i].Coord != want.Blocks[i].Coord {
				t.Errorf("rank %d block %d coord mismatch", c.Rank(), i)
			}
			if len(bf.Blocks[i].Neighbors) != len(want.Blocks[i].Neighbors) {
				t.Errorf("rank %d block %d neighbor count mismatch", c.Rank(), i)
			}
		}
	})
}

// TestAssignContiguous pins the one cut: a rank is never left empty while
// entries remain for it, a heavy entry beside a light one still splits,
// and equal weights that divide evenly cut where the per-rank sums meet.
func TestAssignContiguous(t *testing.T) {
	even := make([]float64, 64)
	for i := range even {
		even[i] = 512
	}
	halves := make([]int, 64)
	for i := 32; i < 64; i++ {
		halves[i] = 1
	}
	for _, tc := range []struct {
		name    string
		weights []float64
		ranks   int
		want    []int
	}{
		{"zero weights leave no rank empty", []float64{0, 0, 0}, 3, []int{0, 1, 2}},
		{"heavy entry before a light one", []float64{100, 1}, 2, []int{0, 1}},
		{"light entry before a heavy one", []float64{1, 100}, 2, []int{0, 1}},
		{"a heavy head leaves the last rank empty", []float64{100, 1, 1, 1}, 3, []int{0, 1, 1, 1}},
		{"equal weights divide evenly", even, 2, halves},
	} {
		got := AssignContiguous(tc.weights, tc.ranks)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}
