package blockforest

import (
	"bytes"
	"testing"
)

// volumeUnits measures the domain volume a leaf set covers, exactly, in
// units of 1/8^maxLevel root blocks: a level-ℓ leaf covers 8^(max-ℓ)
// units. Integer arithmetic, so conservation checks are equalities.
func volumeUnits(leaves []Leaf, maxLevel int) uint64 {
	var v uint64
	for _, l := range leaves {
		v += 1 << uint(3*(maxLevel-l.Level()))
	}
	return v
}

// FuzzRegrade drives the runtime grading routine with arbitrary mark
// sequences over several rounds — exactly how the AMR controller calls
// it, each round re-grading the previous round's output — and checks
// the invariants the solver relies on after every round: the result is
// a duplicate-free 2:1-graded cover of the domain (CheckGraded), the
// covered volume is conserved exactly, no leaf exceeds the level cap,
// and every leaf's neighbour list (Index.Neighbors) is the refined
// runtime's reference list (gradedNeighbors), order included.
func FuzzRegrade(f *testing.F) {
	f.Add([]byte{1, 1, 0, 2})
	f.Add([]byte{2, 2, 2, 2, 1, 0, 1, 0, 2, 1})
	f.Add(bytes.Repeat([]byte{1}, 64))
	f.Add(bytes.Repeat([]byte{1, 0, 2}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxLevel = 3
		grid := [3]int{2, 2, 1}
		periodic := [3]bool{true, false, true}
		var leaves []Leaf
		var tree uint32
		for z := 0; z < grid[2]; z++ {
			for y := 0; y < grid[1]; y++ {
				for x := 0; x < grid[0]; x++ {
					leaves = append(leaves, Leaf{ID: BlockID{Tree: tree}, Coord: [3]int{x, y, z}})
					tree++
				}
			}
		}
		want := volumeUnits(leaves, maxLevel)

		pos := 0
		for round := 0; round < 6 && pos < len(data); round++ {
			marks := make([]Mark, len(leaves))
			for i := range marks {
				if pos >= len(data) {
					break
				}
				marks[i] = Mark(int8(data[pos]%3) - 1)
				pos++
			}
			leaves = Grade(leaves, marks, grid, periodic, maxLevel)
			if err := CheckGraded(leaves, grid, periodic); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if err := matchGradedOracle(leaves, grid, periodic); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if got := volumeUnits(leaves, maxLevel); got != want {
				t.Fatalf("round %d: covers %d volume units, want %d", round, got, want)
			}
			for _, l := range leaves {
				if l.Level() > maxLevel {
					t.Fatalf("round %d: leaf %v exceeds max level %d", round, l.ID, maxLevel)
				}
			}
		}
	})
}
