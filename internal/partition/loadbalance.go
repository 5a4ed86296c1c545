package partition

import (
	"fmt"

	"walberla/internal/blockforest"
)

// BuildBlockGraph translates a setup forest into the weighted graph of the
// paper's load balancing step: one vertex per block with the fluid cell
// count as workload and the allocated cell count as memory weight, and one
// edge per neighboring block pair weighted by the amount of ghost layer
// data exchanged across their shared boundary (face > edge > corner).
func BuildBlockGraph(f *blockforest.SetupForest) (*Graph, []*blockforest.SetupBlock) {
	blocks := f.Blocks()
	index := make(map[[3]int]int, len(blocks))
	for i, b := range blocks {
		index[b.Coord] = i
	}
	g := NewGraph(len(blocks))
	c := f.CellsPerBlock
	x := f.Index()
	for i, b := range blocks {
		g.VertexWeight[i] = b.Workload
		g.VertexMemory[i] = b.Memory
		for _, n := range x.Neighbors(b.Leaf()) {
			j, ok := index[n.Coord]
			if !ok || j <= i {
				continue // each undirected edge once
			}
			off := n.Offset
			// Shared boundary size in cells: the product over axes of the
			// block extent where the offset is zero, 1 where it steps.
			volume := 1
			for d := 0; d < 3; d++ {
				if off[d] == 0 {
					volume *= c[d]
				}
			}
			g.AddEdge(i, j, float64(volume))
		}
	}
	return g, blocks
}

// BalanceGraph assigns ranks to the blocks of the forest by multilevel
// graph partitioning — the METIS-based static load balancing of the
// paper's initialization phase. MemoryCapacity (cells per process) of zero
// disables the memory constraint.
func BalanceGraph(f *blockforest.SetupForest, numRanks int, memoryCapacity float64, seed int64) error {
	g, blocks := BuildBlockGraph(f)
	parts, err := Partition(g, Options{
		Parts:          numRanks,
		MemoryCapacity: memoryCapacity,
		Seed:           seed,
	})
	if err != nil {
		return fmt.Errorf("partition: balancing forest: %w", err)
	}
	for i, b := range blocks {
		b.Rank = parts[i]
	}
	return nil
}
