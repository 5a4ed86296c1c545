package blockforest

import (
	"bytes"
	"fmt"

	"walberla/internal/comm"
)

// Neighbor is the lightweight header a rank keeps about a block in the
// neighborhood of one of its own blocks: identity, owner and relative
// position — everything required to exchange ghost layers, and nothing
// more.
type Neighbor struct {
	ID BlockID
	// Coord is the neighbor's root grid coordinate.
	Coord [3]int
	// Offset is the direction from the owning block to the neighbor in
	// {-1,0,1}^3 (before periodic wrapping).
	Offset [3]int
	// Rank owns the neighbor block.
	Rank int
}

// Block is one block owned by this rank in the distributed forest.
type Block struct {
	ID       BlockID
	Coord    [3]int
	AABB     AABB
	Cells    [3]int
	Workload float64
	// Neighbors lists the existing blocks in the 26-neighborhood.
	Neighbors []Neighbor
}

// Neighbor returns the neighbor at the given offset, or nil if the
// neighborhood has no block there (domain boundary or removed block).
func (b *Block) Neighbor(offset [3]int) *Neighbor {
	for i := range b.Neighbors {
		if b.Neighbors[i].Offset == offset {
			return &b.Neighbors[i]
		}
	}
	return nil
}

// BlockForest is the fully distributed per-rank view of the domain
// partitioning: this rank's blocks with full data plus neighbor headers.
// Per-rank memory is proportional to the number of local blocks and their
// neighborhood only, independent of the total simulation size.
type BlockForest struct {
	Rank          int
	NumRanks      int
	Domain        AABB
	GridSize      [3]int
	CellsPerBlock [3]int
	Periodic      [3]bool

	// Blocks are the blocks assigned to this rank, in canonical forest
	// order (Morton order of the roots, then BlockID).
	Blocks []*Block
}

// Build constructs the distributed view of one rank from the global setup
// forest, retaining only this rank's blocks and their neighbor headers.
func Build(f *SetupForest, rank, numRanks int) *BlockForest {
	bf := &BlockForest{
		Rank:          rank,
		NumRanks:      numRanks,
		Domain:        f.Domain,
		GridSize:      f.GridSize,
		CellsPerBlock: f.CellsPerBlock,
		Periodic:      f.Periodic,
	}
	x := f.Index()
	for _, sb := range f.Blocks() {
		if sb.Rank == rank {
			b := bf.Header(sb.Leaf(), x)
			b.Workload = sb.Workload
			bf.Blocks = append(bf.Blocks, b)
		}
	}
	return bf
}

// Header returns the block of leaf l in this forest, its neighbourhood
// looked up in x: the box of its root subdivided along its octree path,
// and the forest's cells per block.
func (bf *BlockForest) Header(l Leaf, x *Index) *Block {
	box := rootAABB(bf.Domain, bf.GridSize, l.Coord)
	for lv := int(l.ID.Level) - 1; lv >= 0; lv-- {
		box = box.Octant(int(l.ID.Path >> (3 * uint(lv)) & 7))
	}
	return &Block{ID: l.ID, Coord: l.Coord, AABB: box, Cells: bf.CellsPerBlock, Neighbors: x.Neighbors(l)}
}

// StoredHeaders returns the number of remote block headers this rank
// keeps — the quantity the distributed-memory invariant bounds; tests
// assert it depends only on the local neighborhood.
func (bf *BlockForest) StoredHeaders() int {
	n := 0
	for _, b := range bf.Blocks {
		n += len(b.Neighbors)
	}
	return n
}

// LocalCells returns the number of lattice cells allocated on this rank.
func (bf *BlockForest) LocalCells() int64 {
	per := int64(bf.CellsPerBlock[0]) * int64(bf.CellsPerBlock[1]) * int64(bf.CellsPerBlock[2])
	return per * int64(len(bf.Blocks))
}

// Distribute performs the paper's loading protocol on a communicator: rank
// 0 holds the setup forest (having built it or loaded it from file),
// serializes it into the compact binary format, broadcasts the bytes in a
// single collective, and every rank decodes the stream and keeps only its
// own part. Ranks other than 0 pass f == nil.
func Distribute(c *comm.Comm, f *SetupForest) (*BlockForest, error) {
	var payload []byte
	if c.Rank() == 0 {
		if f == nil {
			return nil, fmt.Errorf("blockforest: rank 0 must provide the setup forest")
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			return nil, fmt.Errorf("blockforest: serializing forest: %w", err)
		}
		payload = buf.Bytes()
	}
	data := c.Bcast(0, payload).([]byte)
	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("blockforest: rank %d decoding forest: %w", c.Rank(), err)
	}
	return Build(loaded, c.Rank(), c.Size()), nil
}
