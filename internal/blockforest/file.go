package blockforest

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The compact block-structure file format of section 2.2: a custom
// endian-independent binary format (all integers little-endian by
// definition) heavily optimized for minimal file size. Quantities such as
// process ranks and grid coordinates are stored using only the low-order
// bytes that actually carry information — e.g. two bytes suffice for the
// ranks of a simulation with up to 65,536 processes even though four
// bytes are used in memory.
//
// Version 3 ("WBF3") appends a CRC32C trailer over the entire file so
// silent corruption is detected at load time. Version-1 files, which carry
// no integrity information, are rejected loudly. The format stores a flat
// forest of root blocks; refined worlds keep their leaves in WBK2 records
// (internal/output) instead.

const (
	fileMagic       = "WBF3"
	fileMagicLegacy = "WBF1"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// minBytes returns the number of bytes needed to represent maxVal.
func minBytes(maxVal uint64) int {
	n := 1
	for maxVal > 0xFF {
		maxVal >>= 8
		n++
	}
	return n
}

func putUint(buf *bytes.Buffer, v uint64, nbytes int) {
	for i := 0; i < nbytes; i++ {
		buf.WriteByte(byte(v >> (8 * i)))
	}
}

func getUint(r io.Reader, nbytes int) (uint64, error) {
	if nbytes < 1 || nbytes > 8 {
		return 0, fmt.Errorf("blockforest: invalid field width %d", nbytes)
	}
	var b [8]byte
	if _, err := io.ReadFull(r, b[:nbytes]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < nbytes; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}

func putFloat(buf *bytes.Buffer, v float64) {
	putUint(buf, math.Float64bits(v), 8)
}

func getFloat(r io.Reader) (float64, error) {
	v, err := getUint(r, 8)
	return math.Float64frombits(v), err
}

// widths returns the per-block field widths of the format — the fewest
// bytes that hold the largest grid coordinate, rank and rounded workload
// of blocks — and the rank count the header records.
func widths(blocks []*SetupBlock) (coord, rank, work, numRanks int) {
	maxRank, maxCoord, maxWork := 0, 0, uint64(0)
	for _, b := range blocks {
		maxRank = max(maxRank, b.Rank)
		maxCoord = max(maxCoord, b.Coord[0], b.Coord[1], b.Coord[2])
		maxWork = max(maxWork, uint64(b.Workload+0.5))
	}
	return minBytes(uint64(maxCoord)), minBytes(uint64(maxRank)), minBytes(maxWork), maxRank + 1
}

// Save writes the forest, including block ranks and workloads, in the
// compact binary format. Blocks must have been balanced (non-negative
// ranks) or ranks are stored as zero.
func (f *SetupForest) Save(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString(fileMagic)
	for i := 0; i < 3; i++ {
		putFloat(&buf, f.Domain.Min[i])
	}
	for i := 0; i < 3; i++ {
		putFloat(&buf, f.Domain.Max[i])
	}
	for i := 0; i < 3; i++ {
		putUint(&buf, uint64(f.GridSize[i]), 4)
	}
	for i := 0; i < 3; i++ {
		putUint(&buf, uint64(f.CellsPerBlock[i]), 4)
	}
	var periodic byte
	for i := 0; i < 3; i++ {
		if f.Periodic[i] {
			periodic |= 1 << i
		}
	}
	buf.WriteByte(periodic)

	blocks := f.Blocks()
	bytesCoord, bytesRank, bytesWork, numRanks := widths(blocks)
	putUint(&buf, uint64(len(blocks)), 8)
	putUint(&buf, uint64(numRanks), 4)
	buf.WriteByte(byte(bytesCoord))
	buf.WriteByte(byte(bytesRank))
	buf.WriteByte(byte(bytesWork))

	for _, b := range blocks {
		for i := 0; i < 3; i++ {
			putUint(&buf, uint64(b.Coord[i]), bytesCoord)
		}
		putUint(&buf, uint64(max(b.Rank, 0)), bytesRank)
		putUint(&buf, uint64(b.Workload+0.5), bytesWork)
	}
	// Trailer: CRC32C over everything above (not itself).
	putUint(&buf, uint64(crc32.Checksum(buf.Bytes(), castagnoli)), 4)
	_, err := w.Write(buf.Bytes())
	return err
}

// Load reads a forest previously written by Save, verifying the CRC32C
// trailer. It accepts only what Save writes: every block inside the grid
// and at most once, in Morton order and the canonical encoding (the
// fewest bytes per field, no stray flag bits, the true rank count), so an
// accepted file re-saves to the same bytes. The records are checked as
// they stream; nothing but the forest itself is held.
func Load(rd io.Reader) (*SetupForest, error) {
	crc := crc32.New(castagnoli)
	r := io.TeeReader(rd, crc)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("blockforest: reading magic: %w", err)
	}
	switch string(magic) {
	case fileMagic:
	case fileMagicLegacy:
		return nil, fmt.Errorf("blockforest: legacy %s file has no integrity trailer; re-save with this version", fileMagicLegacy)
	default:
		return nil, fmt.Errorf("blockforest: bad magic %q", magic)
	}
	var domain AABB
	for i := 0; i < 3; i++ {
		v, err := getFloat(r)
		if err != nil {
			return nil, err
		}
		domain.Min[i] = v
	}
	for i := 0; i < 3; i++ {
		v, err := getFloat(r)
		if err != nil {
			return nil, err
		}
		domain.Max[i] = v
	}
	var grid, cells [3]int
	for i := 0; i < 3; i++ {
		v, err := getUint(r, 4)
		if err != nil {
			return nil, err
		}
		grid[i] = int(v)
	}
	for i := 0; i < 3; i++ {
		v, err := getUint(r, 4)
		if err != nil {
			return nil, err
		}
		cells[i] = int(v)
	}
	pb, err := getUint(r, 1)
	if err != nil {
		return nil, err
	}
	if pb>>3 != 0 {
		return nil, fmt.Errorf("blockforest: periodicity byte %#x has stray bits", pb)
	}
	var periodic [3]bool
	for i := 0; i < 3; i++ {
		periodic[i] = pb>>i&1 == 1
	}

	numBlocks, err := getUint(r, 8)
	if err != nil {
		return nil, err
	}
	numRanks, err := getUint(r, 4)
	if err != nil {
		return nil, err
	}
	sizes := make([]byte, 3)
	if _, err := io.ReadFull(r, sizes); err != nil {
		return nil, err
	}
	bytesCoord, bytesRank, bytesWork := int(sizes[0]), int(sizes[1]), int(sizes[2])
	for _, s := range sizes {
		if s < 1 || s > 8 {
			return nil, fmt.Errorf("blockforest: invalid field width %d", s)
		}
	}

	// Sanity-check the block count against the grid (Morton keys hold 21
	// bits per axis). The map is sized by the records the input can still
	// hold, so a corrupted count demands no memory the bytes do not back.
	maxBlocks := uint64(grid[0]) * uint64(grid[1]) * uint64(grid[2])
	if min(grid[0], grid[1], grid[2], cells[0], cells[1], cells[2]) <= 0 ||
		max(grid[0], grid[1], grid[2]) > 1<<21 || numBlocks > maxBlocks {
		return nil, fmt.Errorf("blockforest: implausible header: grid %v of %v cells with %d blocks", grid, cells, numBlocks)
	}
	hint := min(numBlocks, 1<<16)
	if in, ok := rd.(interface{ Len() int }); ok {
		hint = min(numBlocks, uint64(in.Len()/(3*bytesCoord+bytesRank+bytesWork)))
	}
	f := &SetupForest{
		Domain:        domain,
		GridSize:      grid,
		CellsPerBlock: cells,
		Periodic:      periodic,
		blocks:        make(map[[3]int]*SetupBlock, hint),
	}
	var maxCoord, maxRank, maxWork, prevKey uint64
	for n := uint64(0); n < numBlocks; n++ {
		var c [3]int
		for i := 0; i < 3; i++ {
			v, err := getUint(r, bytesCoord)
			if err != nil {
				return nil, fmt.Errorf("blockforest: block %d: %w", n, err)
			}
			if v >= uint64(grid[i]) {
				return nil, fmt.Errorf("blockforest: block %d lies outside the %v grid (axis %d at %d)", n, grid, i, v)
			}
			c[i] = int(v)
			maxCoord = max(maxCoord, v)
		}
		if f.blocks[c] != nil {
			return nil, fmt.Errorf("blockforest: block %d stores coordinate %v twice", n, c)
		}
		key := mortonKey(c)
		if n > 0 && key < prevKey {
			return nil, fmt.Errorf("blockforest: block %d at %v is out of Morton order", n, c)
		}
		prevKey = key
		rank, err := getUint(r, bytesRank)
		if err != nil {
			return nil, err
		}
		work, err := getUint(r, bytesWork)
		if err != nil {
			return nil, err
		}
		// A rank the header does not count, or a workload a float64
		// does not round back to, is not what Save writes.
		if rank >= numRanks || work >= 1<<52 {
			return nil, fmt.Errorf("blockforest: block %d has rank %d of %d or workload %d", n, rank, numRanks, work)
		}
		maxRank, maxWork = max(maxRank, rank), max(maxWork, work)
		f.blocks[c] = &SetupBlock{
			ID:       BlockID{Tree: TreeIndex(f.GridSize, c)},
			Coord:    c,
			AABB:     f.BlockAABB(c),
			Workload: float64(work),
			Memory:   float64(cells[0] * cells[1] * cells[2]),
			Rank:     int(rank),
		}
	}
	// The trailer itself is read outside the CRC accumulation.
	want := crc.Sum32()
	stored, err := getUint(rd, 4)
	if err != nil {
		return nil, fmt.Errorf("blockforest: missing CRC trailer: %w", err)
	}
	if uint32(stored) != want {
		return nil, fmt.Errorf("blockforest: CRC mismatch: stored %08x, computed %08x", stored, want)
	}
	if bytesCoord != minBytes(maxCoord) || bytesRank != minBytes(maxRank) ||
		bytesWork != minBytes(maxWork) || numRanks != maxRank+1 {
		return nil, fmt.Errorf("blockforest: file is not in the canonical WBF3 encoding (field widths %v, %d ranks)", sizes, numRanks)
	}
	return f, nil
}

// FileSize returns the exact number of bytes Save will produce without
// writing them — used to validate the file-size claims of section 2.2.
func (f *SetupForest) FileSize() int64 {
	blocks := f.Blocks()
	bytesCoord, bytesRank, bytesWork, _ := widths(blocks)
	header := int64(4 + 6*8 + 3*4 + 3*4 + 1 + 8 + 4 + 3)
	const trailer = 4 // CRC32C
	return header + int64(3*bytesCoord+bytesRank+bytesWork)*int64(len(blocks)) + trailer
}
