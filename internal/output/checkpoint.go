package output

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Checkpoint format: an exact binary snapshot of one block's PDF state
// (including ghost layers, so a restored simulation continues
// bit-identically without a communication step). Little-endian by
// definition, like the block-structure file format. Version 2 ("WBC2")
// appends a CRC32C (Castagnoli) trailer over header and payload so silent
// corruption is detected at load time; version-1 files are rejected
// loudly rather than trusted without an integrity check.

const (
	checkpointMagic       = "WBC2"
	checkpointMagicLegacy = "WBC1"
	// maxCheckpointBytes bounds the allocation a single-block checkpoint
	// header may request — far above any block the framework produces,
	// far below anything that could exhaust memory.
	maxCheckpointBytes = int64(1) << 30
)

// castagnoli is the CRC32C polynomial table shared by all framework file
// formats (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the Castagnoli CRC of p — the checksum every framework
// format uses, exported so in-memory consumers of the encodings (the
// buddy-replication envelopes of shrinking recovery) validate payloads
// with the identical discipline.
func CRC32C(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// CorruptError is the typed error for structurally invalid or
// integrity-failing external data: bad magic, implausible headers that
// would otherwise drive huge allocations, truncations and CRC mismatches.
type CorruptError struct {
	// Format is the file format ("WBC2", "WBS1", ...).
	Format string
	// Reason describes the failed validation.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("output: corrupt %s data: %s", e.Format, e.Reason)
}

func corruptf(format, reason string, args ...any) *CorruptError {
	return &CorruptError{Format: format, Reason: fmt.Sprintf(reason, args...)}
}

// SaveCheckpoint writes the complete PDF state of a block, protected by a
// CRC32C trailer.
func SaveCheckpoint(w io.Writer, f *field.PDFField) error {
	bw := bufio.NewWriter(w)
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(bw, crc)
	io.WriteString(out, checkpointMagic)
	hdr := []uint32{
		uint32(f.Stencil.Q),
		uint32(f.Nx), uint32(f.Ny), uint32(f.Nz),
		uint32(f.Ghost),
		uint32(f.Layout),
	}
	for _, v := range hdr {
		binary.Write(out, binary.LittleEndian, v)
	}
	// Write in canonical (layout-independent) order — (z,y,x) cells of the
	// whole ghosted block with the Q directions interleaved — so checkpoints
	// are portable between layouts and allocation rows: cells outside the
	// field's rows are written as its fill value, which is what a field
	// storing them would hold. Encoding is buffered one padded row at a
	// time: the AoS storage order coincides with the wire order, and the SoA
	// path gathers from the by-direction arrays without converting the field.
	q := f.Stencil.Q
	g := f.Ghost
	ax := f.Nx + 2*g
	fillRow := make([]byte, ax*q*8)
	for x := 0; x < ax; x++ {
		for a := 0; a < q; a++ {
			binary.LittleEndian.PutUint64(fillRow[(x*q+a)*8:], math.Float64bits(f.FillValue(lattice.Direction(a))))
		}
	}
	row := make([]byte, len(fillRow))
	data := f.Data()
	cells := f.AllocatedCells()
	for z := -g; z < f.Nz+g; z++ {
		for y := -g; y < f.Ny+g; y++ {
			xa, xb := f.Rows().Span(y, z)
			if xa == xb {
				out.Write(fillRow)
				continue
			}
			n := xb - xa
			if n < ax {
				copy(row, fillRow)
			}
			ci := f.CellIndex(xa, y, z)
			stored := row[(xa+g)*q*8:]
			if f.Layout == field.AoS {
				vals := data[ci*q : (ci+n)*q]
				for i, v := range vals {
					binary.LittleEndian.PutUint64(stored[i*8:], math.Float64bits(v))
				}
			} else {
				o := 0
				for x := 0; x < n; x++ {
					for a := 0; a < q; a++ {
						binary.LittleEndian.PutUint64(stored[o:], math.Float64bits(data[a*cells+ci+x]))
						o += 8
					}
				}
			}
			out.Write(row)
		}
	}
	// Trailer: CRC32C over magic, header and payload (not itself).
	binary.Write(bw, binary.LittleEndian, crc.Sum32())
	return bw.Flush()
}

// CheckpointSize returns the exact number of bytes SaveCheckpoint
// produces for a block of the given shape.
func CheckpointSize(q, nx, ny, nz, ghost int) int64 {
	cells := int64(nx+2*ghost) * int64(ny+2*ghost) * int64(nz+2*ghost)
	return 4 + 6*4 + cells*int64(q)*8 + 4
}

// crcReader tees everything read through it into a CRC32C accumulator.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: r, crc: crc32.New(castagnoli)}
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}

// LoadCheckpoint restores a PDF field saved by SaveCheckpoint, verifying
// the CRC32C trailer. The stencil must match the saved Q; the restored
// field uses the requested layout regardless of the layout at save time.
// Structural problems (bad magic, implausible header, truncation, CRC
// mismatch) return a typed *CorruptError before any large allocation.
func LoadCheckpoint(r io.Reader, s *lattice.Stencil, layout field.Layout) (*field.PDFField, error) {
	return loadCheckpoint(r, s, layout, false)
}

// LoadCheckpointStored restores a PDF field in the layout recorded in the
// checkpoint header. The wire format is layout-independent; this variant
// merely picks the in-memory representation the writer used, which lets a
// reader reconstruct a mixed-layout rank without knowing the per-block
// kernel choices in advance.
func LoadCheckpointStored(r io.Reader, s *lattice.Stencil) (*field.PDFField, error) {
	return loadCheckpoint(r, s, field.AoS, true)
}

func loadCheckpoint(r io.Reader, s *lattice.Stencil, layout field.Layout, useStored bool) (*field.PDFField, error) {
	br := bufio.NewReader(r)
	cr := newCRCReader(br)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, corruptf(checkpointMagic, "reading magic: %v", err)
	}
	switch string(magic) {
	case checkpointMagic:
	case checkpointMagicLegacy:
		return nil, corruptf(checkpointMagic,
			"legacy %s checkpoint has no integrity trailer; re-save with this version", checkpointMagicLegacy)
	default:
		return nil, corruptf(checkpointMagic, "bad magic %q", magic)
	}
	var hdr [6]uint32
	for i := range hdr {
		if err := binary.Read(cr, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, corruptf(checkpointMagic, "truncated header: %v", err)
		}
	}
	if int(hdr[0]) != s.Q {
		return nil, fmt.Errorf("output: checkpoint has Q=%d, stencil %s has Q=%d", hdr[0], s, s.Q)
	}
	// Reject corrupted headers before allocating (extents beyond any
	// block the framework produces, or absurd ghost widths): garbage
	// header fields must produce a typed error, never a multi-GiB
	// allocation attempt.
	const maxExtent = 1 << 16
	if hdr[1] == 0 || hdr[2] == 0 || hdr[3] == 0 ||
		hdr[1] > maxExtent || hdr[2] > maxExtent || hdr[3] > maxExtent || hdr[4] > 8 {
		return nil, corruptf(checkpointMagic, "implausible header %v", hdr)
	}
	// The per-axis bound does not bound the product: three individually
	// plausible extents can still multiply into a terabyte allocation.
	if size := CheckpointSize(s.Q, int(hdr[1]), int(hdr[2]), int(hdr[3]), int(hdr[4])); size > maxCheckpointBytes {
		return nil, corruptf(checkpointMagic, "header %v implies a %d-byte checkpoint (limit %d)", hdr, size, int64(maxCheckpointBytes))
	}
	if hdr[5] != uint32(field.AoS) && hdr[5] != uint32(field.SoA) {
		return nil, corruptf(checkpointMagic, "unknown layout %d", hdr[5])
	}
	if useStored {
		layout = field.Layout(hdr[5])
	}
	f := field.NewPDFField(s, int(hdr[1]), int(hdr[2]), int(hdr[3]), int(hdr[4]), layout)
	// Decode one padded row of the canonical wire order at a time: a
	// straight copy into AoS storage, a scatter into the by-direction
	// arrays for SoA — either way without a layout round-trip.
	q := s.Q
	g := f.Ghost
	ax := f.Nx + 2*g
	row := make([]byte, ax*q*8)
	data := f.Data()
	cells := f.AllocatedCells()
	for z := -g; z < f.Nz+g; z++ {
		for y := -g; y < f.Ny+g; y++ {
			if _, err := io.ReadFull(cr, row); err != nil {
				return nil, corruptf(checkpointMagic,
					"truncated payload at row (y=%d,z=%d): %v", y, z, err)
			}
			ci := f.CellIndex(-g, y, z)
			if f.Layout == field.AoS {
				vals := data[ci*q : (ci+ax)*q]
				for i := range vals {
					vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(row[i*8:]))
				}
			} else {
				o := 0
				for x := 0; x < ax; x++ {
					for a := 0; a < q; a++ {
						data[a*cells+ci+x] = math.Float64frombits(binary.LittleEndian.Uint64(row[o:]))
						o += 8
					}
				}
			}
		}
	}
	want := cr.crc.Sum32()
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, corruptf(checkpointMagic, "missing CRC trailer: %v", err)
	}
	if got != want {
		return nil, corruptf(checkpointMagic, "CRC mismatch: stored %08x, computed %08x", got, want)
	}
	return f, nil
}

// RestorePDF loads a checkpoint into an existing field, validating that
// shapes match — the in-place variant used for simulation restarts where
// the fields are already allocated by the setup pipeline. Checkpoints
// describe the whole ghosted block; the cells of f's allocation rows are
// restored, the rest of the file is ignored.
func RestorePDF(r io.Reader, f *field.PDFField) error {
	g, err := LoadCheckpoint(r, f.Stencil, f.Layout)
	if err != nil {
		return err
	}
	if g.Nx != f.Nx || g.Ny != f.Ny || g.Nz != f.Nz || g.Ghost != f.Ghost {
		return fmt.Errorf("output: checkpoint shape %dx%dx%d (ghost %d) does not match field %dx%dx%d (ghost %d)",
			g.Nx, g.Ny, g.Nz, g.Ghost, f.Nx, f.Ny, f.Nz, f.Ghost)
	}
	f.CopyFrom(g)
	return nil
}

// SaveFlags writes a flag field snapshot (same canonical order).
func SaveFlags(w io.Writer, f *field.FlagField) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("WBF1") // flags checkpoint shares the minimal header style
	hdr := []uint32{uint32(f.Nx), uint32(f.Ny), uint32(f.Nz), uint32(f.Ghost)}
	for _, v := range hdr {
		binary.Write(bw, binary.LittleEndian, v)
	}
	g := f.Ghost
	for z := -g; z < f.Nz+g; z++ {
		for y := -g; y < f.Ny+g; y++ {
			for x := -g; x < f.Nx+g; x++ {
				bw.WriteByte(byte(f.Get(x, y, z)))
			}
		}
	}
	return bw.Flush()
}

// LoadFlags restores a flag field saved by SaveFlags.
func LoadFlags(r io.Reader) (*field.FlagField, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != "WBF1" {
		return nil, fmt.Errorf("output: bad flags magic %q", magic)
	}
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	const maxExtent = 1 << 16
	if hdr[0] == 0 || hdr[1] == 0 || hdr[2] == 0 ||
		hdr[0] > maxExtent || hdr[1] > maxExtent || hdr[2] > maxExtent || hdr[3] > 8 {
		return nil, corruptf("WBF1", "implausible header %v", hdr)
	}
	g64 := int64(hdr[3])
	if cells := (int64(hdr[0]) + 2*g64) * (int64(hdr[1]) + 2*g64) * (int64(hdr[2]) + 2*g64); cells > maxCheckpointBytes {
		return nil, corruptf("WBF1", "header %v implies %d cells (limit %d)", hdr, cells, int64(maxCheckpointBytes))
	}
	f := field.NewFlagField(int(hdr[0]), int(hdr[1]), int(hdr[2]), int(hdr[3]))
	g := f.Ghost
	buf := make([]byte, 1)
	for z := -g; z < f.Nz+g; z++ {
		for y := -g; y < f.Ny+g; y++ {
			for x := -g; x < f.Nx+g; x++ {
				if _, err := io.ReadFull(br, buf); err != nil {
					return nil, err
				}
				f.Set(x, y, z, field.CellType(buf[0]))
			}
		}
	}
	return f, nil
}
