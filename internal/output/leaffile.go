package output

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Leaf rank files ("WBK2") are the level-aware sibling of the WBK1
// block rank file: one file holds the checkpointed Src/Dst fields of
// every octree leaf a rank owns, each record keyed by the full leaf
// identity (root tree, octree path, level, root grid coordinate) instead
// of a flat block coordinate. The same format is the unit of block
// migration during AMR re-grading — one aggregated WBK2 blob per
// destination rank — and of the AMR buddy replica, so checkpointing,
// migration and in-memory recovery all share one codec. Record framing,
// per-record CRC32C protection and the whole-file CRC mirror WBK1, and
// leaf files plug into the same WBS1 set manifest machinery.

const leafFileMagic = "WBK2"

// LeafSnapshot is one octree leaf's contribution to a WBK2 file.
type LeafSnapshot struct {
	Tree  uint32
	Path  uint64
	Level uint8
	Coord [3]int
	Src   *field.PDFField
	Dst   *field.PDFField
}

// leafID is the fixed-size head of a record key on the wire (13 bytes,
// little-endian, no padding), followed by the root grid coordinate.
type leafID struct {
	Tree  uint32
	Path  uint64
	Level uint8
}

// WriteLeafFile writes the leaves of one rank, returning the byte size
// and the CRC32C of everything written.
func WriteLeafFile(w io.Writer, leaves []LeafSnapshot) (int64, uint32, error) {
	return writeRecords(w, leafFileMagic, leaves, func(rec *bytes.Buffer, l *LeafSnapshot) (src, dst *field.PDFField) {
		binary.Write(rec, binary.LittleEndian, leafID{l.Tree, l.Path, l.Level})
		writeCoord(rec, l.Coord)
		return l.Src, l.Dst
	})
}

// LeafFileSize returns the exact number of bytes WriteLeafFile writes for
// leaves: magic and record count, then per record the 13-byte identity,
// the root coordinate, two length-prefixed whole-block checkpoints and the
// record CRC. Encoders size their buffer with it once.
func LeafFileSize(leaves []LeafSnapshot) int64 {
	n := int64(4 + 4)
	for i := range leaves {
		n += 13 + 3*8 + 4
		for _, f := range []*field.PDFField{leaves[i].Src, leaves[i].Dst} {
			n += 8 + CheckpointSize(f.Stencil.Q, f.Nx, f.Ny, f.Nz, f.Ghost)
		}
	}
	return n
}

// ReadLeafFile reads a WBK2 leaf file, restoring every field in the
// given layout, and returns the leaves plus the whole-stream CRC32C.
func ReadLeafFile(r io.Reader, s *lattice.Stencil, layout field.Layout) ([]LeafSnapshot, uint32, error) {
	return readLeafFile(r, s, layout, false)
}

// ReadLeafFileStored is ReadLeafFile with every field restored in the
// layout recorded in its own checkpoint header.
func ReadLeafFileStored(r io.Reader, s *lattice.Stencil) ([]LeafSnapshot, uint32, error) {
	return readLeafFile(r, s, field.AoS, true)
}

func readLeafFile(r io.Reader, s *lattice.Stencil, layout field.Layout, useStored bool) ([]LeafSnapshot, uint32, error) {
	f := recordFormat{magic: leafFileMagic, noun: "leaf", s: s, layout: layout, useStored: useStored}
	return readRecords(r, f, func(rr io.Reader, l *LeafSnapshot) (reason string, src, dst **field.PDFField) {
		var id leafID
		if err := binary.Read(rr, binary.LittleEndian, &id); err != nil {
			reason = fmt.Sprintf("truncated identity: %v", err)
		} else if id.Level > 20 {
			reason = fmt.Sprintf("implausible level %d", id.Level)
		} else {
			l.Tree, l.Path, l.Level = id.Tree, id.Path, id.Level
			reason = readCoord(rr, &l.Coord)
		}
		return reason, &l.Src, &l.Dst
	})
}
