package output

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Rank files ("WBK2") are the one block-state format: one file holds the
// checkpointed Src/Dst fields of every block a rank owns, each record
// keyed by the block's identity (root tree, octree path, level, root grid
// coordinate). A uniform block is a level-0 leaf of its root (path 0).
// The same stream is a checkpoint set's rank file, a buddy replica, a
// heal stream and — one aggregated blob per destination rank — the unit
// of block migration during AMR re-grading, so checkpointing, migration
// and in-memory recovery share one codec.
//
// Layout: magic, record count, then per record the key, the length-
// prefixed WBC2 encodings of Src and Dst and a CRC32C over all of it; the
// whole stream is CRC'd for the set manifest.

const leafFileMagic = "WBK2"

// LeafSnapshot is one block's record in a WBK2 file.
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

// WriteLeafFile writes the blocks of one rank — AppendLeafFile's bytes,
// one record at a time, so a rank file on disk is never held in memory
// whole — returning the byte size and the CRC32C of everything written.
func WriteLeafFile(w io.Writer, leaves []LeafSnapshot) (int64, uint32, error) {
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(w, crc)
	buf := binary.LittleEndian.AppendUint32([]byte(leafFileMagic), uint32(len(leaves)))
	var n int64
	for i := 0; ; i++ {
		k, err := out.Write(buf)
		if n += int64(k); err != nil || i == len(leaves) {
			return n, crc.Sum32(), err
		}
		buf = appendLeaf(buf[:0], &leaves[i])
	}
}

// AppendLeafFile appends the WBK2 encoding of leaves to dst, grown once by
// LeafFileSize, and returns the extended slice: the in-memory rank file of
// a buddy replica, a heal stream or a migration message.
func AppendLeafFile(dst []byte, leaves []LeafSnapshot) []byte {
	dst = slices.Grow(dst, int(LeafFileSize(leaves)))
	dst = binary.LittleEndian.AppendUint32(append(dst, leafFileMagic...), uint32(len(leaves)))
	for i := range leaves {
		dst = appendLeaf(dst, &leaves[i])
	}
	return dst
}

// appendLeaf appends one record: its identity, the length-prefixed WBC2
// encodings of Src and Dst, and a CRC32C over all of that.
func appendLeaf(dst []byte, l *LeafSnapshot) []byte {
	le := binary.LittleEndian
	start := len(dst)
	dst = append(le.AppendUint64(le.AppendUint32(dst, l.Tree), l.Path), l.Level)
	for _, c := range l.Coord {
		dst = le.AppendUint64(dst, uint64(int64(c)))
	}
	for _, f := range []*field.PDFField{l.Src, l.Dst} {
		w := sliceWriter{le.AppendUint64(dst, uint64(CheckpointSize(f.Stencil.Q, f.Nx, f.Ny, f.Nz, f.Ghost)))}
		SaveCheckpoint(&w, f) // writes to memory cannot fail
		dst = w.b
	}
	return le.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// sliceWriter appends what is written to it.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// LeafFileSize returns the exact number of bytes WriteLeafFile writes and
// AppendLeafFile appends for leaves: magic and record count, then per
// record the 13-byte identity, the root coordinate, two length-prefixed
// whole-block checkpoints and the record CRC.
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

// maxRankFileBlocks bounds the record count a rank file header may claim
// before any allocation happens — far above any per-rank block count the
// framework produces.
const maxRankFileBlocks = 1 << 20

// ReadLeafFile reads and CRC-validates a WBK2 file, returning the
// records — every field in the layout recorded in its own checkpoint
// header, so files written by a mixed-layout world round-trip without the
// reader knowing the per-block layouts — and the CRC32C of the whole byte
// stream (to be cross-checked against the manifest entry). Any integrity
// failure is a typed *CorruptError.
func ReadLeafFile(r io.Reader, s *lattice.Stencil) ([]LeafSnapshot, uint32, error) {
	cr := newCRCReader(bufio.NewReader(r))
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, 0, corruptf(leafFileMagic, "reading magic: %v", err)
	}
	if string(magic) != leafFileMagic {
		return nil, 0, corruptf(leafFileMagic, "bad magic %q", magic)
	}
	var count uint32
	if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
		return nil, 0, corruptf(leafFileMagic, "truncated leaf count: %v", err)
	}
	if count > maxRankFileBlocks {
		return nil, 0, corruptf(leafFileMagic, "implausible leaf count %d", count)
	}
	// Grow toward the claimed count instead of trusting it for the initial
	// allocation: the header is read before any payload is validated, so a
	// corrupt count must not drive a large up-front allocation.
	leaves := make([]LeafSnapshot, 0, min(count, 1024))
	for i := uint32(0); i < count; i++ {
		recCRC := crc32.New(castagnoli)
		rr := io.TeeReader(cr, recCRC)
		var l LeafSnapshot
		if reason := readLeafKey(rr, &l); reason != "" {
			return nil, 0, corruptf(leafFileMagic, "leaf %d: %s", i, reason)
		}
		for fi, dst := range []**field.PDFField{&l.Src, &l.Dst} {
			var n uint64
			if err := binary.Read(rr, binary.LittleEndian, &n); err != nil {
				return nil, 0, corruptf(leafFileMagic, "leaf %d: truncated field length: %v", i, err)
			}
			if n == 0 || n > 1<<40 {
				return nil, 0, corruptf(leafFileMagic, "leaf %d: implausible field length %d", i, n)
			}
			pf, err := LoadCheckpoint(io.LimitReader(rr, int64(n)), s)
			if err != nil {
				// Any undecodable embedded field makes the record unusable —
				// classify it as corruption so callers can vote the whole
				// file down uniformly.
				return nil, 0, corruptf(leafFileMagic, "leaf %d field %d: %v", i, fi, err)
			}
			*dst = pf
		}
		var stored uint32
		want := recCRC.Sum32()
		if err := binary.Read(cr, binary.LittleEndian, &stored); err != nil {
			return nil, 0, corruptf(leafFileMagic, "leaf %d: missing record CRC: %v", i, err)
		}
		if stored != want {
			return nil, 0, corruptf(leafFileMagic,
				"leaf %d: record CRC mismatch: stored %08x, computed %08x", i, stored, want)
		}
		leaves = append(leaves, l)
	}
	// Trailing garbage would change the file CRC vs the manifest; drain
	// to compute the full-stream CRC.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, 0, corruptf(leafFileMagic, "draining trailer: %v", err)
	}
	return leaves, cr.crc.Sum32(), nil
}

// readLeafKey decodes a record's key into l, returning the reason the
// record is unusable, or "".
func readLeafKey(rr io.Reader, l *LeafSnapshot) string {
	var id leafID
	if err := binary.Read(rr, binary.LittleEndian, &id); err != nil {
		return fmt.Sprintf("truncated identity: %v", err)
	}
	if id.Level > 20 {
		return fmt.Sprintf("implausible level %d", id.Level)
	}
	l.Tree, l.Path, l.Level = id.Tree, id.Path, id.Level
	for d := range l.Coord {
		var c int64
		if err := binary.Read(rr, binary.LittleEndian, &c); err != nil {
			return fmt.Sprintf("truncated coordinates: %v", err)
		}
		l.Coord[d] = int(c)
	}
	return ""
}

// CopyLeaves replaces the fields of leaves with copies of themselves —
// a generation kept in memory and restored by copying back — reusing the
// storage of reuse's records where the shapes match. A copy is a field of
// its own shaped like its block (CopyShape), also of a view, whose storage
// is a whole arena.
func CopyLeaves(leaves, reuse []LeafSnapshot) {
	for i := range leaves {
		l := &leaves[i]
		src, dst := l.Src, l.Dst
		if i < len(reuse) && fits(reuse[i].Src, src) && fits(reuse[i].Dst, dst) {
			l.Src, l.Dst = reuse[i].Src, reuse[i].Dst
		} else {
			l.Src, l.Dst = src.CopyShape(), dst.CopyShape()
		}
		l.Src.CopyFrom(src)
		l.Dst.CopyFrom(dst)
	}
}

// fits reports whether f is what CopyShape of g allocates: a field of its
// own in g's layout storing g's cells.
func fits(f, g *field.PDFField) bool {
	return f.Stencil == g.Stencil && f.Layout == g.Layout && !f.Rows().View() && f.Rows().SameCells(g.Rows())
}
