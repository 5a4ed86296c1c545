package output

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Coordinated checkpoint sets. A "set" snapshots every block of every
// rank at one step barrier into a directory:
//
//	<dir>/set-0000000040/
//	    MANIFEST            step, rank count, per-file size + CRC32C,
//	                        self-checksummed (WBS1)
//	    rank_0000.ckpt      this rank's blocks (WBK1): per block a
//	    rank_0001.ckpt      coordinate-keyed record carrying the Src and
//	    ...                 Dst PDF checkpoints, CRC32C per record
//
// Sets are written into a hidden ".tmp-set-*" directory and renamed into
// place only after every rank file and the manifest are complete, so a
// crash mid-checkpoint never corrupts an existing set — the rename is the
// commit point. The coordination (step barrier, manifest gather, rename)
// lives in package sim; this file owns the on-disk formats.

const (
	manifestMagic = "WBS1"
	rankFileMagic = "WBK1"
	// ManifestName is the manifest file inside a set directory.
	ManifestName = "MANIFEST"
	setPrefix    = "set-"
	tmpSetPrefix = ".tmp-set-"
)

// SetDirName returns the directory name of the checkpoint set at a step.
func SetDirName(step int) string { return fmt.Sprintf("%s%010d", setPrefix, step) }

// TmpSetDirName returns the transient directory a set is assembled in
// before the atomic rename.
func TmpSetDirName(step int) string { return fmt.Sprintf("%s%010d", tmpSetPrefix, step) }

// RankFileName returns the per-rank data file name inside a set.
func RankFileName(rank int) string { return fmt.Sprintf("rank_%04d.ckpt", rank) }

// BlockSnapshot is the checkpointed state of one block: both PDF fields,
// so a restored simulation is bit-identical regardless of which cells the
// kernels and boundary sweeps of the following steps overwrite.
type BlockSnapshot struct {
	Coord [3]int
	Src   *field.PDFField
	Dst   *field.PDFField
}

// ManifestEntry describes one rank file of a set.
type ManifestEntry struct {
	Name string
	Size int64
	CRC  uint32 // CRC32C of the complete file
}

// SetManifest is the metadata record committed last when a set is
// written; a set without a CRC-valid manifest does not exist.
type SetManifest struct {
	Step    int64
	Ranks   int32
	Entries []ManifestEntry
}

// WriteRankFile writes the blocks of one rank, returning the byte size
// and CRC32C of the produced file for the manifest.
func WriteRankFile(w io.Writer, blocks []BlockSnapshot) (int64, uint32, error) {
	return writeRecords(w, rankFileMagic, blocks, func(rec *bytes.Buffer, b *BlockSnapshot) (src, dst *field.PDFField) {
		writeCoord(rec, b.Coord)
		return b.Src, b.Dst
	})
}

// ReadRankFile reads and CRC-validates the blocks of one rank file,
// returning the snapshots and the CRC32C of the whole byte stream (to be
// cross-checked against the manifest entry). Any integrity failure is a
// typed *CorruptError.
func ReadRankFile(r io.Reader, s *lattice.Stencil, layout field.Layout) ([]BlockSnapshot, uint32, error) {
	return readRankFile(r, s, layout, false)
}

// ReadRankFileStored is ReadRankFile with every block field restored in
// the layout recorded in its own checkpoint header, so rank files written
// by a mixed-layout world (per-block kernel selection) round-trip without
// the reader knowing the per-block layouts in advance.
func ReadRankFileStored(r io.Reader, s *lattice.Stencil) ([]BlockSnapshot, uint32, error) {
	return readRankFile(r, s, field.AoS, true)
}

func readRankFile(r io.Reader, s *lattice.Stencil, layout field.Layout, useStored bool) ([]BlockSnapshot, uint32, error) {
	f := recordFormat{magic: rankFileMagic, noun: "block", s: s, layout: layout, useStored: useStored}
	return readRecords(r, f, func(rr io.Reader, b *BlockSnapshot) (reason string, src, dst **field.PDFField) {
		return readCoord(rr, &b.Coord), &b.Src, &b.Dst
	})
}

// The record loop of both rank-file codecs (WBK1 here, WBK2 in
// leaffile.go): magic, record count, then per record a key, the length-
// prefixed Src and Dst checkpoints and a CRC32C over all of it; the whole
// stream is CRC'd for the manifest. The codecs differ in the key alone.

// writeRecords writes one file of records; key encodes a record's key and
// names its two fields.
func writeRecords[T any](w io.Writer, magic string, recs []T, key func(rec *bytes.Buffer, r *T) (src, dst *field.PDFField)) (int64, uint32, error) {
	crc := crc32.New(castagnoli)
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: io.MultiWriter(bw, crc)}
	io.WriteString(cw, magic)
	binary.Write(cw, binary.LittleEndian, uint32(len(recs)))
	var rec, payload bytes.Buffer
	for i := range recs {
		rec.Reset()
		src, dst := key(&rec, &recs[i])
		for _, f := range []*field.PDFField{src, dst} {
			size := CheckpointSize(f.Stencil.Q, f.Nx, f.Ny, f.Nz, f.Ghost)
			rec.Grow(int(8 + size))
			payload.Reset()
			payload.Grow(int(size))
			if err := SaveCheckpoint(&payload, f); err != nil {
				return 0, 0, err
			}
			binary.Write(&rec, binary.LittleEndian, uint64(payload.Len()))
			rec.Write(payload.Bytes())
		}
		// CRC32C per record, over key, lengths and payloads.
		recCRC := crc32.Checksum(rec.Bytes(), castagnoli)
		if _, err := cw.Write(rec.Bytes()); err != nil {
			return 0, 0, err
		}
		if err := binary.Write(cw, binary.LittleEndian, recCRC); err != nil {
			return 0, 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	return cw.n, crc.Sum32(), nil
}

func writeCoord(rec *bytes.Buffer, coord [3]int) {
	for _, c := range coord {
		binary.Write(rec, binary.LittleEndian, int64(c))
	}
}

// readCoord decodes what writeCoord wrote; like every key decoder it
// returns the reason the record is unusable, or "".
func readCoord(rr io.Reader, coord *[3]int) string {
	for d := range coord {
		var c int64
		if err := binary.Read(rr, binary.LittleEndian, &c); err != nil {
			return fmt.Sprintf("truncated coordinates: %v", err)
		}
		coord[d] = int(c)
	}
	return ""
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// maxRankFileBlocks bounds the record count a rank file header may claim
// before any allocation happens — far above any per-rank block count the
// framework produces.
const maxRankFileBlocks = 1 << 20

// recordFormat is what one rank-file codec hands the shared reader.
type recordFormat struct {
	magic, noun string // noun names a record in error messages
	s           *lattice.Stencil
	layout      field.Layout
	useStored   bool
}

// readRecords reads and CRC-validates one file of records; key decodes a
// record's key from rr and names where its two fields go.
func readRecords[T any](r io.Reader, f recordFormat, key func(rr io.Reader, rec *T) (reason string, src, dst **field.PDFField)) ([]T, uint32, error) {
	cr := newCRCReader(bufio.NewReader(r))
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, 0, corruptf(f.magic, "reading magic: %v", err)
	}
	if string(magic) != f.magic {
		return nil, 0, corruptf(f.magic, "bad magic %q", magic)
	}
	var count uint32
	if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
		return nil, 0, corruptf(f.magic, "truncated %s count: %v", f.noun, err)
	}
	if count > maxRankFileBlocks {
		return nil, 0, corruptf(f.magic, "implausible %s count %d", f.noun, count)
	}
	// Grow toward the claimed count instead of trusting it for the initial
	// allocation: the header is read before any payload is validated, so a
	// corrupt count must not drive a large up-front allocation.
	recs := make([]T, 0, min(count, 1024))
	for i := uint32(0); i < count; i++ {
		recCRC := crc32.New(castagnoli)
		rr := io.TeeReader(cr, recCRC)
		var rec T
		reason, src, dst := key(rr, &rec)
		if reason != "" {
			return nil, 0, corruptf(f.magic, "%s %d: %s", f.noun, i, reason)
		}
		for fi, dst := range []**field.PDFField{src, dst} {
			var n uint64
			if err := binary.Read(rr, binary.LittleEndian, &n); err != nil {
				return nil, 0, corruptf(f.magic, "%s %d: truncated field length: %v", f.noun, i, err)
			}
			if n == 0 || n > 1<<40 {
				return nil, 0, corruptf(f.magic, "%s %d: implausible field length %d", f.noun, i, n)
			}
			pf, err := loadCheckpoint(io.LimitReader(rr, int64(n)), f.s, f.layout, f.useStored)
			if err != nil {
				// Any undecodable embedded field makes the record unusable —
				// classify it as corruption so callers can vote the whole
				// file down uniformly.
				return nil, 0, corruptf(f.magic, "%s %d field %d: %v", f.noun, i, fi, err)
			}
			*dst = pf
		}
		var stored uint32
		want := recCRC.Sum32()
		if err := binary.Read(cr, binary.LittleEndian, &stored); err != nil {
			return nil, 0, corruptf(f.magic, "%s %d: missing record CRC: %v", f.noun, i, err)
		}
		if stored != want {
			return nil, 0, corruptf(f.magic,
				"%s %d: record CRC mismatch: stored %08x, computed %08x", f.noun, i, stored, want)
		}
		recs = append(recs, rec)
	}
	// Trailing garbage would change the file CRC vs the manifest; drain
	// to compute the full-stream CRC.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, 0, corruptf(f.magic, "draining trailer: %v", err)
	}
	return recs, cr.crc.Sum32(), nil
}

// WriteManifest writes the set manifest, self-protected by a trailing
// CRC32C.
func WriteManifest(w io.Writer, m *SetManifest) error {
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	binary.Write(&buf, binary.LittleEndian, m.Step)
	binary.Write(&buf, binary.LittleEndian, m.Ranks)
	binary.Write(&buf, binary.LittleEndian, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		if len(e.Name) > 1<<10 {
			return fmt.Errorf("output: manifest entry name %q too long", e.Name)
		}
		binary.Write(&buf, binary.LittleEndian, uint16(len(e.Name)))
		buf.WriteString(e.Name)
		binary.Write(&buf, binary.LittleEndian, e.Size)
		binary.Write(&buf, binary.LittleEndian, e.CRC)
	}
	binary.Write(&buf, binary.LittleEndian, crc32.Checksum(buf.Bytes(), castagnoli))
	_, err := w.Write(buf.Bytes())
	return err
}

// ReadManifest reads and validates a set manifest.
func ReadManifest(r io.Reader) (*SetManifest, error) {
	raw, err := io.ReadAll(io.LimitReader(r, 1<<24))
	if err != nil {
		return nil, corruptf(manifestMagic, "reading manifest: %v", err)
	}
	if len(raw) < 4+8+4+4+4 {
		return nil, corruptf(manifestMagic, "manifest too short (%d bytes)", len(raw))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.Checksum(body, castagnoli); got != want {
		return nil, corruptf(manifestMagic, "manifest CRC mismatch: stored %08x, computed %08x", got, want)
	}
	br := bytes.NewReader(body)
	magic := make([]byte, 4)
	io.ReadFull(br, magic)
	if string(magic) != manifestMagic {
		return nil, corruptf(manifestMagic, "bad magic %q", magic)
	}
	m := &SetManifest{}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &m.Step); err != nil {
		return nil, corruptf(manifestMagic, "truncated step: %v", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &m.Ranks); err != nil {
		return nil, corruptf(manifestMagic, "truncated rank count: %v", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, corruptf(manifestMagic, "truncated entry count: %v", err)
	}
	if m.Step < 0 || m.Ranks <= 0 || count > 1<<16 {
		return nil, corruptf(manifestMagic, "implausible manifest header step=%d ranks=%d entries=%d",
			m.Step, m.Ranks, count)
	}
	for i := uint32(0); i < count; i++ {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, corruptf(manifestMagic, "entry %d: truncated name length: %v", i, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, corruptf(manifestMagic, "entry %d: truncated name: %v", i, err)
		}
		var e ManifestEntry
		e.Name = string(name)
		if err := binary.Read(br, binary.LittleEndian, &e.Size); err != nil {
			return nil, corruptf(manifestMagic, "entry %d: truncated size: %v", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &e.CRC); err != nil {
			return nil, corruptf(manifestMagic, "entry %d: truncated CRC: %v", i, err)
		}
		m.Entries = append(m.Entries, e)
	}
	return m, nil
}

// ReadManifestFile reads the manifest of a set directory.
func ReadManifestFile(setDir string) (*SetManifest, error) {
	f, err := os.Open(filepath.Join(setDir, ManifestName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadManifest(f)
}

// ValidateSetDir checks a set directory cheaply: the manifest must be
// CRC-valid and every listed rank file must exist with the recorded size.
// (Full payload CRCs are verified by ReadRankFile when a rank restores
// its own file.) It returns the validated manifest.
func ValidateSetDir(setDir string) (*SetManifest, error) {
	m, err := ReadManifestFile(setDir)
	if err != nil {
		return nil, err
	}
	for _, e := range m.Entries {
		if strings.ContainsAny(e.Name, "/\\") {
			return nil, corruptf(manifestMagic, "entry name %q escapes the set directory", e.Name)
		}
		fi, err := os.Stat(filepath.Join(setDir, e.Name))
		if err != nil {
			return nil, corruptf(manifestMagic, "missing rank file %s: %v", e.Name, err)
		}
		if fi.Size() != e.Size {
			return nil, corruptf(manifestMagic, "rank file %s is %d bytes, manifest records %d",
				e.Name, fi.Size(), e.Size)
		}
	}
	return m, nil
}

// ListValidSets scans a checkpoint root for committed sets, newest
// (highest step) first, skipping transient ".tmp-set-*" directories and
// any set whose manifest or file inventory fails validation. A missing
// root directory yields an empty list.
func ListValidSets(dir string) []int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var steps []int64
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), setPrefix) {
			continue
		}
		step, err := strconv.ParseInt(strings.TrimPrefix(e.Name(), setPrefix), 10, 64)
		if err != nil || step < 0 {
			continue
		}
		if _, err := ValidateSetDir(filepath.Join(dir, e.Name())); err != nil {
			continue
		}
		steps = append(steps, step)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] > steps[j] })
	return steps
}
