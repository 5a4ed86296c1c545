package output

import (
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
)

// Coordinated checkpoint sets. A "set" snapshots every block of every
// rank at one step barrier into a directory:
//
//	<dir>/set-0000000040/
//	    MANIFEST            step, rank count, per-file size + CRC32C,
//	                        self-checksummed (WBS1)
//	    rank_0000.ckpt      this rank's blocks (WBK2, leaffile.go): per
//	    rank_0001.ckpt      block a record keyed by its identity, carrying
//	    ...                 the Src and Dst PDF checkpoints, CRC32C each
//
// Sets are written into a hidden ".tmp-set-*" directory and renamed into
// place only after every rank file and the manifest are complete, so a
// crash mid-checkpoint never corrupts an existing set — the rename is the
// commit point. The coordination (step barrier, manifest gather, rename)
// lives in package resilience; this file owns the on-disk formats.

const (
	manifestMagic = "WBS1"
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
// (Full payload CRCs are verified by ReadLeafFile when a rank restores
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
