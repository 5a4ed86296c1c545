package resilience

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"walberla/internal/comm"
	"walberla/internal/output"
)

// The checkpoint-set protocol: one "set-<step>" directory per coordinated
// checkpoint, one file per rank in the runtime's rank-file encoding, and
// a manifest of sizes and CRC32Cs that commits the set. newestUsableSet
// and readRankFile are the only two functions on a recovery path that
// touch the disk, so Stats.DiskReadsDuringRecovery is counted in them and
// nowhere else.

// createFile creates a rank file. It is a variable so that a test can
// fail one rank's write: encoding records cannot fail, so a set write
// fails only in the file system.
var createFile = os.Create

// ckptStatus is the coordination payload broadcast by rank 0 when a
// checkpoint set is opened and closed.
type ckptStatus struct {
	Err  string
	Skip bool
}

// WriteSet writes a coordinated checkpoint set for the given step: every
// rank writes its records (World.Records) as a WBK2 rank file, rank
// 0 gathers sizes and CRC32Cs into the manifest, and the whole set
// directory is renamed into place atomically — a crash mid-checkpoint
// never produces a half-valid set. Collective over the world's
// communicator. Returns the bytes this rank wrote (0 if the set already
// existed).
func WriteSet(w World, dir string, step int) (int64, error) {
	c := w.Comm()
	final := filepath.Join(dir, output.SetDirName(step))
	tmp := filepath.Join(dir, output.TmpSetDirName(step))

	// Rank 0 opens the set (or reports it as already committed) and
	// broadcasts the verdict so every rank agrees before touching disk.
	var open ckptStatus
	if c.Rank() == 0 {
		if _, err := os.Stat(final); err == nil {
			open.Skip = true
		} else {
			os.RemoveAll(tmp)
			if err := os.MkdirAll(tmp, 0o755); err != nil {
				open.Err = err.Error()
			}
		}
	}
	if err := bcastStatus(c, &open); err != nil {
		return 0, err
	}
	if open.Err != "" {
		return 0, fmt.Errorf("resilience: opening checkpoint set %d: %s", step, open.Err)
	}
	if open.Skip {
		return 0, nil
	}

	// Every rank writes its own file; errors are gathered, not returned
	// early, so rank 0 always receives one contribution per rank: the
	// file's size and CRC32C, then the error text.
	var size int64
	var crc uint32
	var werr error
	if f, err := createFile(filepath.Join(tmp, output.RankFileName(c.Rank()))); err != nil {
		werr = err
	} else {
		recs, _ := w.Records()
		size, crc, werr = output.WriteLeafFile(f, recs)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
	}
	contrib := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, uint64(size)), crc)
	if werr != nil {
		contrib = append(contrib, werr.Error()...)
	}
	gathered, err := c.GatherErr(0, contrib)
	if err != nil {
		return 0, err
	}

	// Rank 0 commits: manifest write, then the atomic rename.
	var closed ckptStatus
	if c.Rank() == 0 {
		m := &output.SetManifest{Step: int64(step), Ranks: int32(c.Size())}
		for r, g := range gathered {
			b, _ := g.([]byte)
			if len(b) < 12 {
				closed.Err = fmt.Sprintf("rank %d: malformed contribution of %d bytes", r, len(b))
				break
			}
			if len(b) > 12 && closed.Err == "" {
				closed.Err = fmt.Sprintf("rank %d: %s", r, b[12:])
			}
			m.Entries = append(m.Entries, output.ManifestEntry{Name: output.RankFileName(r),
				Size: int64(binary.LittleEndian.Uint64(b)), CRC: binary.LittleEndian.Uint32(b[8:])})
		}
		if closed.Err == "" {
			if err := writeManifestFile(filepath.Join(tmp, output.ManifestName), m); err != nil {
				closed.Err = err.Error()
			} else if err := os.Rename(tmp, final); err != nil {
				closed.Err = err.Error()
			}
		}
		if closed.Err != "" {
			os.RemoveAll(tmp)
		}
	}
	if err := bcastStatus(c, &closed); err != nil {
		return 0, err
	}
	if closed.Err != "" {
		return 0, fmt.Errorf("resilience: committing checkpoint set %d: %s", step, closed.Err)
	}
	return size, nil
}

// bcastStatus replaces st on every rank with rank 0's, sent as one flag
// byte (Skip) followed by the error text.
func bcastStatus(c *comm.Comm, st *ckptStatus) error {
	b := append([]byte{0}, st.Err...)
	if st.Skip {
		b[0] = 1
	}
	v, err := c.BcastErr(0, b)
	if err != nil {
		return err
	}
	if b, _ = v.([]byte); len(b) == 0 {
		return fmt.Errorf("resilience: empty checkpoint status")
	}
	*st = ckptStatus{Skip: b[0] == 1, Err: string(b[1:])}
	return nil
}

func writeManifestFile(path string, m *output.SetManifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := output.WriteManifest(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newestUsableSet walks the committed, manifest-valid sets under dir
// newest first and returns the first one every member of c can use: rank
// 0 enumerates, each member tries load on the candidate's directory, and
// a single failure votes the set down for all (a set corrupted on any
// rank falls back to the next older one). A nil load votes neutrally — a
// recruited spare reads nothing itself, its state arrives by stream.
func (d *Driver) newestUsableSet(c *comm.Comm, dir string, load func(setDir string) error) (step int64, found bool, err error) {
	var candidates []int64
	if c.Rank() == 0 {
		candidates = output.ListValidSets(dir)
		d.Stats.DiskReadsDuringRecovery++
	}
	v, err := c.BcastErr(0, candidates)
	if err != nil {
		return 0, false, err
	}
	if v != nil {
		candidates = v.([]int64)
	}
	for _, step := range candidates {
		ok := int64(1)
		if load != nil && load(filepath.Join(dir, output.SetDirName(int(step)))) != nil {
			ok = 0
		}
		agree, err := minOver(c, ok)
		if err != nil {
			return 0, false, err
		}
		if agree == 1 {
			return step, true, nil
		}
	}
	return 0, false, nil
}

// readRankFile opens one rank's file of a committed set through the
// manifest — the set must validate, must have been written by a world of
// the given size and must list the file — and decodes it, checking the
// stream's CRC32C against the manifest's.
func (d *Driver) readRankFile(setDir string, rank, ranks int) (State, error) {
	d.Stats.DiskReadsDuringRecovery++
	m, err := output.ValidateSetDir(setDir)
	if err != nil {
		return nil, err
	}
	if int(m.Ranks) != ranks {
		return nil, fmt.Errorf("resilience: checkpoint set %s was written by %d ranks, need %d", setDir, m.Ranks, ranks)
	}
	name := output.RankFileName(rank)
	var entry *output.ManifestEntry
	for i := range m.Entries {
		if m.Entries[i].Name == name {
			entry = &m.Entries[i]
			break
		}
	}
	if entry == nil {
		return nil, fmt.Errorf("resilience: checkpoint set %s has no file for rank %d", setDir, rank)
	}
	f, err := os.Open(filepath.Join(setDir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	state, crc, err := readRecords(d.World, f)
	if err != nil {
		return nil, err
	}
	if crc != entry.CRC {
		return nil, fmt.Errorf("resilience: rank file %s CRC %08x does not match manifest %08x", name, crc, entry.CRC)
	}
	return state, nil
}
