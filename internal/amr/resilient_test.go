package amr

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/output"
	"walberla/internal/resilience"
)

// TestCheckpointRestoreRoundTrip: a mixed-level world checkpointed
// mid-run is rebuilt — forest topology included — by a fresh Sim that
// never saw the re-grades, and the restored state hashes identically.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig(2, field.AoS)
	var mu sync.Mutex
	var wantHash uint64
	var wantLevels []int
	comm.Run(2, func(c *comm.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(5); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.WriteCheckpointSet(dir, 5); err != nil {
			t.Error(err)
			return
		}
		h, err := s.FieldHash()
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		wantHash, wantLevels = h, s.LevelCounts()
		mu.Unlock()

		// A fresh simulation restores the set: step, forest and bits.
		r, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		step, err := r.RestoreLatestCheckpointSet(dir)
		if err != nil {
			t.Error(err)
			return
		}
		if step != 5 || r.Steps() != 5 {
			t.Errorf("restored step %d (Steps %d), want 5", step, r.Steps())
		}
		rh, err := r.FieldHash()
		if err != nil {
			t.Error(err)
			return
		}
		if rh != wantHash {
			t.Errorf("restored hash %016x != checkpointed %016x", rh, wantHash)
		}
		rl := r.LevelCounts()
		if len(rl) != len(wantLevels) {
			t.Errorf("restored levels %v != %v", rl, wantLevels)
		} else {
			for i := range rl {
				if rl[i] != wantLevels[i] {
					t.Errorf("restored levels %v != %v", rl, wantLevels)
					break
				}
			}
		}
	})
}

// TestResilientRewindBitIdentical is the rewind acceptance test on a
// refined world: with a rank crash injected at EVERY step and periodic
// level-aware checkpointing, the run must finish bit-identical to the
// fault-free reference — re-grades and migrations between checkpoint
// and crash are undone and replayed deterministically.
func TestResilientRewindBitIdentical(t *testing.T) {
	const steps = 8
	want, wantLevels := runRefined(t, 2, steps, baseConfig(1, field.AoS), comm.Options{})

	var crashes []comm.CrashSpec
	for st := 1; st < steps; st++ {
		crashes = append(crashes, comm.CrashSpec{Rank: st % 2, Step: st})
	}
	dir := t.TempDir()
	var mu sync.Mutex
	var got uint64
	var gotLevels []int
	var recovered []resilience.Stats
	comm.RunWithOptions(2, comm.Options{Faults: &comm.FaultPlan{Seed: 7, Crashes: crashes}}, func(c *comm.Comm) {
		s, err := New(c, baseConfig(1, field.AoS))
		if err != nil {
			t.Error(err)
			return
		}
		rec, err := s.RunResilient(steps, resilience.Config{
			CheckpointEvery: 2,
			Dir:             dir,
			Mode:            resilience.Rewind,
			MaxFailures:     2 * steps,
			BackoffBase:     time.Millisecond,
			BackoffMax:      10 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("rank %d: RunResilient: %v", c.Rank(), err)
			return
		}
		h, err := s.FieldHash()
		if err != nil {
			t.Errorf("rank %d: hash: %v", c.Rank(), err)
			return
		}
		mu.Lock()
		got, gotLevels = h, s.LevelCounts()
		recovered = append(recovered, rec)
		mu.Unlock()
	})
	if t.Failed() {
		t.Fatal("resilient run failed")
	}
	if got != want {
		t.Fatalf("resilient hash %016x != reference %016x (levels %v vs %v)", got, want, gotLevels, wantLevels)
	}
	for _, r := range recovered {
		if r.FailuresDetected == 0 || r.Restores == 0 {
			t.Errorf("no recovery activity recorded: %+v", r)
		}
		if r.CheckpointsWritten == 0 || r.CheckpointBytes == 0 {
			t.Errorf("no checkpoint activity recorded: %+v", r)
		}
		if r.StepsReplayed == 0 {
			t.Errorf("no steps replayed despite crashes at every step: %+v", r)
		}
	}
}

// TestShrinkRecoveryZeroDiskReads: a mixed-level world under
// RecoverShrink loses one rank; the survivors adopt its leaves from the
// in-memory buddy replica, rebuild the forest on the shrunk
// communicator, and finish bit-identical to the fault-free run —
// without a single disk read during recovery.
func TestShrinkRecoveryZeroDiskReads(t *testing.T) {
	const steps, victim = 8, 1
	want, _ := runRefined(t, 2, steps, baseConfig(1, field.AoS), comm.Options{})

	opts := comm.Options{Faults: &comm.FaultPlan{Seed: 11, Crashes: []comm.CrashSpec{{Rank: victim, Step: 5}}}}
	var mu sync.Mutex
	var got uint64
	var recovered []resilience.Stats
	retired := 0
	comm.RunWithOptions(3, opts, func(c *comm.Comm) {
		s, err := New(c, baseConfig(1, field.AoS))
		if err != nil {
			t.Error(err)
			return
		}
		rec, err := s.RunResilient(steps, resilience.Config{
			CheckpointEvery: 2,
			Mode:            resilience.Shrink,
			MaxFailures:     4,
			BackoffBase:     time.Millisecond,
			BackoffMax:      10 * time.Millisecond,
		})
		if errors.Is(err, resilience.ErrRetired) {
			if c.Rank() != victim {
				t.Errorf("rank %d retired, expected only rank %d to", c.Rank(), victim)
			}
			mu.Lock()
			retired++
			mu.Unlock()
			return
		}
		if err != nil {
			t.Errorf("rank %d: RunResilient: %v", c.Rank(), err)
			return
		}
		h, err := s.FieldHash()
		if err != nil {
			t.Errorf("rank %d: hash: %v", c.Rank(), err)
			return
		}
		mu.Lock()
		got = h
		recovered = append(recovered, rec)
		mu.Unlock()
	})
	if t.Failed() {
		t.Fatal("shrink run failed")
	}
	if retired != 1 {
		t.Fatalf("%d ranks retired, want exactly 1", retired)
	}
	if len(recovered) != 2 {
		t.Fatalf("%d survivors reported, want 2", len(recovered))
	}
	if got != want {
		t.Fatalf("post-shrink hash %016x != fault-free reference %016x", got, want)
	}
	adopted := 0
	for _, r := range recovered {
		if r.Shrinks != 1 {
			t.Errorf("survivor saw %d shrinks, want 1: %+v", r.Shrinks, r)
		}
		if r.BuddyRestores != 1 || r.DiskRestores != 0 {
			t.Errorf("recovery was not served from the buddy replica: %+v", r)
		}
		if r.DiskReadsDuringRecovery != 0 {
			t.Errorf("pure in-memory recovery performed %d disk reads, want 0: %+v", r.DiskReadsDuringRecovery, r)
		}
		if r.Replications == 0 || r.ReplicaBytes == 0 {
			t.Errorf("no replication activity recorded: %+v", r)
		}
		adopted += r.BlocksAdopted
	}
	if adopted == 0 {
		t.Error("no survivor adopted the dead rank's leaves")
	}
}

// TestCheckpointSetBytesAreTheCodecs pins the bytes of a refined
// generation: a rank file of a set is exactly output.WriteLeafFile of the
// rank's leaves, the same stream a replica payload carries (with no side
// band), so sets written before and after the recovery driver moved out
// of this package restore each other.
func TestCheckpointSetBytesAreTheCodecs(t *testing.T) {
	dir := t.TempDir()
	comm.Run(2, func(c *comm.Comm) {
		s, err := New(c, baseConfig(1, field.SoA))
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(3); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.WriteCheckpointSet(dir, 3); err != nil {
			t.Error(err)
			return
		}
		var snaps []output.LeafSnapshot
		for _, b := range s.OwnedBlocks() {
			snaps = append(snaps, output.LeafSnapshot{Tree: b.ID.Tree, Path: b.ID.Path, Level: b.ID.Level, Coord: b.Coord, Src: b.Src, Dst: b.Dst})
		}
		var want, payload bytes.Buffer
		size, crc, err := output.WriteLeafFile(&want, snaps)
		if err != nil {
			t.Error(err)
			return
		}
		setDir := filepath.Join(dir, output.SetDirName(3))
		got, err := os.ReadFile(filepath.Join(setDir, output.RankFileName(c.Rank())))
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("rank %d: rank file differs from output.WriteLeafFile (%d vs %d bytes, err %v)", c.Rank(), len(got), want.Len(), err)
		}
		m, err := output.ValidateSetDir(setDir)
		if err != nil || int(m.Ranks) != 2 || m.Step != 3 || m.Entries[c.Rank()].Size != size || m.Entries[c.Rank()].CRC != crc {
			t.Errorf("rank %d: manifest %+v does not list the file (size %d, CRC %08x, err %v)", c.Rank(), m, size, crc, err)
		}
		if _, _, err := (world{s}).Encode(&payload); err != nil || !bytes.Equal(payload.Bytes(), want.Bytes()) {
			t.Errorf("rank %d: replica payload differs from the rank file (err %v)", c.Rank(), err)
		}
		if meta, err := (world{s}).Meta(); err != nil || meta != nil {
			t.Errorf("rank %d: a refined replica carries a side band (%d bytes, err %v)", c.Rank(), len(meta), err)
		}
	})
}
