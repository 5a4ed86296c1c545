package amr

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/output"
	"walberla/internal/resilience"
	"walberla/internal/sim"
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

// TestCheckpointSetBytesAreTheCodecs pins the bytes of a generation of
// both runtimes: a set's rank file is exactly output.WriteLeafFile of the
// rank's blocks — a uniform block as the level-0 leaf of its root — and
// its manifest exactly output.WriteManifest of the gathered sizes and
// CRCs. A refined replica payload is that same stream, with no side band.
func TestCheckpointSetBytesAreTheCodecs(t *testing.T) {
	cfg := baseConfig(1, field.SoA)
	type runtime interface {
		WriteCheckpointSet(dir string, step int) (int64, error)
	}
	for _, tc := range []struct {
		name string
		// build returns the runtime on c after three steps and the records
		// of its blocks.
		build func(c *comm.Comm) (runtime, []output.LeafSnapshot, error)
	}{
		{"uniform", func(c *comm.Comm) (runtime, []output.LeafSnapshot, error) {
			var in *blockforest.SetupForest
			if c.Rank() == 0 {
				in = blockforest.NewSetupForest(blockforest.NewAABB([3]float64{}, [3]float64{4, 2, 2}), cfg.Grid, cfg.Cells, cfg.Periodic)
				in.BalanceMorton(c.Size())
			}
			forest, err := blockforest.Distribute(c, in)
			if err != nil {
				return nil, nil, err
			}
			s, err := sim.New(c, forest, cfg.simConfig())
			if err != nil {
				return nil, nil, err
			}
			_, err = s.Run(3)
			var recs []output.LeafSnapshot
			for _, bd := range s.Blocks {
				recs = append(recs, output.LeafSnapshot{Tree: bd.Block.ID.Tree, Coord: bd.Block.Coord, Src: bd.Src, Dst: bd.Dst})
			}
			return s, recs, err
		}},
		{"refined", func(c *comm.Comm) (runtime, []output.LeafSnapshot, error) {
			s, err := New(c, cfg)
			if err != nil {
				return nil, nil, err
			}
			err = s.Run(3)
			var recs []output.LeafSnapshot
			for _, b := range s.OwnedBlocks() {
				recs = append(recs, output.LeafSnapshot{Tree: b.ID.Tree, Path: b.ID.Path, Level: b.ID.Level, Coord: b.Coord, Src: b.Src, Dst: b.Dst})
			}
			return s, recs, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var mu sync.Mutex
			manifest := &output.SetManifest{Step: 3, Ranks: 2, Entries: make([]output.ManifestEntry, 2)}
			comm.Run(2, func(c *comm.Comm) {
				rt, recs, err := tc.build(c)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := rt.WriteCheckpointSet(dir, 3); err != nil {
					t.Error(err)
					return
				}
				var want bytes.Buffer
				size, crc, err := output.WriteLeafFile(&want, recs)
				if err != nil {
					t.Error(err)
					return
				}
				name := output.RankFileName(c.Rank())
				got, err := os.ReadFile(filepath.Join(dir, output.SetDirName(3), name))
				if err != nil || !bytes.Equal(got, want.Bytes()) {
					t.Errorf("rank %d: rank file differs from output.WriteLeafFile (%d vs %d bytes, err %v)", c.Rank(), len(got), want.Len(), err)
				}
				mu.Lock()
				manifest.Entries[c.Rank()] = output.ManifestEntry{Name: name, Size: size, CRC: crc}
				mu.Unlock()
				if s, ok := rt.(*Sim); ok {
					var payload bytes.Buffer
					if _, _, err := (world{s}).Encode(&payload); err != nil || !bytes.Equal(payload.Bytes(), want.Bytes()) {
						t.Errorf("rank %d: replica payload differs from the rank file (err %v)", c.Rank(), err)
					}
					if meta, err := (world{s}).Meta(); err != nil || meta != nil {
						t.Errorf("rank %d: a refined replica carries a side band (%d bytes, err %v)", c.Rank(), len(meta), err)
					}
				}
			})
			if t.Failed() {
				t.FailNow()
			}
			var want bytes.Buffer
			if err := output.WriteManifest(&want, manifest); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, output.SetDirName(3), output.ManifestName))
			if err != nil || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("manifest differs from output.WriteManifest (err %v)", err)
			}
		})
	}
}
