package amr

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/output"
	"walberla/internal/resilience"
	"walberla/internal/sim"
)

// TestCheckpointRestoreRoundTrip: a mixed-level world checkpointed
// mid-run is rebuilt — forest topology included — by a fresh Sim that
// never saw the re-grades, and the restored state hashes identically.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig(2, sim.LayoutAoS)
	var mu sync.Mutex
	var wantHash uint64
	var wantLevels []int
	comm.Run(2, func(c *comm.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := run(s, 5); err != nil {
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
	want, wantLevels := runRefined(t, 2, steps, baseConfig(1, sim.LayoutAoS), comm.Options{})

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
		s, err := New(c, baseConfig(1, sim.LayoutAoS))
		if err != nil {
			t.Error(err)
			return
		}
		m, err := s.plane.RunResilient(steps, resilience.Config{
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
		recovered = append(recovered, m.Recovery)
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
	want, _ := runRefined(t, 2, steps, baseConfig(1, sim.LayoutAoS), comm.Options{})

	opts := comm.Options{Faults: &comm.FaultPlan{Seed: 11, Crashes: []comm.CrashSpec{{Rank: victim, Step: 5}}}}
	var mu sync.Mutex
	var got uint64
	var recovered []resilience.Stats
	retired := 0
	comm.RunWithOptions(3, opts, func(c *comm.Comm) {
		s, err := New(c, baseConfig(1, sim.LayoutAoS))
		if err != nil {
			t.Error(err)
			return
		}
		m, err := s.plane.RunResilient(steps, resilience.Config{
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
		recovered = append(recovered, m.Recovery)
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
// both runtimes: a set's rank file is exactly the WBK2 encoding of the
// rank's blocks — a uniform block as the level-0 leaf of its root — and
// its manifest exactly output.WriteManifest of the gathered sizes and
// CRCs. A refined replica payload is that same stream.
func TestCheckpointSetBytesAreTheCodecs(t *testing.T) {
	cfg := baseConfig(1, sim.LayoutSoA)
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
			s, err := uniformTwin(c, cfg)
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
			err = run(s, 3)
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
				want := output.AppendLeafFile(nil, recs)
				name := output.RankFileName(c.Rank())
				got, err := os.ReadFile(filepath.Join(dir, output.SetDirName(3), name))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("rank %d: rank file differs from the WBK2 encoding of its blocks (%d vs %d bytes, err %v)", c.Rank(), len(got), len(want), err)
				}
				mu.Lock()
				manifest.Entries[c.Rank()] = output.ManifestEntry{Name: name, Size: int64(len(want)), CRC: output.CRC32C(want)}
				mu.Unlock()
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

// uniformTwin builds the uniform runtime on cfg's root grid: the
// refinement-free twin of a refined world.
func uniformTwin(c *comm.Comm, cfg Config) (*sim.Simulation, error) {
	var in *blockforest.SetupForest
	if c.Rank() == 0 {
		g, n := cfg.Grid, cfg.Cells
		domain := blockforest.NewAABB([3]float64{}, [3]float64{float64(g[0] * n[0]), float64(g[1] * n[1]), float64(g[2] * n[2])})
		in = blockforest.NewSetupForest(domain, g, n, cfg.Periodic)
		in.BalanceMorton(c.Size())
	}
	forest, err := blockforest.Distribute(c, in)
	if err != nil {
		return nil, err
	}
	return sim.New(c, forest, cfg.Config)
}

// TestRestoreRefusesWrongShapedRecord: a committed checkpoint set whose
// records cannot be the blocks of the world restoring it makes
// RestoreLatestCheckpointSet of either runtime return an error on every
// rank, within a bounded wait — rank 0's naming the fault — with no
// panic, and no block anywhere takes the set's state. Two faults: rank
// 0's file holds a record shaped unlike the block it would fill (one
// record cropped to half its width, the manifest entry rewritten so the
// set validates), and a set written by the 4×2×2 world is restored into a
// 2×2×2 world, whose grid holds none of its records — periodic and not,
// and the uniform twin.
func TestRestoreRefusesWrongShapedRecord(t *testing.T) {
	cfg := baseConfig(1, sim.LayoutSoA)
	closed := cfg
	closed.Periodic = [3]bool{}
	narrow := func(c Config) *Config {
		c.Grid = [3]int{2, 2, 2}
		return &c
	}
	type runtime interface {
		WriteCheckpointSet(dir string, step int) (int64, error)
		RestoreLatestCheckpointSet(dir string) (int64, error)
		FieldHash() (uint64, error)
	}
	// build returns a runtime on c and a function stepping it.
	type build func(c *comm.Comm, cfg Config) (runtime, func(int) error, error)
	uniform := func(c *comm.Comm, cfg Config) (runtime, func(int) error, error) {
		s, err := uniformTwin(c, cfg)
		return s, func(n int) error { _, err := s.Run(n); return err }, err
	}
	refined := func(c *comm.Comm, cfg Config) (runtime, func(int) error, error) {
		s, err := New(c, cfg)
		return s, func(n int) error { return run(s, n) }, err
	}
	rows := []struct {
		name  string
		ranks int
		build build
		write Config
		// restore is the world restoring the set; nil: the writing world,
		// after its first record is cropped.
		restore *Config
		want    string // in rank 0's error
	}{
		{"uniform", 1, uniform, cfg, nil, "shape mismatch"},
		{"refined", 1, refined, cfg, nil, "shape mismatch"},
		{"uniform-2ranks", 2, uniform, cfg, nil, "shape mismatch"},
		{"refined-2ranks", 2, refined, cfg, nil, "shape mismatch"},
		{"uniform-wrong-grid", 2, uniform, cfg, narrow(cfg), "no leaf of this forest"},
		{"refined-wrong-grid", 2, refined, cfg, narrow(cfg), "no leaf of this forest"},
		{"refined-wrong-grid-closed", 2, refined, closed, narrow(closed), "no leaf of this forest"},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			setDir := filepath.Join(dir, output.SetDirName(2))
			done := make(chan struct{})
			go func() {
				defer close(done)
				comm.Run(tc.ranks, func(c *comm.Comm) {
					rt, run, err := tc.build(c, tc.write)
					if err == nil {
						err = run(2)
					}
					if err == nil {
						_, err = rt.WriteCheckpointSet(dir, 2)
					}
					if err == nil && c.Rank() == 0 && tc.restore == nil {
						err = cropFirstRecord(setDir)
					}
					if err == nil {
						err = c.BarrierErr()
					}
					if err == nil && tc.restore != nil {
						rt, run, err = tc.build(c, *tc.restore)
					}
					if err == nil {
						err = run(1)
					}
					if err != nil {
						t.Error(err)
						return
					}
					before, _ := rt.FieldHash()
					step, err := rt.RestoreLatestCheckpointSet(dir)
					if err == nil || c.Rank() == 0 && !strings.Contains(err.Error(), tc.want) {
						t.Errorf("rank %d: restore = step %d, %v; want %q refused", c.Rank(), step, err, tc.want)
					}
					if after, _ := rt.FieldHash(); after != before {
						t.Errorf("rank %d: the refused restore changed the fields: hash %016x, was %016x", c.Rank(), after, before)
					}
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("a rank is still inside the refused restore after 30 s")
			}
		})
	}
}

// cropFirstRecord rewrites rank 0's file of the set with its first record
// cropped to half its x extent, and the manifest entry to match.
func cropFirstRecord(setDir string) error {
	name := filepath.Join(setDir, output.RankFileName(0))
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	recs, _, err := output.ReadLeafFile(f, lattice.D3Q19())
	f.Close()
	if err != nil {
		return err
	}
	src := recs[0].Src
	recs[0].Src = field.NewPDFField(src.Stencil, src.Nx/2, src.Ny, src.Nz, src.Ghost, src.Layout)
	recs[0].Dst = recs[0].Src
	file := output.AppendLeafFile(nil, recs)
	if err := os.WriteFile(name, file, 0o644); err != nil {
		return err
	}
	m, err := output.ReadManifestFile(setDir)
	if err != nil {
		return err
	}
	m.Entries[0].Size, m.Entries[0].CRC = int64(len(file)), output.CRC32C(file)
	var buf bytes.Buffer
	if err := output.WriteManifest(&buf, m); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(setDir, output.ManifestName), buf.Bytes(), 0o644)
}
