package sim

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/output"
)

// cavityConfig is the shared scenario of the resilience tests: a small
// lid-driven cavity split over two ranks.
func cavityConfig() Config {
	return Config{
		Kernel:     KernelSplitTRT,
		Tau:        0.8,
		Boundary:   boundary.Config{WallVelocity: [3]float64{0.05, 0, 0}},
		SetupFlags: cavityFlags,
	}
}

func cavityForest() *blockforest.SetupForest {
	domain := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	f := blockforest.NewSetupForest(domain, [3]int{2, 1, 1}, [3]int{4, 4, 4}, [3]bool{})
	f.BalanceMorton(2)
	return f
}

// collectBits snapshots the exact bit pattern of every block's Src field.
func collectBits(s *Simulation, mu *sync.Mutex, into map[[3]int][]uint64) {
	mu.Lock()
	defer mu.Unlock()
	for _, bd := range s.Blocks {
		d := bd.Src.Data()
		bits := make([]uint64, len(d))
		for i, v := range d {
			bits[i] = math.Float64bits(v)
		}
		into[bd.Block.Coord] = bits
	}
}

// TestResilientBitIdenticalUnderCrashes is the core acceptance test: a
// run with an injected rank crash at EVERY step (alternating ranks) plus
// periodic checkpointing must finish bit-identical to an uninterrupted
// run of the same scenario.
func TestResilientBitIdenticalUnderCrashes(t *testing.T) {
	const steps = 8
	var mu sync.Mutex

	// Reference: fault-free run.
	want := make(map[[3]int][]uint64)
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, steps)
		collectBits(s, &mu, want)
	})
	if t.Failed() {
		t.Fatal("reference run failed")
	}

	// Faulty run: one crash scheduled at every step 1..steps-1.
	var crashes []comm.CrashSpec
	for st := 1; st < steps; st++ {
		crashes = append(crashes, comm.CrashSpec{Rank: st % 2, Step: st})
	}
	dir := t.TempDir()
	got := make(map[[3]int][]uint64)
	var recMu sync.Mutex
	var recovered []RecoveryStats
	comm.RunWithOptions(2, comm.Options{Faults: &comm.FaultPlan{Seed: 7, Crashes: crashes}}, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		m, err := s.RunResilient(steps, ResilienceConfig{
			CheckpointEvery: 2,
			Dir:             dir,
			MaxFailures:     2 * steps,
			BackoffBase:     time.Millisecond,
			BackoffMax:      10 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("rank %d: RunResilient: %v", c.Rank(), err)
			return
		}
		collectBits(s, &mu, got)
		recMu.Lock()
		recovered = append(recovered, m.Recovery)
		recMu.Unlock()
	})
	if t.Failed() {
		t.Fatal("resilient run failed")
	}

	if len(got) != len(want) {
		t.Fatalf("resilient run produced %d blocks, want %d", len(got), len(want))
	}
	for coord, wb := range want {
		gb, ok := got[coord]
		if !ok {
			t.Fatalf("block %v missing from resilient run", coord)
		}
		if len(gb) != len(wb) {
			t.Fatalf("block %v: %d values, want %d", coord, len(gb), len(wb))
		}
		for i := range wb {
			if gb[i] != wb[i] {
				t.Fatalf("block %v value %d: bits %016x, want %016x — resilient run is not bit-identical",
					coord, i, gb[i], wb[i])
			}
		}
	}
	for _, r := range recovered {
		if r.FailuresDetected == 0 || r.Restores == 0 {
			t.Fatalf("recovery stats show no recovery activity: %+v", r)
		}
		if r.CheckpointsWritten == 0 || r.CheckpointBytes == 0 {
			t.Fatalf("recovery stats show no checkpoints: %+v", r)
		}
		if r.StepsReplayed == 0 {
			t.Fatalf("crash at every step must force replays: %+v", r)
		}
	}
}

// TestRestoreFallsBackPastCorruptedSet: a flipped byte in the newest
// set's payload must be caught by the CRC chain and the restore must fall
// back to the previous valid set.
func TestRestoreFallsBackPastCorruptedSet(t *testing.T) {
	dir := t.TempDir()
	const steps = 8

	// Phase 1: produce sets at steps 2, 4, 6 and remember the state at
	// the top of step 4 by rerunning 4 steps fault-free.
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.RunResilient(steps, ResilienceConfig{CheckpointEvery: 2, Dir: dir}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
	})
	if t.Failed() {
		t.Fatal("checkpoint-producing run failed")
	}
	for _, step := range []int{2, 4, 6} {
		if _, err := os.Stat(filepath.Join(dir, output.SetDirName(step))); err != nil {
			t.Fatalf("expected checkpoint set %d: %v", step, err)
		}
	}
	if sets := output.ListValidSets(dir); len(sets) != 3 || sets[0] != 6 {
		t.Fatalf("ListValidSets = %v, want [6 4 2]", sets)
	}

	// Corrupt one payload byte of set-6's rank 0 file (size unchanged, so
	// only the CRCs can catch it).
	rf := filepath.Join(dir, output.SetDirName(6), output.RankFileName(0))
	raw, err := os.ReadFile(rf)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(rf, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh simulation restoring from the same directory must
	// reject set-6 on the corrupted rank and agree on set-4 collectively.
	var mu sync.Mutex
	got := make(map[[3]int][]uint64)
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		step, err := s.RestoreLatestCheckpointSet(dir)
		if err != nil {
			t.Errorf("rank %d: restore: %v", c.Rank(), err)
			return
		}
		if step != 4 {
			t.Errorf("rank %d: restored step %d, want fallback to 4", c.Rank(), step)
			return
		}
		collectBits(s, &mu, got)
	})
	if t.Failed() {
		t.Fatal("restore run failed")
	}

	// The restored state must be bit-identical to 4 uninterrupted steps.
	want := make(map[[3]int][]uint64)
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, 4)
		collectBits(s, &mu, want)
	})
	for coord, wb := range want {
		gb := got[coord]
		if len(gb) != len(wb) {
			t.Fatalf("block %v: %d values, want %d", coord, len(gb), len(wb))
		}
		for i := range wb {
			if gb[i] != wb[i] {
				t.Fatalf("block %v value %d differs from the step-4 state", coord, i)
			}
		}
	}
}

// TestRestoreWithNoSetsRewindsToInitialState: with an empty checkpoint
// directory the restore re-initializes the fields bit-identically to a
// fresh simulation.
func TestRestoreWithNoSetsRewindsToInitialState(t *testing.T) {
	var mu sync.Mutex
	got := make(map[[3]int][]uint64)
	want := make(map[[3]int][]uint64)
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		collectBits(s, &mu, want)
		mustRun(t, s, 3) // dirty the state
		step, err := s.RestoreLatestCheckpointSet(t.TempDir())
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if step != 0 {
			t.Errorf("rank %d: restored step %d, want 0", c.Rank(), step)
			return
		}
		collectBits(s, &mu, got)
	})
	if t.Failed() {
		t.FailNow()
	}
	for coord, wb := range want {
		gb := got[coord]
		for i := range wb {
			if gb[i] != wb[i] {
				t.Fatalf("block %v value %d differs from the initial state", coord, i)
			}
		}
	}
}

// TestWriteCheckpointSetAtomicAndIdempotent: no transient directory
// survives a successful write, and rewriting an existing step is a
// cheap no-op.
func TestWriteCheckpointSetAtomicAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		n, err := s.WriteCheckpointSet(dir, 5)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if n == 0 {
			t.Errorf("rank %d: wrote 0 bytes", c.Rank())
		}
		n, err = s.WriteCheckpointSet(dir, 5)
		if err != nil {
			t.Errorf("rank %d: rewrite: %v", c.Rank(), err)
			return
		}
		if n != 0 {
			t.Errorf("rank %d: rewrite of an existing set wrote %d bytes", c.Rank(), n)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != output.SetDirName(5) {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("checkpoint root holds %v, want only %s (no transient dirs)", names, output.SetDirName(5))
	}
	if got := output.ListValidSets(dir); len(got) != 1 || got[0] != 5 {
		t.Fatalf("ListValidSets = %v, want [5]", got)
	}
}

// TestCheckpointSetBytesAreTheCodecs pins the on-wire bytes of a uniform
// generation, which only this package can reach (the on-disk bytes of
// both runtimes are pinned by the table of the same name in internal/amr):
// a replica payload is exactly the rank file of the set — output.
// WriteLeafFile of the blocks as level-0 leaves of their roots — and the
// replica side band exactly the gob of the block metadata.
func TestCheckpointSetBytesAreTheCodecs(t *testing.T) {
	dir := t.TempDir()
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), cavityForest()))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cavityConfig())
		if err != nil {
			t.Error(err)
			return
		}
		mustRun(t, s, 3)
		if _, err := s.WriteCheckpointSet(dir, 3); err != nil {
			t.Error(err)
			return
		}
		recs := make([]output.LeafSnapshot, len(s.Blocks))
		metas := make([]blockMeta, len(s.Blocks))
		for i, bd := range s.Blocks {
			recs[i] = output.LeafSnapshot{Tree: bd.Block.ID.Tree, Coord: bd.Block.Coord, Src: bd.Src, Dst: bd.Dst}
			metas[i] = blockMeta{Block: *bd.Block, Flags: append([]field.CellType(nil), bd.Flags.Data()...)}
		}
		var want bytes.Buffer
		if _, _, err := output.WriteLeafFile(&want, recs); err != nil {
			t.Error(err)
			return
		}
		var payload bytes.Buffer
		if _, _, err := (world{s}).Encode(&payload); err != nil || !bytes.Equal(payload.Bytes(), want.Bytes()) {
			t.Errorf("rank %d: replica payload differs from output.WriteLeafFile (%d vs %d bytes, err %v)", c.Rank(), payload.Len(), want.Len(), err)
		}
		got, err := os.ReadFile(filepath.Join(dir, output.SetDirName(3), output.RankFileName(c.Rank())))
		if err != nil || !bytes.Equal(got, payload.Bytes()) {
			t.Errorf("rank %d: replica payload differs from the set's rank file (err %v)", c.Rank(), err)
		}
		var wantMeta bytes.Buffer
		if err := gob.NewEncoder(&wantMeta).Encode(metas); err != nil {
			t.Error(err)
			return
		}
		if meta, err := (world{s}).Meta(); err != nil || !bytes.Equal(meta, wantMeta.Bytes()) {
			t.Errorf("rank %d: replica side band differs from the gob of the block metadata (err %v)", c.Rank(), err)
		}
	})
}
