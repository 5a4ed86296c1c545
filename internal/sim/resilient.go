package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/output"
	"walberla/internal/telemetry"
)

// Resilient execution: coordinated checkpoint sets plus automatic
// rewind-and-replay on rank failure. Checkpoints are taken at a step
// barrier (every rank snapshots the same step, before executing it), so a
// restored run replays the exact deterministic step sequence and finishes
// bit-identical to an uninterrupted run.

// RecoveryMode selects how RunResilient repairs the world after a
// permanent rank failure.
type RecoveryMode int

const (
	// RecoverRewind (the default) keeps the world intact: every rank —
	// including the one that failed, which in the in-process model can
	// rejoin — backs off, rendezvouses and rewinds from the newest valid
	// disk checkpoint set.
	RecoverRewind RecoveryMode = iota
	// RecoverShrink drops the failed rank: the survivors shrink the
	// communicator, the dead rank's buddy re-owns its blocks from the
	// in-memory replica, and the run resumes from the replicated step
	// with zero disk I/O (ULFM-style shrinking recovery; see
	// docs/RESILIENCE.md). Disk checkpoint sets, when configured, remain
	// the fallback for a stale or missing replica generation.
	RecoverShrink
	// RecoverHeal additionally repairs the lost capacity: after the
	// failure the world *grows back* to its full size by recruiting a
	// parked spare rank (comm.ParkSpare/GrowWorld), the dead rank's buddy
	// streams the replica blocks to the recruit instead of adopting them,
	// and the run resumes at full world size — still bit-identical, since
	// stepping is deterministic and the restore generation is voted the
	// same way. With the spare pool exhausted a heal degrades to a plain
	// shrink. See docs/RESILIENCE.md and RunSpare.
	RecoverHeal
)

// ErrRetired is returned by RunResilient on a rank that failed
// permanently under RecoverShrink: the rank has been removed from the
// world, the survivors carry its blocks on, and this rank must simply
// return from the SPMD function without further communication.
var ErrRetired = errors.New("sim: rank retired after permanent failure (shrinking recovery)")

// errSilenced is the internal conversion of an injected Hang: the rank
// must go dark without even marking itself dead — the world has to detect
// the silence by timeout.
var errSilenced = errors.New("sim: rank silenced by injected hang")

// ResilienceConfig tunes RunResilient.
type ResilienceConfig struct {
	// CheckpointEvery protects every multiple of this step count: under
	// RecoverRewind a coordinated disk checkpoint set is written (when Dir
	// is non-empty), under RecoverShrink an in-memory buddy replica
	// generation is produced (plus the disk set when Dir is set, as the
	// fallback rung). 0 disables both: failures rewind to the initial
	// state, and shrink recovery has no replicas to restore from.
	CheckpointEvery int
	// Dir is the checkpoint root directory; one "set-<step>" subdirectory
	// per checkpoint. Empty disables disk checkpointing (RecoverShrink
	// then runs purely in memory).
	Dir string
	// Mode selects rewind (default) or shrinking recovery.
	Mode RecoveryMode
	// MaxFailures caps how many rank-failure events are tolerated before
	// the run aborts. Negative selects the default of 8; 0 means zero
	// tolerance — abort on the first failure; positive values are the
	// cap.
	MaxFailures int
	// BackoffBase and BackoffMax shape the capped exponential delay
	// between failure detection and the recovery rendezvous; zero means
	// 10ms base, 2s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// Validate normalizes the resilience configuration in place (default
// failure budget and backoff shape) and rejects unknown recovery modes —
// the ResilienceConfig counterpart of Config.Validate.
func (rc *ResilienceConfig) Validate() error {
	if rc.Mode != RecoverRewind && rc.Mode != RecoverShrink && rc.Mode != RecoverHeal {
		return fmt.Errorf("sim: unknown recovery mode %d", rc.Mode)
	}
	if rc.CheckpointEvery < 0 {
		return fmt.Errorf("sim: negative checkpoint interval %d", rc.CheckpointEvery)
	}
	if rc.MaxFailures < 0 {
		rc.MaxFailures = 8
	}
	if rc.BackoffBase == 0 {
		rc.BackoffBase = 10 * time.Millisecond
	}
	if rc.BackoffMax == 0 {
		rc.BackoffMax = 2 * time.Second
	}
	return nil
}

// backoff returns the capped exponential delay for the nth failure
// (1-based).
func (rc *ResilienceConfig) backoff(n int) time.Duration {
	d := rc.BackoffBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= rc.BackoffMax {
			return rc.BackoffMax
		}
	}
	if d > rc.BackoffMax {
		return rc.BackoffMax
	}
	return d
}

// ckptStatus is the coordination payload broadcast by rank 0 when a
// checkpoint set is opened and closed.
type ckptStatus struct {
	Err    string
	Skip   bool
	Total  int64
	Commit bool
}

// WriteCheckpointSet writes a coordinated checkpoint set for the given
// step: every rank snapshots all of its blocks (both PDF fields, so
// replay is bit-identical) into a per-rank file, rank 0 gathers sizes and
// CRC32Cs into the manifest, and the whole set directory is renamed into
// place atomically — a crash mid-checkpoint never produces a half-valid
// set. Returns the bytes this rank wrote (0 if the set already existed).
func (s *Simulation) WriteCheckpointSet(dir string, step int) (int64, error) {
	c := s.Comm
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
	v, err := c.BcastErr(0, open)
	if err != nil {
		return 0, err
	}
	open = v.(ckptStatus)
	if open.Err != "" {
		return 0, fmt.Errorf("sim: opening checkpoint set %d: %s", step, open.Err)
	}
	if open.Skip {
		return 0, nil
	}

	// Every rank writes its own file; errors are gathered, not returned
	// early, so rank 0 always receives one contribution per rank.
	type contribution struct {
		Entry output.ManifestEntry
		Err   string
	}
	var contrib contribution
	contrib.Entry.Name = output.RankFileName(c.Rank())
	blocks := make([]output.BlockSnapshot, len(s.Blocks))
	for i, bd := range s.Blocks {
		blocks[i] = output.BlockSnapshot{Coord: bd.Block.Coord, Src: bd.Src, Dst: bd.Dst}
	}
	if f, err := os.Create(filepath.Join(tmp, contrib.Entry.Name)); err != nil {
		contrib.Err = err.Error()
	} else {
		size, crc, werr := output.WriteRankFile(f, blocks)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			contrib.Err = werr.Error()
		}
		contrib.Entry.Size, contrib.Entry.CRC = size, crc
	}

	gathered, err := c.GatherErr(0, contrib)
	if err != nil {
		return 0, err
	}

	// Rank 0 commits: manifest write, then the atomic rename.
	var closeSt ckptStatus
	if c.Rank() == 0 {
		m := &output.SetManifest{Step: int64(step), Ranks: int32(c.Size())}
		for r, g := range gathered {
			gc := g.(contribution)
			if gc.Err != "" && closeSt.Err == "" {
				closeSt.Err = fmt.Sprintf("rank %d: %s", r, gc.Err)
			}
			m.Entries = append(m.Entries, gc.Entry)
			closeSt.Total += gc.Entry.Size
		}
		if closeSt.Err == "" {
			if err := writeManifestFile(filepath.Join(tmp, output.ManifestName), m); err != nil {
				closeSt.Err = err.Error()
			} else if err := os.Rename(tmp, final); err != nil {
				closeSt.Err = err.Error()
			} else {
				closeSt.Commit = true
			}
		}
		if closeSt.Err != "" {
			os.RemoveAll(tmp)
		}
	}
	v, err = c.BcastErr(0, closeSt)
	if err != nil {
		return 0, err
	}
	closeSt = v.(ckptStatus)
	if closeSt.Err != "" {
		return 0, fmt.Errorf("sim: committing checkpoint set %d: %s", step, closeSt.Err)
	}
	return contrib.Entry.Size, nil
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

// RestoreLatestCheckpointSet rewinds the simulation to the newest
// checkpoint set that every rank can load and CRC-validate, voting sets
// down collectively so all ranks restore the same one (a set corrupted on
// any rank falls back to the next older set). With no usable set, the
// fields are re-initialized to the configured step-zero state. Returns the
// restored step.
func (s *Simulation) RestoreLatestCheckpointSet(dir string) (int64, error) {
	c := s.Comm

	// Rank 0 enumerates the committed, manifest-valid sets.
	var candidates []int64
	if c.Rank() == 0 {
		candidates = output.ListValidSets(dir)
		s.recoveryDiskReads++
	}
	v, err := c.BcastErr(0, candidates)
	if err != nil {
		return 0, err
	}
	if v != nil {
		candidates = v.([]int64)
	}

	for _, step := range candidates {
		blocks, loadErr := s.loadOwnRankFile(filepath.Join(dir, output.SetDirName(int(step))))
		ok := int64(1)
		if loadErr != nil {
			ok = 0
		}
		agree, err := c.AllreduceInt64Err(ok, comm.Min[int64])
		if err != nil {
			return 0, err
		}
		if agree == 0 {
			continue // some rank cannot use this set; try the next older one
		}
		for coord, pair := range blocks {
			bd := s.byCoord[coord]
			bd.Src.CopyFrom(pair[0])
			bd.Dst.CopyFrom(pair[1])
		}
		// Simulated time resumes at the restored step; the plain driver's
		// fault-injection announcements continue from there.
		s.worldSteps = int(step)
		return step, nil
	}

	// No usable checkpoint: rewind to the initial state.
	for _, bd := range s.Blocks {
		s.initBlockState(bd)
	}
	return 0, nil
}

// loadOwnRankFile reads and fully validates this rank's file of one set:
// manifest CRC and size, per-record CRCs, and an exact match between the
// snapshot coordinates and this rank's block assignment.
func (s *Simulation) loadOwnRankFile(setDir string) (map[[3]int][2]*field.PDFField, error) {
	c := s.Comm
	s.recoveryDiskReads++
	m, err := output.ValidateSetDir(setDir)
	if err != nil {
		return nil, err
	}
	if int(m.Ranks) != c.Size() {
		return nil, fmt.Errorf("sim: checkpoint set %s was written by %d ranks, running %d",
			setDir, m.Ranks, c.Size())
	}
	name := output.RankFileName(c.Rank())
	var entry *output.ManifestEntry
	for i := range m.Entries {
		if m.Entries[i].Name == name {
			entry = &m.Entries[i]
			break
		}
	}
	if entry == nil {
		return nil, fmt.Errorf("sim: checkpoint set %s has no file for rank %d", setDir, c.Rank())
	}
	f, err := os.Open(filepath.Join(setDir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Decode every block in the layout it was stored in — ranks can run a
	// mix of layouts under per-block kernel selection; CopyFrom
	// transposes if the live block disagrees.
	snaps, crc, err := output.ReadRankFileStored(f, s.Stencil)
	if err != nil {
		return nil, err
	}
	if crc != entry.CRC {
		return nil, fmt.Errorf("sim: rank file %s CRC %08x does not match manifest %08x", name, crc, entry.CRC)
	}
	if len(snaps) != len(s.Blocks) {
		return nil, fmt.Errorf("sim: rank file %s has %d blocks, rank owns %d", name, len(snaps), len(s.Blocks))
	}
	blocks := make(map[[3]int][2]*field.PDFField, len(snaps))
	for _, snap := range snaps {
		bd, ok := s.byCoord[snap.Coord]
		if !ok {
			return nil, fmt.Errorf("sim: rank file %s contains block %v not owned by rank %d",
				name, snap.Coord, c.Rank())
		}
		for _, pf := range [2]*field.PDFField{snap.Src, snap.Dst} {
			if pf.Nx != bd.Src.Nx || pf.Ny != bd.Src.Ny || pf.Nz != bd.Src.Nz || pf.Ghost != bd.Src.Ghost {
				return nil, fmt.Errorf("sim: rank file %s block %v shape mismatch", name, snap.Coord)
			}
		}
		blocks[snap.Coord] = [2]*field.PDFField{snap.Src, snap.Dst}
	}
	return blocks, nil
}

// RunResilient advances the simulation by the given number of steps under
// the fault-tolerant driver: periodic protection (disk checkpoint sets,
// and under RecoverShrink in-memory buddy replicas), and on any detected
// rank failure a capped-exponential backoff, a recovery rendezvous, and a
// state restore before replaying — a disk rewind of the whole world
// (RecoverRewind) or a shrink of the world onto the survivors with the
// dead rank's blocks adopted from its buddy's replica (RecoverShrink).
// Because stepping is deterministic, the run finishes bit-identical to an
// uninterrupted one on the same final block assignment.
//
// Under RecoverShrink a rank that failed permanently returns ErrRetired:
// it is no longer part of the world and must not communicate again.
func (s *Simulation) RunResilient(steps int, rc ResilienceConfig) (Metrics, error) {
	return s.RunResilientCtx(context.Background(), steps, rc)
}

// RunResilientCtx is RunResilient bound to a context. Cancellation stops
// the driver at the next step boundary — never inside a checkpoint: an
// in-flight checkpoint set or buddy-replica generation always finishes
// (or, on error, is rolled back atomically by the set's tmp-dir commit
// protocol) before the drivers return an error wrapping ErrInterrupted.
// As in RunCtx, a cancellable context costs one scalar allreduce per step
// so every rank leaves the loop at the same step.
func (s *Simulation) RunResilientCtx(ctx context.Context, steps int, rc ResilienceConfig) (Metrics, error) {
	if err := rc.Validate(); err != nil {
		return Metrics{}, err
	}
	if rc.Mode != RecoverRewind {
		s.buddy = newBuddyState()
	}
	return s.runResilientLoop(ctx, steps, rc, s.Comm.Size(), 0, RecoveryStats{})
}

// runResilientLoop is the shared fault-tolerant driver: RunResilientCtx
// enters it at step 0 on the initial communicator, a recruited spare
// (joinAndRun) enters it at the restored step on the grown one. target is
// the full world size heal mode grows back to.
func (s *Simulation) runResilientLoop(ctx context.Context, steps int, rc ResilienceConfig, target, startStep int, rec RecoveryStats) (Metrics, error) {
	s.ResetTimers()
	start := time.Now()
	step := startStep
	failures := rec.FailuresDetected
	needRestore := false
	var deadPending []int // world ranks whose blocks still need re-owning
	var degradedSince time.Time

	// In heal mode the end of the run — on every path except this rank's
	// own retirement — must release the parked spares, or they would wait
	// forever for a recruitment that can no longer happen.
	endRun := true
	defer func() {
		if endRun && rc.Mode == RecoverHeal && s.Comm.WorldSize() > s.Comm.Size() {
			s.Comm.ReleaseSpares()
		}
	}()

	// onFailure classifies one rank-failure event; it returns a non-nil
	// terminal error when this rank is done (retired or out of budget).
	onFailure := func(err error) error {
		var rfe *comm.RankFailedError
		if !errors.As(err, &rfe) {
			return err
		}
		failures++
		rec.FailuresDetected++
		s.tel.failures.Inc()
		if failures > rc.MaxFailures {
			return fmt.Errorf("sim: giving up after %d rank failures: %w", failures, err)
		}
		if rc.Mode != RecoverRewind {
			if rfe.Rank == s.Comm.WorldRank() {
				// This rank is the victim: leave the world for good. The
				// survivors carry the run on (and in heal mode recruit a
				// replacement), so the spares must stay parked.
				endRun = false
				s.Comm.Retire()
				return ErrRetired
			}
			found := false
			for _, d := range deadPending {
				found = found || d == rfe.Rank
			}
			if !found {
				deadPending = append(deadPending, rfe.Rank)
			}
			if degradedSince.IsZero() {
				degradedSince = time.Now()
			}
		}
		return nil
	}

	for {
		if needRestore {
			recStart := s.tel.driver.Start()
			tRec := time.Now()
			// The backoff observes ctx so cancellation mid-recovery does not
			// sit out the whole ladder; the rendezvous and restore still run
			// (skipping them would strand the peers in the collective), and
			// the cancellation vote at the top of the next attempt then
			// exits every rank at the same point.
			sleepCtx(ctx, rc.backoff(failures))
			if rc.Mode != RecoverRewind {
				for _, d := range deadPending {
					s.Comm.MarkDead(d)
				}
			}
			s.Comm.Recover()
			resStart := s.tel.driver.Start()
			tRestore := time.Now()
			diskBefore := s.recoveryDiskReads
			var restored int64
			var err error
			switch rc.Mode {
			case RecoverHeal:
				restored, err = s.healRestoreAttempt(deadPending, target, rc, &rec, tRestore)
			case RecoverShrink:
				restored, err = s.shrinkRestoreAttempt(deadPending, rc, &rec, tRestore)
			default:
				restored, err = s.restoreAttempt(rc.Dir)
			}
			rec.DiskReadsDuringRecovery += s.recoveryDiskReads - diskBefore
			if err != nil {
				rec.TimeLost += time.Since(tRec)
				if terminal := onFailure(err); terminal != nil {
					return Metrics{}, terminal
				}
				continue
			}
			deadPending = nil
			rec.Restores++
			if rc.Mode == RecoverRewind {
				// The shrink and heal paths record their rendezvous-to-ready
				// time themselves, just before their completion barrier.
				rec.RestoreLatency += time.Since(tRestore)
			}
			if step > int(restored) {
				rec.StepsReplayed += step - int(restored)
			}
			step = int(restored)
			rec.TimeLost += time.Since(tRec)
			if !degradedSince.IsZero() && s.Comm.Size() >= target {
				// A heal restored the full world size; plain shrinking stays
				// degraded until the run ends.
				rec.DegradedTime += time.Since(degradedSince)
				degradedSince = time.Time{}
			}
			s.publishRecoveryGauges(&rec, degradedSince)
			s.tel.driver.Span(telemetry.PhaseRestore, step, 0, resStart)
			s.tel.driver.Span(telemetry.PhaseRecovery, step, 0, recStart)
			needRestore = false
		}

		err := s.runAttempt(ctx, steps, rc, &step, &rec)
		if err == nil {
			break
		}
		if errors.Is(err, ErrInterrupted) {
			// Cancellation is not a failure: every rank left the loop at
			// the same step boundary with consistent fields and every
			// checkpoint set committed.
			return Metrics{}, err
		}
		if errors.Is(err, errSilenced) {
			// Injected silent failure: go dark without a trace — the
			// survivors must detect the silence via the failure-detection
			// deadline and shrink around this rank. The spares must stay
			// parked: one of them is this rank's replacement.
			endRun = false
			return Metrics{}, ErrRetired
		}
		if terminal := onFailure(err); terminal != nil {
			return Metrics{}, terminal
		}
		needRestore = true
	}

	if !degradedSince.IsZero() {
		rec.DegradedTime += time.Since(degradedSince)
		degradedSince = time.Time{}
	}
	s.publishRecoveryGauges(&rec, degradedSince)
	wall := time.Since(start)
	m, err := s.gatherMetrics(steps, wall)
	if err != nil {
		return Metrics{}, err
	}
	m.Recovery = rec
	return m, nil
}

// publishRecoveryGauges refreshes the resilience gauges: mean time to
// repair, current world size, and accumulated degraded wall time.
func (s *Simulation) publishRecoveryGauges(rec *RecoveryStats, degradedSince time.Time) {
	if rec.Restores > 0 {
		s.tel.mttrMs.Set(float64(rec.TimeLost.Milliseconds()) / float64(rec.Restores))
	}
	s.tel.worldSize.Set(float64(s.Comm.Size()))
	d := rec.DegradedTime
	if !degradedSince.IsZero() {
		d += time.Since(degradedSince)
	}
	s.tel.degradedMs.Set(float64(d.Milliseconds()))
}

// sleepCtx sleeps for d or until the context is cancelled, whichever
// comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// runAttempt executes steps until completion or the first detected
// failure, converting injected-crash panics into the same typed error the
// communication layer returns, so the driver above treats "this rank
// died" and "a peer died" uniformly.
func (s *Simulation) runAttempt(ctx context.Context, total int, rc ResilienceConfig, step *int, rec *RecoveryStats) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if cr, ok := r.(comm.Crash); ok {
				err = &comm.RankFailedError{Rank: cr.Rank, Cause: "injected crash"}
				return
			}
			if _, ok := r.(comm.Hang); ok {
				err = errSilenced
				return
			}
			var rfe *comm.RankFailedError
			if e, isErr := r.(error); isErr && errors.As(e, &rfe) {
				err = rfe
				return
			}
			panic(r)
		}
	}()
	for *step < total {
		// The cancellation vote sits before this step's protection work,
		// so a cancel that lands while a checkpoint set or replica
		// generation is being produced is only acted on at the next step
		// boundary — after the set committed.
		if stop, verr := s.cancelVote(ctx); verr != nil {
			return verr
		} else if stop {
			return interrupted(ctx)
		}
		// Arm this step's injected crashes and hangs (each fires at most
		// once per spec across replays) before any collective work for
		// the step.
		s.Comm.SetStep(*step)
		if rc.Mode != RecoverRewind && rc.CheckpointEvery > 0 &&
			*step%rc.CheckpointEvery == 0 && s.buddy.lastStep != *step {
			// Produce a buddy-replica generation, including one at step 0
			// so the buddy always holds at least the initial state (and
			// with it the block metadata adoption needs).
			repStart := s.tel.driver.Start()
			if err := s.replicate(*step, rec); err != nil {
				return err
			}
			s.tel.driver.Span(telemetry.PhaseReplicate, *step, 0, repStart)
		}
		if rc.CheckpointEvery > 0 && rc.Dir != "" && *step > 0 && *step%rc.CheckpointEvery == 0 {
			ckStart := s.tel.driver.Start()
			n, err := s.WriteCheckpointSet(rc.Dir, *step)
			if err != nil {
				return err
			}
			if n > 0 {
				rec.CheckpointsWritten++
				rec.CheckpointBytes += n
				s.tel.checkpointBytes.Add(n)
			}
			s.tel.driver.Span(telemetry.PhaseCheckpoint, *step, 0, ckStart)
		}
		if err := s.Step(); err != nil {
			return err
		}
		*step++
	}
	return s.Comm.BarrierErr()
}

// restoreAttempt wraps RestoreLatestCheckpointSet with the same panic
// conversion as runAttempt (a crash can be scheduled to fire during
// recovery traffic too).
func (s *Simulation) restoreAttempt(dir string) (step int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if cr, ok := r.(comm.Crash); ok {
				err = &comm.RankFailedError{Rank: cr.Rank, Cause: "injected crash"}
				return
			}
			var rfe *comm.RankFailedError
			if e, isErr := r.(error); isErr && errors.As(e, &rfe) {
				err = rfe
				return
			}
			panic(r)
		}
	}()
	return s.RestoreLatestCheckpointSet(dir)
}
