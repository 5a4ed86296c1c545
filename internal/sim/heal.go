package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/output"
	"walberla/internal/telemetry"
)

// Self-healing recovery (RecoverHeal). Shrinking recovery keeps a run
// live but monotonically bleeds capacity: every permanent failure costs a
// rank forever. Heal mode restores the lost capacity from a pool of
// *spare* ranks parked at the communicator layer (comm.ParkSpare): after
// a failure the survivors rendezvous as usual, grow the world back to the
// target size (comm.GrowWorld recruits the lowest-indexed live spare),
// and the dead rank's buddy — instead of adopting the replica blocks
// itself — streams them to the recruit with the same layout-independent
// WBK1 envelope buddy replication uses. The recruit reconstructs the
// blocks, every rank renumbers its neighborhoods into the grown rank
// space and rebuilds the aggregated exchange plan, the buddy ring is
// re-armed on the new topology, and the run resumes at full world size.
// Stepping is deterministic and FieldHash is partition-independent, so
// the healed run finishes bit-identical to a fault-free one.

// tagHeal carries the heal-mode state stream from an adopter to the
// recruited spare; it lives in the user tag space above the buddy tag.
const tagHeal = 1<<30 + 3

// wardPayload is the raw (decoded) state of one dead rank awaiting
// forwarding to its replacement: field snapshots plus block metadata.
type wardPayload struct {
	snaps []output.BlockSnapshot
	metas []blockMeta
}

// healRestoreAttempt wraps healRecover with the usual panic conversion (a
// failure can strike during recovery traffic too).
func (s *Simulation) healRestoreAttempt(dead []int, target int, rc ResilienceConfig, rec *RecoveryStats, start time.Time) (step int64, err error) {
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
	return s.healRecover(dead, target, rc, rec, start)
}

// healRecover repairs the world back to full size after permanent
// failures: grow the communicator onto the surviving ranks plus one
// recruited spare per dead rank, vote on the newest restorable
// generation, rewind every survivor from its own snapshot, stream each
// dead rank's replica from its buddy to the recruit, renumber the
// neighborhoods into the grown rank space, and rebuild the exchange plan.
// With the spare pool exhausted it degrades to plain shrinking recovery.
// The recruited spare executes the mirrored protocol in joinWorld.
func (s *Simulation) healRecover(dead []int, target int, rc ResilienceConfig, rec *RecoveryStats, start time.Time) (int64, error) {
	healStart := s.tel.driver.Start()
	c := s.Comm
	b := s.buddy
	oldSize := c.Size()

	deadOld := make(map[int]bool, len(dead)) // dead old-comm ranks
	for _, d := range dead {
		r := c.CommRankOf(d)
		if r < 0 {
			return 0, fmt.Errorf("sim: dead world rank %d is not a member of the communicator", d)
		}
		deadOld[r] = true
	}

	newComm := c.GrowWorld(target)
	if newComm == nil {
		return 0, ErrRetired
	}

	// Recruits: members of the grown communicator that were not members
	// of the old one. None left means the spare pool is exhausted — the
	// run degrades to shrinking recovery and carries on at reduced size.
	var joiners []int // new-comm ranks, ascending
	for nr := 0; nr < newComm.Size(); nr++ {
		if c.CommRankOf(newComm.WorldRankOf(nr)) < 0 {
			joiners = append(joiners, nr)
		}
	}
	if len(joiners) == 0 {
		return s.shrinkRecover(dead, rc, rec, start)
	}
	if len(joiners) != len(deadOld) {
		// Single-failure-at-a-time semantics make a partial recruitment
		// unreachable; refuse rather than desynchronize with the spares.
		return 0, fmt.Errorf("sim: %d recruits for %d dead ranks", len(joiners), len(deadOld))
	}

	// Pair the i-th dead rank (ascending old rank) with the i-th recruit
	// (ascending new rank) — deterministic, so no agreement traffic.
	deadList := make([]int, 0, len(deadOld))
	for dr := range deadOld {
		deadList = append(deadList, dr)
	}
	sort.Ints(deadList)
	healOf := make(map[int]int, len(deadList)) // dead old rank -> recruit new rank
	for i, dr := range deadList {
		healOf[dr] = joiners[i]
	}

	// The supplier of each dead rank's state is its buddy, exactly as in
	// shrinking recovery; a dead buddy is a compound failure.
	var myWards []int // dead world ranks this rank supplies
	for dr := range deadOld {
		a := (dr + 1) % oldSize
		if deadOld[a] {
			return 0, fmt.Errorf("sim: buddy rank of dead rank %d died too; compound failure is unrecoverable", dr)
		}
		if a == c.Rank() {
			myWards = append(myWards, c.WorldRankOf(dr))
		}
	}

	// Vote on the restore generation over the grown communicator. The
	// recruit holds no state and contributes neutral values (joinWorld
	// mirrors this sequence).
	cand := maxInt(b.own[0].step, b.own[1].step)
	for _, w := range myWards {
		cand = minInt(cand, b.replicaLatest(w))
	}
	g, err := newComm.AllreduceInt64Err(int64(cand), comm.Min[int64])
	if err != nil {
		return 0, err
	}
	have := int64(1)
	if g >= 0 {
		if b.ownAt(int(g)) == nil {
			have = 0
		}
		for _, w := range myWards {
			if b.replicaAt(w, int(g)) == nil {
				have = 0
			}
		}
	}
	agree, err := newComm.AllreduceInt64Err(have, comm.Min[int64])
	if err != nil {
		return 0, err
	}

	var restored int64
	wards := make(map[int]wardPayload, len(myWards)) // dead world rank -> state
	if g >= 0 && agree == 1 {
		// Pure in-memory path: memcpy rewind; ward state straight from the
		// decoded replica generation.
		og := b.ownAt(int(g))
		for i, coord := range og.coords {
			bd := s.byCoord[coord]
			if bd == nil {
				return 0, fmt.Errorf("sim: own snapshot holds unknown block %v", coord)
			}
			copy(bd.Src.Data(), og.src[i])
			copy(bd.Dst.Data(), og.dst[i])
		}
		for _, w := range myWards {
			gen := b.replicaAt(w, int(g))
			if gen == nil {
				return 0, fmt.Errorf("sim: missing replica generation for dead rank %d", w)
			}
			wards[w] = wardPayload{snaps: gen.snaps, metas: gen.metas}
		}
		restored = g
		rec.BuddyRestores++
	} else {
		restored, wards, err = s.diskHealRestore(myWards, rc, newComm)
		if err != nil {
			return 0, err
		}
		rec.DiskRestores++
	}

	// The old→new rank map: survivors through their grown rank, dead
	// ranks to their replacement.
	redirect := make([]int, oldSize)
	for r := 0; r < oldSize; r++ {
		if deadOld[r] {
			redirect[r] = healOf[r]
			continue
		}
		nr := newComm.CommRankOf(c.WorldRankOf(r))
		if nr < 0 {
			return 0, fmt.Errorf("sim: surviving rank %d missing from the grown communicator", r)
		}
		redirect[r] = nr
	}

	// Stream each ward's state to its replacement, neighborhoods already
	// renumbered into the grown rank space, in the buddy-replica envelope
	// (WBK1 + CRC32C payload, gob metadata).
	for _, w := range myWards {
		wp := wards[w]
		metas, err := renumberMetas(wp.metas, redirect, oldSize)
		if err != nil {
			return 0, err
		}
		msg, err := encodeWardMsg(int(restored), w, wp.snaps, metas)
		if err != nil {
			return 0, err
		}
		if err := newComm.SendErr(healOf[c.CommRankOf(w)], tagHeal, msg); err != nil {
			return 0, err
		}
		rec.ReplicaBytes += int64(len(msg.Payload))
	}

	// Commit the grown topology on this rank.
	for _, bd := range s.Blocks {
		for i := range bd.Block.Neighbors {
			n := &bd.Block.Neighbors[i]
			if n.Rank < 0 || n.Rank >= oldSize {
				return 0, fmt.Errorf("sim: neighbor of block %v has invalid rank %d", bd.Block.Coord, n.Rank)
			}
			n.Rank = redirect[n.Rank]
		}
	}
	s.Comm = newComm
	s.Forest.Rank = newComm.Rank()
	s.Forest.NumRanks = newComm.Size()
	// recycleBuffers=false: the dead rank's final zero-copy unpack read our
	// old send buffers and will never synchronize with this rebuild.
	s.rebuildPlan(false)
	rec.Heals++

	// Drop all pre-heal generations (their communicator ranks are stale);
	// the time loop re-replicates on the new topology before the first
	// post-restore step.
	s.buddy = newBuddyState()

	ready := time.Since(start)
	// Recovery completes collectively, recruit included: no rank resumes
	// the time loop while a peer is still committing the grown topology.
	if err := newComm.BarrierErr(); err != nil {
		return 0, err
	}
	rec.RestoreLatency += ready
	s.tel.driver.Span(telemetry.PhaseHeal, int(restored), 0, healStart)
	return restored, nil
}

// renumberMetas deep-copies block metadata with every neighborhood rank
// redirected through the old→new rank map.
func renumberMetas(metas []blockMeta, redirect []int, oldSize int) ([]blockMeta, error) {
	out := make([]blockMeta, len(metas))
	for i, m := range metas {
		blk := m.Block
		blk.Neighbors = append([]blockforest.Neighbor(nil), blk.Neighbors...)
		for j := range blk.Neighbors {
			r := blk.Neighbors[j].Rank
			if r < 0 || r >= oldSize {
				return nil, fmt.Errorf("sim: replica block %v neighbor has invalid rank %d", blk.Coord, r)
			}
			blk.Neighbors[j].Rank = redirect[r]
		}
		out[i] = blockMeta{Block: blk, Flags: m.Flags}
	}
	return out, nil
}

// encodeWardMsg serializes one ward's state into the buddy-replica wire
// envelope for the heal stream.
func encodeWardMsg(step, srcWorld int, snaps []output.BlockSnapshot, metas []blockMeta) (*buddyMsg, error) {
	var payload bytes.Buffer
	_, crc, err := output.WriteRankFile(&payload, snaps)
	if err != nil {
		return nil, fmt.Errorf("sim: encoding heal payload: %w", err)
	}
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(metas); err != nil {
		return nil, fmt.Errorf("sim: encoding heal metadata: %w", err)
	}
	return &buddyMsg{
		Step: step, SrcWorld: srcWorld,
		Payload: payload.Bytes(), CRC: crc, Meta: meta.Bytes(),
	}, nil
}

// diskHealRestore is the fallback rung of healing recovery: like
// diskShrinkRestore, but each supplier collects its dead wards' raw state
// for forwarding instead of adopting it. Collective over newComm; the
// recruit mirrors the candidate loop with neutral votes.
func (s *Simulation) diskHealRestore(myWards []int, rc ResilienceConfig, newComm *comm.Comm) (int64, map[int]wardPayload, error) {
	if rc.Dir == "" {
		return 0, nil, fmt.Errorf("sim: no common in-memory generation and no disk checkpoint directory configured")
	}
	var candidates []int64
	if newComm.Rank() == 0 {
		candidates = output.ListValidSets(rc.Dir)
		s.recoveryDiskReads++
	}
	v, err := newComm.BcastErr(0, candidates)
	if err != nil {
		return 0, nil, err
	}
	if v != nil {
		candidates = v.([]int64)
	}

	for _, step := range candidates {
		setDir := filepath.Join(rc.Dir, output.SetDirName(int(step)))
		own, loadErr := s.loadOwnRankFile(setDir)
		wards := make(map[int]wardPayload, len(myWards))
		if loadErr == nil {
			for _, w := range myWards {
				snaps, metas, err := s.readWardFromSet(setDir, w)
				if err != nil {
					loadErr = err
					break
				}
				wards[w] = wardPayload{snaps: snaps, metas: metas}
			}
		}
		ok := int64(1)
		if loadErr != nil {
			ok = 0
		}
		agree, err := newComm.AllreduceInt64Err(ok, comm.Min[int64])
		if err != nil {
			return 0, nil, err
		}
		if agree == 0 {
			continue
		}
		for coord, pair := range own {
			bd := s.byCoord[coord]
			bd.Src.CopyFrom(pair[0])
			bd.Dst.CopyFrom(pair[1])
		}
		return step, wards, nil
	}
	return 0, nil, fmt.Errorf("sim: no usable disk checkpoint set for heal recovery in %s", rc.Dir)
}

// RunSpare parks this rank as a hot spare of a heal-mode resilient run:
// it waits at the communicator layer, joins every recovery rendezvous,
// and when recruited receives the dead rank's state and finishes the run
// as a full member of the world. See RunSpareCtx.
func RunSpare(world *comm.Comm, active int, domain *blockforest.BlockForest, cfg Config, steps int, rc ResilienceConfig) (*Simulation, Metrics, bool, error) {
	return RunSpareCtx(context.Background(), world, active, domain, cfg, steps, rc)
}

// RunSpareCtx is the spare-rank counterpart of RunResilientCtx. world is
// the world communicator this rank received from comm.Run; active is the
// target active world size; domain supplies the forest header (Domain,
// GridSize, CellsPerBlock, Periodic — the block assignment itself is
// streamed on recruitment). It returns joined=false with a nil Simulation
// when the run ended without needing this spare, and otherwise the joined
// run's Simulation (for FieldHash and the like) and metrics. Like
// RunResilientCtx it returns ErrRetired if this rank itself fails
// permanently after joining.
func RunSpareCtx(ctx context.Context, world *comm.Comm, active int, domain *blockforest.BlockForest, cfg Config, steps int, rc ResilienceConfig) (*Simulation, Metrics, bool, error) {
	if err := rc.Validate(); err != nil {
		return nil, Metrics{}, false, err
	}
	if rc.Mode != RecoverHeal {
		return nil, Metrics{}, false, fmt.Errorf("sim: RunSpare requires RecoverHeal, got mode %d", rc.Mode)
	}
	if _, join := world.ParkSpare(active); !join {
		return nil, Metrics{}, false, nil
	}
	s, m, err := joinAndRun(ctx, world, active, domain, cfg, steps, rc)
	return s, m, true, err
}

// joinAndRun executes the recruit side of healRecover — mirror the vote,
// receive the state stream, reconstruct the blocks, commit the grown
// topology — and then finishes the run under the shared resilient driver.
func joinAndRun(ctx context.Context, world *comm.Comm, active int, domain *blockforest.BlockForest, cfg Config, steps int, rc ResilienceConfig) (*Simulation, Metrics, error) {
	newComm := world.GrowWorld(active)
	if newComm == nil {
		return nil, Metrics{}, fmt.Errorf("sim: recruited spare is outside the grown communicator")
	}
	// A recruit failing mid-join collapses the heal and ends the run for
	// everyone, so any exit before the shared driver takes over must
	// release the remaining spares. Once runResilientLoop runs, its own
	// release logic is in charge (it knows the one exit — this rank's own
	// retirement — where the spares must stay parked).
	release := true
	defer func() {
		if release && newComm.WorldSize() > newComm.Size() {
			newComm.ReleaseSpares()
		}
	}()

	forest := &blockforest.BlockForest{
		Rank:          newComm.Rank(),
		NumRanks:      newComm.Size(),
		Domain:        domain.Domain,
		GridSize:      domain.GridSize,
		CellsPerBlock: domain.CellsPerBlock,
		Periodic:      domain.Periodic,
	}
	s, err := New(newComm, forest, cfg)
	if err != nil {
		return nil, Metrics{}, err
	}
	var rec RecoveryStats
	healStart := s.tel.driver.Start()
	tJoin := time.Now()

	// Mirror the restore-generation vote with neutral contributions.
	g, err := newComm.AllreduceInt64Err(math.MaxInt64, comm.Min[int64])
	if err != nil {
		return nil, Metrics{}, err
	}
	agree, err := newComm.AllreduceInt64Err(1, comm.Min[int64])
	if err != nil {
		return nil, Metrics{}, err
	}
	if !(g >= 0 && agree == 1) {
		// Mirror the disk rung's candidate loop (the recruit reads nothing
		// itself — its state arrives by stream either way).
		v, err := newComm.BcastErr(0, []int64(nil))
		if err != nil {
			return nil, Metrics{}, err
		}
		var candidates []int64
		if v != nil {
			candidates = v.([]int64)
		}
		found := false
		for range candidates {
			agree, err := newComm.AllreduceInt64Err(1, comm.Min[int64])
			if err != nil {
				return nil, Metrics{}, err
			}
			if agree == 1 {
				found = true
				break
			}
		}
		if !found {
			return nil, Metrics{}, fmt.Errorf("sim: no usable restore source for the recruited spare")
		}
	}

	// Receive the dead rank's state and reconstruct its blocks.
	got, _, err := newComm.RecvErr(comm.AnySource, tagHeal)
	if err != nil {
		return nil, Metrics{}, err
	}
	in, ok := got.(*buddyMsg)
	if !ok {
		return nil, Metrics{}, fmt.Errorf("sim: unexpected heal payload %T", got)
	}
	gen := decodeReplica(in, s.Stencil)
	if gen == nil {
		return nil, Metrics{}, fmt.Errorf("sim: heal stream for step %d failed validation", in.Step)
	}
	blocks, err := s.buildAdoptedBlocks(gen.snaps, gen.metas)
	if err != nil {
		return nil, Metrics{}, err
	}
	sort.Slice(blocks, func(i, j int) bool {
		return blockforest.MortonKey(blocks[i].Block.Coord) < blockforest.MortonKey(blocks[j].Block.Coord)
	})
	s.Blocks = blocks
	s.byCoord = make(map[[3]int]*BlockData, len(blocks))
	forest.Blocks = forest.Blocks[:0]
	for _, bd := range blocks {
		s.byCoord[bd.Block.Coord] = bd
		forest.Blocks = append(forest.Blocks, bd.Block)
	}
	s.rebuildPlan(false)
	s.buddy = newBuddyState()
	rec.BlocksAdopted += len(blocks)
	rec.Heals++
	restored := int64(in.Step)

	if err := newComm.BarrierErr(); err != nil {
		return nil, Metrics{}, err
	}
	rec.RestoreLatency += time.Since(tJoin)
	s.tel.driver.Span(telemetry.PhaseHeal, in.Step, 0, healStart)
	s.tel.worldSize.Set(float64(newComm.Size()))

	// Finish the run as a full member under the shared resilient driver.
	release = false
	m, err := s.runResilientLoop(ctx, steps, rc, active, int(restored), rec)
	return s, m, err
}

// readWardFromSet reads and validates one dead ward's rank file from a
// checkpoint set, returning its raw snapshots joined with the retained
// replica metadata — the input of both adoption (shrink) and forwarding
// (heal).
func (s *Simulation) readWardFromSet(setDir string, w int) ([]output.BlockSnapshot, []blockMeta, error) {
	metaRaw, ok := s.buddy.lastMeta[w]
	if !ok {
		return nil, nil, fmt.Errorf("sim: no retained metadata for dead rank %d", w)
	}
	metas, err := decodeReplicaMeta(metaRaw)
	if err != nil {
		return nil, nil, err
	}
	// The set was written under the pre-recovery communicator, where the
	// dead world rank's comm rank named its file.
	dr := s.Comm.CommRankOf(w)
	if dr < 0 {
		return nil, nil, fmt.Errorf("sim: dead world rank %d unknown to the pre-recovery communicator", w)
	}
	m, err := output.ValidateSetDir(setDir)
	s.recoveryDiskReads++
	if err != nil {
		return nil, nil, err
	}
	name := output.RankFileName(dr)
	var entry *output.ManifestEntry
	for i := range m.Entries {
		if m.Entries[i].Name == name {
			entry = &m.Entries[i]
		}
	}
	if entry == nil {
		return nil, nil, fmt.Errorf("sim: checkpoint set %s has no file for dead rank %d", setDir, dr)
	}
	f, err := os.Open(filepath.Join(setDir, name))
	if err != nil {
		return nil, nil, err
	}
	s.recoveryDiskReads++
	snaps, crc, err := output.ReadRankFileStored(f, s.Stencil)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	if crc != entry.CRC {
		return nil, nil, fmt.Errorf("sim: rank file %s CRC %08x does not match manifest %08x", name, crc, entry.CRC)
	}
	return snaps, metas, nil
}
