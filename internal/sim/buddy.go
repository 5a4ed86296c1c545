package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/output"
	"walberla/internal/telemetry"
)

// In-memory buddy checkpointing and shrinking recovery (RecoverShrink).
//
// At every checkpoint interval each rank protects its state twice:
//
//   - an *own snapshot*: raw copies of both PDF fields of every local
//     block, restored by memcpy — the survivor's rewind needs no
//     decoding at all;
//   - a *buddy replica*: the blocks serialized with the rank-file
//     encoding of the disk checkpoint sets (WBK1 + CRC32C, but into
//     memory) plus the block metadata adoption needs, sent to the buddy
//     rank (rank+1) mod size.
//
// Both are double-buffered generations: a failure mid-replication leaves
// the previous generation intact, and the recovery vote picks the newest
// generation every survivor can serve. On a permanent failure the
// survivors shrink the world (comm.Shrink), the dead rank's buddy decodes
// the replica and re-owns the blocks through the same adoption path the
// dynamic load balancer uses, neighborhoods are renumbered with the
// old→new rank map, the exchange plan is rebuilt, and the run resumes
// from the replicated step — zero disk I/O on this path (asserted via
// RecoveryStats.DiskReadsDuringRecovery).

// tagBuddy carries replica generations; it lives in the user tag space
// above the migration tags (see rebalance.go).
const tagBuddy = 1<<30 + 2

// buddyMsg is one replication generation shipped to the buddy rank.
type buddyMsg struct {
	// Step is the generation's step barrier.
	Step int
	// SrcWorld is the producing rank's world rank — stable across
	// shrinks, unlike communicator ranks.
	SrcWorld int
	// Payload is the WBK1 rank-file encoding of all blocks (coordinates
	// plus both PDF fields); CRC is its CRC32C.
	Payload []byte
	CRC     uint32
	// Meta is the gob-encoded []blockMeta adoption needs (the rank-file
	// format stores only coordinates and fields).
	Meta []byte
}

// blockMeta carries the non-field state of one block: the forest block
// (ID, coordinates, AABB, neighborhood with communicator ranks as of the
// producing generation) and the flag field contents.
type blockMeta struct {
	Block blockforest.Block
	Flags []field.CellType
}

// replicaGen is one received generation, CRC-validated AND decoded at
// receipt: recovery latency is what buddy replication exists to minimize,
// so the deserialization cost is paid on the (overlappable) replication
// path, and a restore that adopts these blocks is a pure memory
// operation.
type replicaGen struct {
	step     int
	srcWorld int
	snaps    []output.BlockSnapshot
	metas    []blockMeta
}

// ownGen is one locally-held snapshot generation: raw field copies,
// restored by memcpy.
type ownGen struct {
	step   int
	coords [][3]int
	src    [][]float64
	dst    [][]float64
}

// buddyState is the double-buffered replication state of one rank.
type buddyState struct {
	parity  int            // slot the next generation writes
	own     [2]ownGen      // this rank's raw snapshots
	replica [2]*replicaGen // the ward's decoded generations held here
	// lastMeta retains the newest metadata per protected world rank even
	// when payload generations are invalidated — block metadata is static
	// between shrinks, and the disk-fallback rung needs it to adopt.
	lastMeta map[int][]byte
	// lastStep is the step of the newest generation this rank produced
	// (-1 before the first), deduplicating the post-restore generation.
	lastStep int
}

// copyInto copies src into dst, reusing dst's storage when it fits.
func copyInto(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

func newBuddyState() *buddyState {
	b := &buddyState{lastMeta: make(map[int][]byte), lastStep: -1}
	b.own[0].step, b.own[1].step = -1, -1
	return b
}

// ownAt returns the own snapshot of the given step, or nil.
func (b *buddyState) ownAt(step int) *ownGen {
	for i := range b.own {
		if b.own[i].step == step {
			return &b.own[i]
		}
	}
	return nil
}

// replicaAt returns the committed replica generation of the given
// producing world rank and step, or nil.
func (b *buddyState) replicaAt(srcWorld, step int) *replicaGen {
	for _, g := range b.replica {
		if g != nil && g.srcWorld == srcWorld && g.step == step {
			return g
		}
	}
	return nil
}

// replicaLatest returns the newest committed generation step held for the
// producing world rank (-1 if none).
func (b *buddyState) replicaLatest(srcWorld int) int {
	latest := -1
	for _, g := range b.replica {
		if g != nil && g.srcWorld == srcWorld && g.step > latest {
			latest = g.step
		}
	}
	return latest
}

// replicate produces one protection generation at a step barrier: the own
// raw snapshot, and the serialized replica shipped to the buddy rank.
// Collective over s.Comm. A rank failure surfaces as the usual typed
// error; the half-written generation is simply never committed, so
// recovery falls back to the previous one.
func (s *Simulation) replicate(step int, rec *RecoveryStats) error {
	b := s.buddy
	c := s.Comm

	// Own snapshot first: purely local, so every survivor of a failure
	// during the exchange below still owns this generation (the vote
	// requires own generations to be uniform across survivors).
	p := b.parity
	og := &b.own[p]
	og.step = step
	og.coords = og.coords[:0]
	if len(og.src) != len(s.Blocks) {
		og.src = make([][]float64, len(s.Blocks))
		og.dst = make([][]float64, len(s.Blocks))
	}
	for i, bd := range s.Blocks {
		og.coords = append(og.coords, bd.Block.Coord)
		// Reuse the generation's buffers across intervals: snapshots are
		// taken every CheckpointEvery steps, and fresh multi-megabyte
		// slices each time keep the collector busy enough to intrude on
		// the recovery-latency window.
		og.src[i] = copyInto(og.src[i], bd.Src.Data())
		og.dst[i] = copyInto(og.dst[i], bd.Dst.Data())
	}
	b.lastStep = step

	if c.Size() < 2 {
		b.parity ^= 1
		return nil // no buddy to protect or be protected by
	}

	msg, err := s.encodeReplica(step)
	if err != nil {
		return err
	}
	buddy := (c.Rank() + 1) % c.Size()
	ward := (c.Rank() + c.Size() - 1) % c.Size()
	if err := c.SendErr(buddy, tagBuddy, msg); err != nil {
		return err
	}
	got, _, err := c.RecvErr(ward, tagBuddy)
	if err != nil {
		return err
	}
	in, ok := got.(*buddyMsg)
	if !ok {
		return fmt.Errorf("sim: unexpected buddy payload %T", got)
	}
	rec.Replications++
	rec.ReplicaBytes += int64(len(msg.Payload))
	s.tel.replicaBytes.Add(int64(len(msg.Payload)))
	// Validate and decode NOW, at receipt: a generation that fails either
	// is simply not committed (the previous one stays restorable and the
	// vote settles on it), and a committed generation makes the eventual
	// restore a pure memory operation.
	if gen := decodeReplica(in, s.Stencil); gen != nil {
		b.replica[p] = gen
		b.lastMeta[in.SrcWorld] = in.Meta
	}
	b.parity ^= 1
	// Commit barrier: without it the ring above only chains each rank to
	// its ward, so under a gray failure (one connection dead, others
	// alive) survivors can drift more than one generation apart — and
	// two-deep buffers that drift by two share no common generation,
	// forcing the disk fallback. The barrier bounds the skew at one
	// generation, which guarantees the vote always finds a common
	// restorable one. A failure here leaves this generation uncommitted
	// on some ranks; the vote settles on the previous one.
	return c.BarrierErr()
}

// decodeReplica validates and deserializes one replica envelope, nil if
// the envelope is corrupt in any way. Each block is decoded in the layout
// its sender stored it in (the wire format records it per block), so
// replicas from ranks running a mix of layouts restore without any
// world-wide layout assumption.
func decodeReplica(in *buddyMsg, stencil *lattice.Stencil) *replicaGen {
	if output.CRC32C(in.Payload) != in.CRC {
		return nil
	}
	metas, err := decodeReplicaMeta(in.Meta)
	if err != nil {
		return nil
	}
	snaps, crc, err := output.ReadRankFileStored(bytes.NewReader(in.Payload), stencil)
	if err != nil || crc != in.CRC || len(snaps) != len(metas) {
		return nil
	}
	return &replicaGen{step: in.Step, srcWorld: in.SrcWorld, snaps: snaps, metas: metas}
}

// encodeReplica serializes this rank's blocks into a replica envelope.
func (s *Simulation) encodeReplica(step int) (*buddyMsg, error) {
	snaps := make([]output.BlockSnapshot, len(s.Blocks))
	metas := make([]blockMeta, len(s.Blocks))
	for i, bd := range s.Blocks {
		snaps[i] = output.BlockSnapshot{Coord: bd.Block.Coord, Src: bd.Src, Dst: bd.Dst}
		metas[i] = blockMeta{
			Block: *bd.Block, // value copy; the receiver adopts its own instance
			Flags: append([]field.CellType(nil), bd.Flags.Data()...),
		}
	}
	var payload bytes.Buffer
	_, crc, err := output.WriteRankFile(&payload, snaps)
	if err != nil {
		return nil, fmt.Errorf("sim: encoding replica payload: %w", err)
	}
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(metas); err != nil {
		return nil, fmt.Errorf("sim: encoding replica metadata: %w", err)
	}
	return &buddyMsg{
		Step:     step,
		SrcWorld: s.Comm.WorldRank(),
		Payload:  payload.Bytes(),
		CRC:      crc,
		Meta:     meta.Bytes(),
	}, nil
}

// shrinkRestoreAttempt wraps shrinkRecover with the same panic conversion
// as the other recovery entry points (a failure can strike during
// recovery traffic too).
func (s *Simulation) shrinkRestoreAttempt(dead []int, rc ResilienceConfig, rec *RecoveryStats, start time.Time) (step int64, err error) {
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
	return s.shrinkRecover(dead, rc, rec, start)
}

// shrinkRecover repairs the world after permanent failures: shrink the
// communicator onto the survivors, vote on the newest restorable
// generation, rewind every survivor from its own snapshot, let each dead
// rank's buddy adopt the replica blocks, renumber the neighborhoods with
// the old→new rank map, and rebuild the exchange plan. Falls back to a
// disk checkpoint set when no common in-memory generation survives.
// Returns the restored step.
func (s *Simulation) shrinkRecover(dead []int, rc ResilienceConfig, rec *RecoveryStats, start time.Time) (int64, error) {
	shrinkStart := s.tel.driver.Start()
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

	newComm, rankMap := c.Shrink()
	if newComm == nil {
		return 0, ErrRetired
	}

	// The adopter of each dead rank is its buddy — deterministic, so no
	// agreement traffic is needed. A dead buddy means the replica is gone
	// with it: with single-failure-at-a-time semantics this cannot occur
	// (the previous failure is fully recovered, and re-protected, before
	// the next one is handled), so treat it as unrecoverable.
	adopterOf := make(map[int]int, len(deadOld)) // dead old rank -> adopter old rank
	var myWards []int                            // dead world ranks this rank adopts from
	for dr := range deadOld {
		a := (dr + 1) % oldSize
		if deadOld[a] {
			return 0, fmt.Errorf("sim: buddy rank of dead rank %d died too; compound failure is unrecoverable", dr)
		}
		adopterOf[dr] = a
		if a == c.Rank() {
			myWards = append(myWards, c.WorldRankOf(dr))
		}
	}

	// Vote on the restore generation: the newest step every survivor can
	// serve from memory — own snapshots everywhere, plus the replicas of
	// the dead on their adopters. A negative outcome (no generations, or
	// an adopter whose replica was never committed) selects the disk
	// fallback collectively.
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
	var adopted []*BlockData
	if g >= 0 && agree == 1 {
		// Pure in-memory path: memcpy rewind + replica adoption.
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
			blocks, err := s.adoptReplica(b.replicaAt(w, int(g)))
			if err != nil {
				return 0, err
			}
			adopted = append(adopted, blocks...)
		}
		restored = g
		rec.BuddyRestores++
	} else {
		restored, adopted, err = s.diskShrinkRestore(myWards, rc, newComm)
		if err != nil {
			return 0, err
		}
		rec.DiskRestores++
	}

	// Commit the new topology: redirect every neighborhood rank through
	// the old→new map (dead ranks to their adopter), swap communicator
	// and forest, and rebuild the plan.
	redirect := make([]int, oldSize)
	for r := 0; r < oldSize; r++ {
		if deadOld[r] {
			redirect[r] = rankMap[adopterOf[r]]
		} else {
			redirect[r] = rankMap[r]
		}
	}
	kept := append(s.Blocks, adopted...)
	sort.Slice(kept, func(i, j int) bool {
		return blockforest.MortonKey(kept[i].Block.Coord) < blockforest.MortonKey(kept[j].Block.Coord)
	})
	s.Blocks = kept
	s.byCoord = make(map[[3]int]*BlockData, len(kept))
	var forestBlocks []*blockforest.Block
	for _, bd := range kept {
		for i := range bd.Block.Neighbors {
			n := &bd.Block.Neighbors[i]
			if n.Rank < 0 || n.Rank >= oldSize {
				return 0, fmt.Errorf("sim: neighbor of block %v has invalid rank %d", bd.Block.Coord, n.Rank)
			}
			n.Rank = redirect[n.Rank]
		}
		s.byCoord[bd.Block.Coord] = bd
		forestBlocks = append(forestBlocks, bd.Block)
	}
	s.Comm = newComm
	s.Forest.Rank = newComm.Rank()
	s.Forest.NumRanks = newComm.Size()
	s.Forest.Blocks = forestBlocks
	// recycleBuffers=false: the dead rank's final zero-copy unpack read our
	// old send buffers and will never synchronize with this rebuild, so the
	// retired buffers must not be repacked — see rebuildPlan.
	s.rebuildPlan(false)
	rec.Shrinks++
	rec.BlocksAdopted += len(adopted)

	// Drop all pre-shrink generations (their communicator ranks are stale).
	// Re-protection is NOT done here — the restored step is always a
	// checkpoint barrier (a multiple of the interval, or 0), so the time
	// loop re-replicates on the new topology before the first post-restore
	// step, outside the measured restore window.
	s.buddy = newBuddyState()

	// This rank is ready to step again; what remains is waiting for the
	// peers. RestoreLatency is the per-rank rendezvous-to-ready time, so
	// record it here — the barrier below is coordination, and the moments
	// after it are already re-protection work competing for cores.
	ready := time.Since(start)

	// Recovery completes collectively: no survivor resumes the time loop
	// (and starts competing for cores with re-protection work) while a
	// peer is still committing the shrunk topology.
	if err := newComm.BarrierErr(); err != nil {
		return 0, err
	}
	rec.RestoreLatency += ready
	s.tel.driver.Span(telemetry.PhaseShrink, int(restored), 0, shrinkStart)
	return restored, nil
}

// adoptReplica reconstructs the dead rank's blocks from a decoded
// generation, reusing the adoption discipline of the dynamic load
// balancer (rebalance.go). Pure memory: decoding already happened at
// receipt (decodeReplica).
func (s *Simulation) adoptReplica(gen *replicaGen) ([]*BlockData, error) {
	if gen == nil {
		return nil, fmt.Errorf("sim: missing replica generation")
	}
	return s.buildAdoptedBlocks(gen.snaps, gen.metas)
}

// buildAdoptedBlocks joins decoded field snapshots with their metadata
// into runtime blocks.
func (s *Simulation) buildAdoptedBlocks(snaps []output.BlockSnapshot, metas []blockMeta) ([]*BlockData, error) {
	byCoord := make(map[[3]int]*blockMeta, len(metas))
	for i := range metas {
		byCoord[metas[i].Block.Coord] = &metas[i]
	}
	if len(snaps) != len(metas) {
		return nil, fmt.Errorf("sim: replica has %d field snapshots but %d metadata records", len(snaps), len(metas))
	}
	blocks := make([]*BlockData, 0, len(snaps))
	for _, snap := range snaps {
		m := byCoord[snap.Coord]
		if m == nil {
			return nil, fmt.Errorf("sim: replica block %v has no metadata", snap.Coord)
		}
		cells := m.Block.Cells
		for _, pf := range [2]*field.PDFField{snap.Src, snap.Dst} {
			if pf.Nx != cells[0] || pf.Ny != cells[1] || pf.Nz != cells[2] || pf.Ghost != 1 {
				return nil, fmt.Errorf("sim: replica block %v shape mismatch", snap.Coord)
			}
		}
		flags := field.NewFlagField(cells[0], cells[1], cells[2], 1)
		copy(flags.Data(), m.Flags)
		blk := m.Block // copy out of the decoded metadata
		bd, err := s.assembleBlock(&blk, flags)
		if err != nil {
			return nil, err
		}
		// Snapshots are decoded whole-block and in the layout they were
		// stored in; CopyFrom crops to the window and transposes.
		bd.Src.CopyFrom(snap.Src)
		bd.Dst.CopyFrom(snap.Dst)
		blocks = append(blocks, bd)
	}
	return blocks, nil
}

func decodeReplicaMeta(raw []byte) ([]blockMeta, error) {
	var metas []blockMeta
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&metas); err != nil {
		return nil, fmt.Errorf("sim: decoding replica metadata: %w", err)
	}
	return metas, nil
}

// diskShrinkRestore is the fallback rung of shrinking recovery: the
// survivors restore their own blocks from the newest valid disk
// checkpoint set written by the pre-shrink world, and each adopter reads
// its dead ward's rank file too, joining it with the retained replica
// metadata. Collective over newComm (the old communicator is revoked but
// s.Comm still carries the pre-shrink rank numbering the set was written
// under).
func (s *Simulation) diskShrinkRestore(myWards []int, rc ResilienceConfig, newComm *comm.Comm) (int64, []*BlockData, error) {
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
		var adopted []*BlockData
		if loadErr == nil {
			adopted, loadErr = s.adoptFromSet(setDir, myWards)
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
		return step, adopted, nil
	}
	return 0, nil, fmt.Errorf("sim: no usable disk checkpoint set for shrink recovery in %s", rc.Dir)
}

// adoptFromSet reads and validates the rank files of this rank's dead
// wards from one checkpoint set, joining them with the retained replica
// metadata.
func (s *Simulation) adoptFromSet(setDir string, myWards []int) ([]*BlockData, error) {
	var adopted []*BlockData
	for _, w := range myWards {
		snaps, metas, err := s.readWardFromSet(setDir, w)
		if err != nil {
			return nil, err
		}
		blocks, err := s.buildAdoptedBlocks(snaps, metas)
		if err != nil {
			return nil, err
		}
		adopted = append(adopted, blocks...)
	}
	return adopted, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
