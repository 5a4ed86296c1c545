package amr

import (
	"bytes"
	"fmt"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/output"
	"walberla/internal/telemetry"
)

// Block migration. Every re-grade maps the old forest onto the new one
// with three payload kinds, each shipped in the layout-independent WBK2
// leaf stream (one aggregated message per destination rank):
//
//   - kept leaves move (or stay) as-is;
//   - a split leaf is prolonged into its eight children at the source —
//     the interpolation runs where the parent data lives, so the wire
//     carries exactly the new state;
//   - a merged octet ships its eight children to the parent's new owner
//     and is restricted there.
//
// One exception: before the first step (step 0) with a Config
// InitialState, split children are re-initialized from the initial
// condition at the destination instead of prolonged — the parent's
// cells are still exact point samples of InitialState, so re-sampling
// at the fine centers is exact where trilinear interpolation would bake
// an O(h²) smoothing of the feature into the run. Nothing ships for
// such children, and because InitialState is pure the result is
// bit-identical on every rank.
//
// Both Src and Dst fields transfer (non-fluid interior cells carry state
// the kernels never rewrite), while flag fields — and with them kernel and
// allocation window — are regenerated at the destination from the pure
// Config.Flags function. Because every rank derives the same movement
// table from the replicated metadata, no negotiation precedes the
// point-to-point payload exchange.

// tagMigrate carries WBK2 migration payloads between re-grades.
const tagMigrate = 1<<28 + 64

// payload describes one WBK2 record's journey for one re-grade.
type payload struct {
	id       blockforest.BlockID // record identity (old leaf or new child)
	src, dst int                 // comm ranks
	kind     opKindMigrate
	newLeaf  int // index into the graded leaf list
}

type opKindMigrate uint8

const (
	payloadKeep opKindMigrate = iota
	payloadSplit
	payloadSplitInit // split child re-initialized from InitialState at step 0; no wire payload
	payloadMerge
)

// migrate installs a graded leaf set: ships payloads, assembles the new
// blocks and rebuilds the exchange plans.
func (s *Sim) migrate(graded []blockforest.Leaf) error {
	t0 := time.Now()
	lt0 := s.tel.driver.Start()
	me := s.Comm.Rank()
	oldByID := make(map[blockforest.BlockID]Leaf, len(s.leaves))
	for _, l := range s.leaves {
		oldByID[l.ID] = l
	}

	// The movement table, in canonical new-leaf order (identical on all
	// ranks).
	var moves []payload
	splits, merges := 0, 0
	for ni, nl := range graded {
		if ol, ok := oldByID[nl.ID]; ok {
			moves = append(moves, payload{id: nl.ID, src: ol.Rank, dst: nl.Rank, kind: payloadKeep, newLeaf: ni})
			continue
		}
		if nl.ID.Level > 0 {
			if op, ok := oldByID[nl.ID.Parent()]; ok {
				splits++
				kind, src := payloadSplit, op.Rank
				if s.step == 0 && s.cfg.InitialState != nil {
					kind, src = payloadSplitInit, nl.Rank
				}
				moves = append(moves, payload{id: nl.ID, src: src, dst: nl.Rank, kind: kind, newLeaf: ni})
				continue
			}
		}
		// Merge: children must exist in the old forest.
		for o := 0; o < 8; o++ {
			cid := nl.ID.Child(o)
			oc, ok := oldByID[cid]
			if !ok {
				return fmt.Errorf("amr: graded leaf %v has neither ancestor nor children", nl.ID)
			}
			moves = append(moves, payload{id: cid, src: oc.Rank, dst: nl.Rank, kind: payloadMerge, newLeaf: ni})
		}
		merges++
	}
	moved := 0
	sendTo := map[int][]payload{}
	recvFrom := map[int]bool{}
	incoming := make(map[blockforest.BlockID]output.LeafSnapshot)
	for _, m := range moves {
		if m.kind == payloadSplitInit {
			continue // materialized at the destination, nothing ships
		}
		if m.src != m.dst {
			moved++
		}
		switch {
		case m.src == me && m.dst != me:
			sendTo[m.dst] = append(sendTo[m.dst], m)
		case m.dst == me && m.src != me:
			recvFrom[m.src] = true
		case m.src == me && m.kind != payloadKeep: // a kept leaf that stays is its block
			sn, err := s.buildPayload(m, graded)
			if err != nil {
				return err
			}
			incoming[m.id] = sn
		}
	}

	// Post receives first, then ship one aggregated WBK2 blob per
	// destination; ranks are walked in a fixed order.
	reqs := map[int]*comm.RecvRequest{}
	for r := 0; r < s.Comm.Size(); r++ {
		if recvFrom[r] {
			reqs[r] = s.Comm.Irecv(r, tagMigrate)
		}
	}
	for r := 0; r < s.Comm.Size(); r++ {
		ms, ok := sendTo[r]
		if !ok {
			continue
		}
		snaps := make([]output.LeafSnapshot, len(ms))
		for i, m := range ms {
			sn, err := s.buildPayload(m, graded)
			if err != nil {
				return err
			}
			snaps[i] = sn
		}
		var buf bytes.Buffer
		buf.Grow(int(output.LeafFileSize(snaps)))
		if _, _, err := output.WriteLeafFile(&buf, snaps); err != nil {
			return fmt.Errorf("amr: encoding migration payload for rank %d: %w", r, err)
		}
		if err := s.Comm.SendErr(r, tagMigrate, buf.Bytes()); err != nil {
			return fmt.Errorf("amr: migration send to rank %d: %w", r, err)
		}
	}
	for r := 0; r < s.Comm.Size(); r++ {
		rp, ok := reqs[r]
		if !ok {
			continue
		}
		data, _, err := rp.Wait()
		if err != nil {
			return fmt.Errorf("amr: migration recv from rank %d: %w", r, err)
		}
		raw, ok := data.([]byte)
		if !ok {
			return fmt.Errorf("amr: migration recv from rank %d: unexpected %T", r, data)
		}
		snaps, _, err := output.ReadLeafFile(bytes.NewReader(raw), s.cfg.Stencil)
		if err != nil {
			return fmt.Errorf("amr: decoding migration payload from rank %d: %w", r, err)
		}
		for _, sn := range snaps {
			incoming[snapID(sn)] = sn
		}
	}

	// Assemble the new local block set around the payloads.
	newBlocks := make(map[blockforest.BlockID]*Block)
	for _, m := range moves {
		if m.dst != me {
			continue
		}
		nl := leafFrom(graded[m.newLeaf])
		sn, ok := incoming[m.id]
		var b *Block
		var err error
		switch {
		case m.kind == payloadSplitInit:
			if b, err = s.newBlock(nl, nil, nil); err == nil {
				s.initBlockState(b)
			}
		case m.kind == payloadKeep && m.src == me:
			b = &Block{Leaf: nl, BlockData: s.byID[m.id].BlockData}
		case !ok:
			return fmt.Errorf("amr: missing migration payload for leaf %v", m.id)
		case m.kind == payloadMerge:
			if b = newBlocks[nl.ID]; b == nil {
				b, err = s.newBlock(nl, nil, nil)
			}
			if err == nil {
				s.restrictBlock(sn.Src, m.id.Octant(), int(m.id.Level), b.Src, &s.scratch[0])
				s.restrictBlock(sn.Dst, m.id.Octant(), int(m.id.Level), b.Dst, &s.scratch[0])
			}
		default: // a kept leaf arriving or a split child, prolonged at its source
			b, err = s.newBlock(nl, sn.Src, sn.Dst)
		}
		if err != nil {
			return err
		}
		newBlocks[nl.ID] = b
	}

	// Install: new leaf list, blocks, plans.
	s.setLeaves(graded)
	blocks := make([]*Block, 0, len(newBlocks))
	for _, b := range newBlocks {
		blocks = append(blocks, b)
	}
	if err := s.install(blocks, true); err != nil {
		return err
	}

	// splits already counts new fine leaves (one per child payload);
	// merges counts octets, i.e. 8 removed leaves each.
	s.stats.Splits += splits
	s.stats.Merges += merges * 8
	s.stats.Migrated += moved
	s.tel.splits.Add(int64(splits))
	s.tel.merges.Add(int64(merges * 8))
	s.tel.migrated.Add(int64(moved))
	s.tel.driver.Span(telemetry.PhaseMigrate, s.step, int32(moved), lt0)
	ns := time.Since(t0).Nanoseconds()
	s.stats.MigrateNs += ns
	s.tel.migrateNs.Add(ns)
	return nil
}

// buildPayload materializes one outgoing WBK2 record from local state.
// Split children are prolonged here at the source, so the wire carries
// the new fine state and every destination receives ready-to-install
// fields.
func (s *Sim) buildPayload(m payload, graded []blockforest.Leaf) (output.LeafSnapshot, error) {
	b := s.byID[sourceID(m)]
	if b == nil {
		panic(fmt.Sprintf("amr: payload source %v not owned", sourceID(m)))
	}
	sn := output.LeafSnapshot{Tree: m.id.Tree, Path: m.id.Path, Level: m.id.Level, Coord: b.Coord, Src: b.Src, Dst: b.Dst}
	if m.kind == payloadSplit {
		child, err := s.splitChild(b, leafFrom(graded[m.newLeaf]))
		if err != nil {
			return sn, err
		}
		sn.Src, sn.Dst = child.Src, child.Dst
	}
	return sn, nil
}

// splitChild assembles the child leaf l of parent and prolongs both of
// the parent's fields into it.
func (s *Sim) splitChild(parent *Block, l Leaf) (*Block, error) {
	child, err := s.newBlock(l, nil, nil)
	if err != nil {
		return nil, err
	}
	oct, level := l.ID.Octant(), l.Level()
	s.prolongBlock(parent.Src, oct, level, child.Src, &s.scratch[0])
	s.prolongBlock(parent.Dst, oct, level, child.Dst, &s.scratch[0])
	return child, nil
}

// sourceID is the old leaf a payload reads from.
func sourceID(m payload) blockforest.BlockID {
	if m.kind == payloadSplit {
		return m.id.Parent()
	}
	return m.id
}

func snapID(sn output.LeafSnapshot) blockforest.BlockID {
	return blockforest.BlockID{Tree: sn.Tree, Path: sn.Path, Level: sn.Level}
}
