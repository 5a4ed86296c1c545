package amr

import (
	"fmt"
	"slices"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/output"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

// Block migration. Every re-grade maps the old forest onto the new one
// with three payload kinds, each a WBK2 record shipped the one way
// records change hands at run time (the data plane's Ship, which the
// uniform Rebalance uses too: one rank file per destination rank, sent
// only to and received only from the ranks of the movement table):
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
// Both Src and Dst fields transfer (the field hash folds the solid
// interior cells of both), while flag fields — and with them kernel and
// allocation window — are regenerated at the destination by the data
// plane's one assembly (NewBlock): the new leaf set's index gives every
// new block its neighbourhood, and Config.SetupFlags its flags from that,
// as on a restore. A kept leaf that stays is its block. The new blocks end
// in the commit a restore's landing ends in too (Commit). Because every rank
// derives the same movement table from the replicated metadata, no
// negotiation precedes the point-to-point payload exchange.

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
	me, step := s.plane.Comm.Rank(), s.plane.WorldStep()
	oldByID := make(map[blockforest.BlockID]Leaf, len(s.leaves))
	for _, l := range s.leaves {
		oldByID[l.ID] = l
	}
	owned := make(map[blockforest.BlockID]*sim.BlockData, len(s.plane.Blocks))
	for _, bd := range s.plane.Blocks {
		owned[bd.Block.ID] = bd
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
				if step == 0 && s.cfg.InitialState != nil {
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
	x := blockforest.NewIndex(graded, s.cfg.Grid, s.cfg.Periodic)
	moved := 0
	out := map[int][]output.LeafSnapshot{}
	var from []int // ranks that send here, ascending
	incoming := make(map[blockforest.BlockID]output.LeafSnapshot)
	for _, m := range moves {
		if m.kind == payloadSplitInit {
			continue // materialized at the destination, nothing ships
		}
		if m.src != m.dst {
			moved++
		}
		switch {
		case m.src == me && (m.dst != me || m.kind == payloadMerge): // a kept leaf that stays is its block
			sn, err := s.buildPayload(owned[sourceID(m)], m, x, graded)
			if err != nil {
				return err
			}
			if m.dst != me {
				out[m.dst] = append(out[m.dst], sn)
			} else {
				incoming[m.id] = sn
			}
		case m.dst == me && m.src != me && !slices.Contains(from, m.src):
			from = append(from, m.src)
		}
	}
	slices.Sort(from)
	got, err := s.plane.Ship(out, from)
	if err != nil {
		return fmt.Errorf("amr: migration: %w", err)
	}
	for _, sn := range got {
		incoming[snapID(sn)] = sn
	}

	// Assemble the new local block set around the payloads; the children
	// re-initialized from the initial condition are built together, at
	// their step-0 state, on the worker pool.
	newBlocks := make(map[blockforest.BlockID]*sim.BlockData)
	var inits, children []blockforest.Leaf
	for _, m := range moves {
		if m.dst != me {
			continue
		}
		nl := graded[m.newLeaf]
		sn, ok := incoming[m.id]
		var bd *sim.BlockData
		var err error
		switch {
		case m.kind == payloadSplitInit:
			inits = append(inits, nl)
			continue
		case m.kind == payloadSplit && m.src == me:
			children = append(children, nl)
			continue
		case m.kind == payloadKeep && m.src == me:
			bd = owned[m.id]
		case !ok:
			return fmt.Errorf("amr: missing migration payload for leaf %v", m.id)
		case m.kind == payloadMerge:
			if bd = newBlocks[nl.ID]; bd == nil {
				bd, err = s.plane.NewBlock(x, nl, nil, nil)
			}
			if err == nil {
				s.restrict(sn.Src, m.id, bd.Src)
				s.restrict(sn.Dst, m.id, bd.Dst)
			}
		default: // a kept leaf arriving or a split child, prolonged at its source
			bd, err = s.plane.NewBlock(x, nl, sn.Src, sn.Dst)
		}
		if err != nil {
			return err
		}
		newBlocks[nl.ID] = bd
	}
	blocks := append(s.plane.NewBlocks(x, inits, nil), s.plane.NewBlocks(x, children, func(w, i int, child *sim.BlockData) {
		s.prolong(owned[children[i].ID.Parent()], child, w)
	})...)
	for _, bd := range newBlocks {
		blocks = append(blocks, bd)
	}
	if err := s.install(graded, x, blocks); err != nil {
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
	s.tel.driver.Span(telemetry.PhaseMigrate, step, int32(moved), lt0)
	ns := time.Since(t0).Nanoseconds()
	s.stats.MigrateNs += ns
	s.tel.migrateNs.Add(ns)
	return nil
}

// buildPayload materializes one outgoing WBK2 record from b, the local
// block the payload reads.
// Split children are prolonged here at the source, so the wire carries
// the new fine state and every destination receives ready-to-install
// fields.
func (s *Sim) buildPayload(b *sim.BlockData, m payload, x *blockforest.Index, graded []blockforest.Leaf) (output.LeafSnapshot, error) {
	if b == nil {
		panic(fmt.Sprintf("amr: payload source %v not owned", sourceID(m)))
	}
	sn := output.LeafSnapshot{Tree: m.id.Tree, Path: m.id.Path, Level: m.id.Level, Coord: b.Block.Coord, Src: b.Src, Dst: b.Dst}
	if m.kind == payloadSplit {
		child, err := s.splitChild(x, b, graded[m.newLeaf])
		if err != nil {
			return sn, err
		}
		sn.Src, sn.Dst = child.Src, child.Dst
	}
	return sn, nil
}

// splitChild assembles the child leaf l of parent, of the leaf set x
// indexes, and prolongs both of the parent's fields into it.
func (s *Sim) splitChild(x *blockforest.Index, parent *sim.BlockData, l blockforest.Leaf) (*sim.BlockData, error) {
	child, err := s.plane.NewBlock(x, l, nil, nil)
	if err != nil {
		return nil, err
	}
	s.prolong(parent, child, 0)
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
