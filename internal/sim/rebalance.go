package sim

import (
	"fmt"
	"sort"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
)

// Dynamic load balancing — the extension the paper names as future work
// ("This will also require dynamic load balancing"). Blocks migrate
// between ranks at runtime with their complete state (flag field and PDF
// field including ghost layers), the neighborhood views are updated, and
// the exchange plan is rebuilt. The new assignment is computed from
// either the static workloads (fluid cells) or the measured per-block
// compute times, cut along the Morton curve exactly like the initial
// static balancing.

// migration tags live in the user tag space above any ghost-exchange tag
// (which is bounded by numTrees * 27).
const (
	tagMigrateCount = 1 << 30
	tagMigrateBlock = 1<<30 + 1
)

// migratedBlock carries one block's complete state to its new owner. The
// sender relinquishes the block, so sharing the underlying arrays through
// the in-process message is safe.
type migratedBlock struct {
	Block    blockforest.Block
	Workload float64
	Layout   field.Layout
	SrcData  []float64
	DstData  []float64
	Flags    []field.CellType
}

// Workloads returns this rank's per-block workloads: the measured kernel
// compute time per block if available (after at least one timed step),
// else the static fluid cell count.
func (s *Simulation) Workloads(useMeasured bool) map[[3]int]float64 {
	out := make(map[[3]int]float64, len(s.Blocks))
	for _, bd := range s.Blocks {
		if useMeasured && bd.ComputeTime > 0 {
			out[bd.Block.Coord] = bd.ComputeTime.Seconds()
		} else {
			out[bd.Block.Coord] = float64(bd.Fluid)
		}
	}
	return out
}

// RebalanceByWorkload computes a fresh Morton-curve assignment from the
// current workloads (measured compute times when useMeasured is set) and
// migrates blocks accordingly. Collective: every rank must call it at the
// same point of the time loop. A peer failure comes back as an error
// wrapping *comm.RankFailedError.
func (s *Simulation) RebalanceByWorkload(useMeasured bool) error {
	type entry struct {
		Coord    [3]int
		Workload float64
	}
	var mine []entry
	for c, w := range s.Workloads(useMeasured) {
		mine = append(mine, entry{c, w})
	}
	gathered, err := s.Comm.GatherErr(0, mine)
	if err != nil {
		return fmt.Errorf("sim: rebalance workload gather: %w", err)
	}
	var assignment map[[3]int]int
	if s.Comm.Rank() == 0 {
		var all []entry
		for _, part := range gathered {
			if part != nil {
				all = append(all, part.([]entry)...)
			}
		}
		sort.Slice(all, func(i, j int) bool {
			return blockforest.MortonKey(all[i].Coord) < blockforest.MortonKey(all[j].Coord)
		})
		var total float64
		for _, e := range all {
			total += e.Workload
		}
		ranks := s.Comm.Size()
		target := total / float64(ranks)
		assignment = make(map[[3]int]int, len(all))
		rank := 0
		var acc float64
		count := 0
		for _, e := range all {
			// Cut to the next rank when the block's midpoint crosses the
			// per-rank target (never leaving a rank empty while blocks
			// remain): robust against skewed measured workloads, where
			// waiting for acc >= target piles everything on rank 0.
			if rank < ranks-1 && count > 0 && acc+e.Workload/2 >= target {
				rank++
				acc = 0
				count = 0
			}
			assignment[e.Coord] = rank
			acc += e.Workload
			count++
		}
	}
	v, err := s.Comm.BcastErr(0, assignment)
	if err != nil {
		return fmt.Errorf("sim: rebalance assignment broadcast: %w", err)
	}
	assignment, ok := v.(map[[3]int]int)
	if !ok {
		return fmt.Errorf("sim: rebalance assignment broadcast carried %T", v)
	}
	return s.Rebalance(assignment)
}

// Rebalance migrates blocks to match the given complete assignment
// (coordinate of every block in the simulation to its new rank) and
// rebuilds the local data structures. Collective; a peer failure comes back
// as an error wrapping *comm.RankFailedError.
func (s *Simulation) Rebalance(assignment map[[3]int]int) error {
	me := s.Comm.Rank()
	ranks := s.Comm.Size()

	// Partition local blocks into kept and outgoing.
	var kept []*BlockData
	outgoing := map[int][]*BlockData{}
	for _, bd := range s.Blocks {
		newRank, ok := assignment[bd.Block.Coord]
		if !ok {
			return fmt.Errorf("sim: assignment misses local block %v", bd.Block.Coord)
		}
		if newRank < 0 || newRank >= ranks {
			return fmt.Errorf("sim: block %v assigned to invalid rank %d", bd.Block.Coord, newRank)
		}
		if newRank == me {
			kept = append(kept, bd)
		} else {
			outgoing[newRank] = append(outgoing[newRank], bd)
		}
	}

	// Announce per-destination counts (alltoall), then ship the blocks.
	counts := make([]any, ranks)
	for r := 0; r < ranks; r++ {
		counts[r] = len(outgoing[r])
	}
	incomingCounts, err := s.Comm.AlltoallErr(counts)
	if err != nil {
		return fmt.Errorf("sim: rebalance count exchange: %w", err)
	}
	for dst, blocks := range outgoing {
		for _, bd := range blocks {
			b := *bd.Block // copy; ranks inside are updated by the receiver
			if err := s.Comm.SendErr(dst, tagMigrateBlock, &migratedBlock{
				Block:    b,
				Workload: bd.Block.Workload,
				Layout:   bd.Src.Layout,
				SrcData:  bd.Src.Data(),
				DstData:  bd.Dst.Data(),
				Flags:    bd.Flags.Data(),
			}); err != nil {
				return fmt.Errorf("sim: rebalance send to rank %d: %w", dst, err)
			}
		}
	}
	expect := 0
	for r := 0; r < ranks; r++ {
		if r != me {
			n, ok := incomingCounts[r].(int)
			if !ok {
				return fmt.Errorf("sim: rebalance count from rank %d is %T", r, incomingCounts[r])
			}
			expect += n
		}
	}
	for i := 0; i < expect; i++ {
		payload, src, err := s.Comm.RecvErr(comm.AnySource, tagMigrateBlock)
		if err != nil {
			return fmt.Errorf("sim: rebalance receive: %w", err)
		}
		mb, ok := payload.(*migratedBlock)
		if !ok {
			return fmt.Errorf("sim: rebalance payload from rank %d is %T", src, payload)
		}
		bd, err := s.adoptBlock(mb)
		if err != nil {
			return err
		}
		kept = append(kept, bd)
	}

	// Update neighborhood ranks everywhere and rebuild the local indexes.
	sort.Slice(kept, func(i, j int) bool {
		return blockforest.MortonKey(kept[i].Block.Coord) < blockforest.MortonKey(kept[j].Block.Coord)
	})
	s.Blocks = kept
	s.byCoord = make(map[[3]int]*BlockData, len(kept))
	var forestBlocks []*blockforest.Block
	for _, bd := range kept {
		for i := range bd.Block.Neighbors {
			n := &bd.Block.Neighbors[i]
			newRank, ok := assignment[n.Coord]
			if !ok {
				return fmt.Errorf("sim: assignment misses neighbor block %v", n.Coord)
			}
			n.Rank = newRank
		}
		s.byCoord[bd.Block.Coord] = bd
		forestBlocks = append(forestBlocks, bd.Block)
	}
	s.Forest.Blocks = forestBlocks
	if err := s.rebuildPlan(true); err != nil {
		return err
	}
	// Migration invalidates ghost layers; synchronize before stepping on.
	return s.exchangeGhostLayers()
}

// adoptBlock reconstructs the runtime state of a migrated block on the
// receiving rank. The payload is the sender's raw field storage: kernel
// layout and allocation window are pure functions of (config, flags), so
// the fields assembled here have exactly the sender's shape.
func (s *Simulation) adoptBlock(mb *migratedBlock) (*BlockData, error) {
	b := mb.Block
	cells := b.Cells
	flags := field.NewFlagField(cells[0], cells[1], cells[2], 1)
	copy(flags.Data(), mb.Flags)
	bd, err := s.AssembleBlock(&b, flags, nil, nil)
	if err != nil {
		return nil, err
	}
	if n := len(bd.Src.Data()); mb.Layout != bd.Src.Layout || len(mb.SrcData) != n || len(mb.DstData) != n {
		return nil, fmt.Errorf("sim: migrated block %v arrives as %v fields of %d and %d values, its kernel runs %v fields of %d",
			b.Coord, mb.Layout, len(mb.SrcData), len(mb.DstData), bd.Src.Layout, n)
	}
	copy(bd.Src.Data(), mb.SrcData)
	copy(bd.Dst.Data(), mb.DstData)
	return bd, nil
}

// RankLoad reports this rank's current share of the global workload (sum
// of fluid cells) — a convenience for rebalancing studies.
func (s *Simulation) RankLoad() (local, max, total int64) {
	local = s.LocalFluidCells()
	max = s.Comm.AllreduceInt64(local, comm.Max[int64])
	total = s.Comm.AllreduceInt64(local, comm.Sum[int64])
	return local, max, total
}
