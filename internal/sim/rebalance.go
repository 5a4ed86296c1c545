package sim

import (
	"fmt"
	"sort"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/output"
	"walberla/internal/resilience"
)

// Dynamic load balancing — the extension the paper names as future work
// ("This will also require dynamic load balancing"). Blocks migrate the
// way every block changes hands: the ranks agree on the assignment
// (resilience.Agree), each destination gets one WBK2 rank file of
// records (both PDF fields, as a buddy replica) and nothing else (Ship,
// which a refined world's migration uses too), and every rank then lands
// the records it holds as a restore does (Land): it rebuilds its
// neighbourhoods from the allgathered leaf set and builds the blocks it
// gained. Assignments cut the Morton curve by static (fluid cells) or
// measured (compute time) loads.

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

// RebalanceByWorkload migrates blocks to a fresh Morton-curve assignment
// of the current workloads (measured compute times when useMeasured is
// set). Collective, with Rebalance's failure semantics. The tables cross
// the wire as numbers: rank 0 gathers x, y, z and workload per block and
// broadcasts x, y, z and new rank per block; a table that does not parse
// yields an incomplete assignment, which every rank rejects alike.
func (s *Simulation) RebalanceByWorkload(useMeasured bool) error {
	var mine []float64
	for c, w := range s.Workloads(useMeasured) {
		mine = append(mine, float64(c[0]), float64(c[1]), float64(c[2]), w)
	}
	gathered, err := s.Comm.GatherErr(0, mine)
	if err != nil {
		return fmt.Errorf("sim: rebalance workload gather: %w", err)
	}
	var table []int64
	if s.Comm.Rank() == 0 {
		var all [][4]float64 // x, y, z, workload
		for _, part := range gathered {
			vals, _ := part.([]float64)
			for i := 0; i+4 <= len(vals); i += 4 {
				all = append(all, [4]float64(vals[i:i+4]))
			}
		}
		key := func(e [4]float64) uint64 { return blockforest.MortonKey([3]int{int(e[0]), int(e[1]), int(e[2])}) }
		sort.Slice(all, func(i, j int) bool { return key(all[i]) < key(all[j]) })
		var total float64
		for _, e := range all {
			total += e[3]
		}
		ranks := s.Comm.Size()
		target := total / float64(ranks)
		rank, count, acc := 0, 0, 0.0
		for _, e := range all {
			// Cut to the next rank when the block's midpoint crosses the
			// per-rank target (never leaving a rank empty while blocks
			// remain): robust against skewed measured workloads, where
			// waiting for acc >= target piles everything on rank 0. This
			// is not blockforest.AssignContiguous's rule on purpose.
			if rank < ranks-1 && count > 0 && acc+e[3]/2 >= target {
				rank, count, acc = rank+1, 0, 0
			}
			table = append(table, int64(e[0]), int64(e[1]), int64(e[2]), int64(rank))
			acc += e[3]
			count++
		}
	}
	v, err := s.Comm.BcastErr(0, table)
	if err != nil {
		return fmt.Errorf("sim: rebalance assignment broadcast: %w", err)
	}
	table, _ = v.([]int64)
	assignment := make(map[[3]int]int, len(table)/4)
	for i := 0; i+4 <= len(table); i += 4 {
		assignment[[3]int{int(table[i]), int(table[i+1]), int(table[i+2])}] = int(table[i+3])
	}
	return s.Rebalance(assignment)
}

// Rebalance migrates blocks to match the given complete assignment
// (coordinate of every block in the simulation to its new rank) and
// rebuilds the local data structures. Collective. Every rank checks that
// the assignment gives each of its blocks a rank of this world before
// anything moves, and the ranks agree on the verdict: a rejected
// assignment errors on every rank and changes no world. A peer failure
// comes back wrapping *comm.RankFailedError: while blocks are in flight
// it leaves this rank's world as it was, during the exchange plan's
// rebuild unusable.
func (s *Simulation) Rebalance(assignment map[[3]int]int) error {
	me, ranks := s.Comm.Rank(), s.Comm.Size()
	outgoing := make([][]*BlockData, ranks)
	var err error
	for _, bd := range s.Blocks {
		r, ok := assignment[bd.Block.Coord]
		if !ok || r < 0 || r >= ranks {
			err = fmt.Errorf("sim: assignment gives local block %v no rank of %d", bd.Block.Coord, ranks)
			break
		}
		outgoing[r] = append(outgoing[r], bd)
	}
	if err := resilience.Agree(s.Comm, err); err != nil {
		return err
	}
	// Every other rank gets the blocks it gains, possibly none.
	out := make(map[int][]output.LeafSnapshot, ranks)
	var from []int
	for r := range ranks {
		if r != me {
			out[r] = records(outgoing[r])
			from = append(from, r)
		}
	}
	gained, err := s.Ship(out, from)
	if err != nil {
		return fmt.Errorf("sim: rebalance: %w", err)
	}
	if err := s.Land(s.Comm, append(records(outgoing[me]), gained...)); err != nil {
		return err
	}
	// Migration invalidates ghost layers; synchronize before stepping on.
	return s.exchangeGhostLayers()
}

// RankLoad reports this rank's current share of the global workload (sum
// of fluid cells) — a convenience for rebalancing studies.
func (s *Simulation) RankLoad() (local, max, total int64) {
	local = s.LocalFluidCells()
	max = s.Comm.AllreduceInt64(local, comm.Max[int64])
	total = s.Comm.AllreduceInt64(local, comm.Sum[int64])
	return local, max, total
}
