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
// ("This will also require dynamic load balancing") — is one routine of
// the data plane, run the way Schornbaum–Rüde and waLBerla run static,
// dynamic and post-regrade balancing: weigh, cut, migrate. Every leaf
// weighs what the one weight list says (Assign), the canonical leaf list
// is cut by the one rule (blockforest.AssignContiguous), and the blocks
// migrate the way every block changes hands: the ranks agree on the
// assignment (resilience.Agree), each destination gets one WBK2 rank file
// of records (Ship) and every rank lands what it holds (Land). Step runs
// the balance every Config.RebalanceEvery steps; a refined world's regrade
// assigns its graded leaves through Assign too.

// Weight is one leaf's load as the balance reads it. Static is its fluid
// cells times the 2^level sub-steps a coarse step gives it; Measured is
// its kernel time in nanoseconds since the block set last changed (Commit
// restarts it), 0 before its first sweep.
type Weight struct{ Static, Measured int64 }

// Weight is the block's load (Weight).
func (bd *BlockData) Weight() Weight {
	return Weight{Static: int64(bd.Fluid) << bd.Block.ID.Level, Measured: int64(bd.ComputeTime)}
}

// Gather allgathers the n leaves of this rank — leaf(i) is the i-th's
// identity, weight and one word more — and returns the world's leaves in
// canonical order with their owners as Rank, their weights and words.
// Collective: the gather of the balance, of a regrade (whose word is the
// leaf's mark) and of a landing (Land).
func (s *Simulation) Gather(n int, leaf func(i int) (blockforest.BlockID, Weight, int64)) ([]blockforest.Leaf, []Weight, []int64, error) {
	local := make([]int64, 0, 6*n)
	for i := range n {
		id, w, x := leaf(i)
		local = append(local, int64(id.Tree), int64(id.Path), int64(id.Level), w.Static, w.Measured, x)
	}
	gathered, err := s.Comm.AllgatherErr(local)
	if err != nil {
		return nil, nil, nil, err
	}
	n = 0
	for _, part := range gathered {
		v, _ := part.([]int64)
		n += len(v) / 6
	}
	g, grid := leafLists{make([]blockforest.Leaf, 0, n), make([]Weight, 0, n), make([]int64, 0, n)}, s.Forest.GridSize
	for rank, part := range gathered {
		for v, _ := part.([]int64); len(v) >= 6; v = v[6:] {
			id, t := blockforest.BlockID{Tree: uint32(v[0]), Path: uint64(v[1]), Level: uint8(v[2])}, int(v[0])
			coord := [3]int{t % grid[0], t / grid[0] % grid[1], t / (grid[0] * grid[1])} // of its root tree
			g.ls = append(g.ls, blockforest.Leaf{ID: id, Coord: coord, Rank: rank})
			g.w = append(g.w, Weight{Static: v[3], Measured: v[4]})
			g.x = append(g.x, v[5])
		}
	}
	sort.Sort(g)
	return g.ls, g.w, g.x, nil
}

// leafLists sorts Gather's parallel lists by the leaves' canonical order.
type leafLists struct {
	ls []blockforest.Leaf
	w  []Weight
	x  []int64
}

func (g leafLists) Len() int { return len(g.ls) }
func (g leafLists) Less(i, j int) bool {
	return blockforest.CanonicalLess(g.ls[i].Coord, g.ls[i].ID, g.ls[j].Coord, g.ls[j].ID)
}
func (g leafLists) Swap(i, j int) {
	g.ls[i], g.ls[j] = g.ls[j], g.ls[i]
	g.w[i], g.w[j] = g.w[j], g.w[i]
	g.x[i], g.x[j] = g.x[j], g.x[i]
}

// Assign returns the owners of the n leaves of a leaf set in canonical
// order, leaf i weighing weight(i), by the one cut over the one weight
// list: every leaf weighs its measured time when the world rebalances
// (Config.RebalanceEvery > 0) and every leaf has a measurement, else every
// leaf its static weight. Never a mix: a leaf without time would weigh
// its fluid count, thousands of times another's nanoseconds, or nothing.
func (s *Simulation) Assign(n int, weight func(i int) Weight) []int {
	loads := make([]float64, n)
	timed := s.Config.RebalanceEvery > 0
	for i := 0; timed && i < n; i++ {
		m := weight(i).Measured
		loads[i], timed = float64(m), m > 0
	}
	if !timed {
		for i := range loads {
			loads[i] = float64(weight(i).Static)
		}
	}
	return blockforest.AssignContiguous(loads, s.Comm.Size())
}

// balance is Step's periodic balance: every rank gathers the world's
// leaves (Gather) and cuts them alike (Assign), and the blocks migrate to
// their new owners (Rebalance). A cut that keeps every owner moves nothing
// and restarts nothing: every block's time still counts from the same
// Commit. Collective, with Rebalance's failure semantics.
func (s *Simulation) balance() error {
	ls, w, _, err := s.Gather(len(s.Blocks), func(i int) (blockforest.BlockID, Weight, int64) {
		return s.Blocks[i].Block.ID, s.Blocks[i].Weight(), 0
	})
	if err != nil {
		return fmt.Errorf("sim: balance allgather: %w", err)
	}
	assignment := make(map[blockforest.BlockID]int, len(ls))
	moved := false
	for i, r := range s.Assign(len(ls), func(i int) Weight { return w[i] }) {
		assignment[ls[i].ID] = r
		moved = moved || r != ls[i].Rank
	}
	if !moved {
		return nil
	}
	return s.Rebalance(assignment)
}

// Rebalance migrates blocks to match the given complete assignment (the
// leaf identity of every block of the world to its new rank) and lands
// them (Land). Collective. Every rank checks that the assignment gives
// each of its blocks a rank of this world before anything moves, and the
// ranks agree on the verdict: a rejected assignment errors on every rank
// and changes no world. A peer failure comes back wrapping
// *comm.RankFailedError: while blocks are in flight it leaves this rank's
// world as it was, during the exchange plan's rebuild unusable.
func (s *Simulation) Rebalance(assignment map[blockforest.BlockID]int) error {
	me, ranks := s.Comm.Rank(), s.Comm.Size()
	outgoing := make([][]*BlockData, ranks)
	var err error
	for _, bd := range s.Blocks {
		r, ok := assignment[bd.Block.ID]
		if !ok || r < 0 || r >= ranks {
			err = fmt.Errorf("sim: assignment gives local block %v no rank of %d", bd.Block.ID, ranks)
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
	return s.Land(s.Comm, append(records(outgoing[me]), gained...))
}

// RankLoad reports this rank's current share of the global workload (sum
// of fluid cells) — a convenience for rebalancing studies.
func (s *Simulation) RankLoad() (local, max, total int64) {
	local = s.LocalFluidCells()
	max = s.Comm.AllreduceInt64(local, comm.Max[int64])
	total = s.Comm.AllreduceInt64(local, comm.Sum[int64])
	return local, max, total
}
