package sim

import (
	"fmt"
	"sync"

	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Ghost layer exchange. For every pair of neighboring blocks only the PDFs
// that actually stream across the shared boundary are communicated: five
// directions per face and one per edge for D3Q19 (corner offsets carry no
// D3Q19 PDFs and are skipped entirely) — waLBerla's reduced-message
// optimization. Blocks on the same rank copy directly ("fast local
// communication"); remote blocks exchange messages.
//
// The exchange is split-phase so the time loop can overlap it with
// computation: postExchange packs and sends all boundary slabs (pack and
// local copies run on the worker pool) and posts the remote receives;
// completeExchange waits for the remote slabs and unpacks them. Interior
// sweeps run between the two halves while remote data is in flight.
//
// Two wire formats exist, ending in bit-identical fluid state (see
// docs/EXCHANGE.md). Only tests set Config.Exchange:
//
//   - ExchangeAggregated (default, aggregate.go): all slabs bound for the
//     same neighbor rank travel in ONE message per step, packed by a
//     fixed manifest into persistent double-buffered aggregate buffers —
//     O(neighbor ranks) messages per step and zero steady-state heap
//     allocations.
//   - ExchangePerPair (this file): the legacy one-message-per-block-pair
//     path with per-step pack buffers and full slabs — the differential
//     oracle the aggregated plan is tested against.

// ExchangeMode selects the ghost exchange wire format.
type ExchangeMode int

const (
	// ExchangeAggregated sends one aggregated message per neighbor rank
	// per step from persistent pooled buffers (the default).
	ExchangeAggregated ExchangeMode = iota
	// ExchangePerPair sends one message per neighboring block pair per
	// step, allocating a fresh pack buffer per message — the
	// pre-aggregation wire format.
	ExchangePerPair
)

func (m ExchangeMode) String() string {
	switch m {
	case ExchangeAggregated:
		return "aggregated"
	case ExchangePerPair:
		return "per-pair"
	}
	return fmt.Sprintf("ExchangeMode(%d)", int(m))
}

// offsetIndex maps an offset in {-1,0,1}^3 to 0..26.
func offsetIndex(o [3]int) int {
	return (o[0] + 1) + 3*(o[1]+1) + 9*(o[2]+1)
}

// commTables caches, per stencil, the offset→crossing-directions table:
// entry offsetIndex(o) lists the stencil directions whose velocity crosses
// a block boundary with offset o. Computed once per stencil and shared by
// every plan build and test — callers must not mutate the slices.
var commTables sync.Map // *lattice.Stencil -> *[27][]lattice.Direction

func commTable(st *lattice.Stencil) *[27][]lattice.Direction {
	if t, ok := commTables.Load(st); ok {
		return t.(*[27][]lattice.Direction)
	}
	var t [27][]lattice.Direction
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				o := [3]int{dx, dy, dz}
				if o == [3]int{} {
					continue
				}
				var dirs []lattice.Direction
				for a := 0; a < st.Q; a++ {
					if st.Cx[a] == 0 && st.Cy[a] == 0 && st.Cz[a] == 0 {
						continue
					}
					if (o[0] != 0 && st.Cx[a] != o[0]) ||
						(o[1] != 0 && st.Cy[a] != o[1]) ||
						(o[2] != 0 && st.Cz[a] != o[2]) {
						continue
					}
					dirs = append(dirs, lattice.Direction(a))
				}
				t[offsetIndex(o)] = dirs
			}
		}
	}
	actual, _ := commTables.LoadOrStore(st, &t)
	return actual.(*[27][]lattice.Direction)
}

// commDirections returns the stencil directions whose velocity crosses a
// block boundary with the given offset: every non-zero offset axis must
// match the velocity component. The result is a shared precomputed table
// entry; callers must not modify it.
func commDirections(st *lattice.Stencil, o [3]int) []lattice.Direction {
	return commTable(st)[offsetIndex(o)]
}

// region is a half-open box of cell coordinates.
type region struct {
	lo, hi [3]int
}

func (r region) cells() int {
	return (r.hi[0] - r.lo[0]) * (r.hi[1] - r.lo[1]) * (r.hi[2] - r.lo[2])
}

// sendRegion is the interior slab packed for a neighbor at offset o.
func sendRegion(cells [3]int, o [3]int) region {
	var r region
	for d := 0; d < 3; d++ {
		switch o[d] {
		case 1:
			r.lo[d], r.hi[d] = cells[d]-1, cells[d]
		case -1:
			r.lo[d], r.hi[d] = 0, 1
		default:
			r.lo[d], r.hi[d] = 0, cells[d]
		}
	}
	return r
}

// recvRegion is the ghost slab filled from the neighbor at offset o.
func recvRegion(cells [3]int, o [3]int) region {
	var r region
	for d := 0; d < 3; d++ {
		switch o[d] {
		case 1:
			r.lo[d], r.hi[d] = cells[d], cells[d]+1
		case -1:
			r.lo[d], r.hi[d] = -1, 0
		default:
			r.lo[d], r.hi[d] = 0, cells[d]
		}
	}
	return r
}

// postExchange starts one ghost layer synchronization of the Src fields in
// the configured wire format; completeExchange finishes it. Interior
// blocks may be swept between the two halves; the packed slabs are taken
// before any sweep, so the overlap is bit-identical to a fully synchronous
// exchange.
func (s *Simulation) postExchange() error {
	if s.Config.Exchange == ExchangePerPair {
		return s.postExchangePairs()
	}
	return s.postExchangeAggregated()
}

// completeExchange finishes the synchronization started by postExchange.
// A typed *comm.RankFailedError is returned when a peer has been declared
// dead mid-exchange instead of deadlocking or panicking.
func (s *Simulation) completeExchange() error {
	if s.Config.Exchange == ExchangePerPair {
		return s.completeExchangePairs()
	}
	return s.completeExchangeAggregated()
}

// exchangeGhostLayers performs one full, non-overlapped ghost layer
// synchronization (post immediately followed by complete) — used outside
// the time loop, e.g. after block migration.
func (s *Simulation) exchangeGhostLayers() error {
	if err := s.postExchange(); err != nil {
		return err
	}
	return s.completeExchange()
}

// ---------------------------------------------------------------------
// Legacy per-block-pair wire format (ExchangePerPair).

// exchangeOp is one precomputed boundary exchange of a local block.
type exchangeOp struct {
	bd       *BlockData
	offset   [3]int // toward the neighbor
	sendDirs []lattice.Direction
	recvDirs []lattice.Direction
	src      region // interior slab to pack
	dst      region // ghost slab to unpack
	remote   bool
	rank     int        // neighbor rank if remote
	peer     *BlockData // neighbor block if local
	sendTag  int        // tag on the neighbor's side for our data
	recvTag  int        // tag identifying data arriving for this op
	buf      []float64  // per-step pack/unpack scratch
}

// recvOp pairs a posted remote receive with its unpack destination.
type recvOp struct {
	op  *exchangeOp
	req *comm.RecvRequest
}

// tagFor builds the message tag for (receiving block, boundary offset of
// the receiver). User tags must be non-negative.
func tagFor(tree uint32, offIdx int) int { return int(tree)*27 + offIdx }

// buildExchangePlan enumerates, for each local block, the boundary
// exchanges with all its neighbors.
func buildExchangePlan(s *Simulation) []exchangeOp {
	var plan []exchangeOp
	for _, bd := range s.Blocks {
		cells := bd.Block.Cells
		for _, n := range bd.Block.Neighbors {
			o := n.Offset
			sendDirs := commDirections(s.Stencil, o)
			if len(sendDirs) == 0 {
				continue // corner offsets carry no D3Q19 PDFs
			}
			ro := [3]int{-o[0], -o[1], -o[2]}
			op := exchangeOp{
				bd:       bd,
				offset:   o,
				sendDirs: sendDirs,
				recvDirs: commDirections(s.Stencil, ro),
				src:      sendRegion(cells, o),
				dst:      recvRegion(cells, o),
				sendTag:  tagFor(n.ID.Tree, offsetIndex(ro)),
				recvTag:  tagFor(bd.Block.ID.Tree, offsetIndex(o)),
			}
			if n.Rank == s.Comm.Rank() {
				peer, ok := s.byCoord[n.Coord]
				if !ok {
					panic(fmt.Sprintf("sim: local neighbor %v missing", n.Coord))
				}
				op.peer = peer
			} else {
				op.remote = true
				op.rank = n.Rank
			}
			plan = append(plan, op)
		}
	}
	return plan
}

// pack serializes the PDFs of the given directions over the region in
// deterministic (dir-major, then z, y, x) order.
func pack(f *field.PDFField, r region, dirs []lattice.Direction) []float64 {
	buf := make([]float64, len(dirs)*r.cells())
	f.PackRegion(buf, r.lo, r.hi, dirs)
	return buf
}

// unpack reverses pack into the region.
func unpack(f *field.PDFField, r region, dirs []lattice.Direction, buf []float64) {
	if n := f.UnpackRegion(buf, r.lo, r.hi, dirs); n != len(buf) {
		panic(fmt.Sprintf("sim: unpacked %d of %d values", n, len(buf)))
	}
}

// postExchangePairs starts one per-block-pair ghost layer synchronization:
// all boundary slabs are packed on the worker pool (same-rank copies land
// in the peer's ghost region immediately — "fast local communication"),
// the remote slabs are sent (eager, so this cannot deadlock), and one
// receive per remote op is posted.
//
// The parallel pack/copy phase is race-free by region disjointness: packs
// read interior slabs, copies write ghost slabs, and two copies into the
// same block target different offsets, hence disjoint ghost slabs.
func (s *Simulation) postExchangePairs() error {
	s.pool.run(len(s.plan), func(_, i int) {
		op := &s.plan[i]
		op.buf = pack(op.bd.Src, op.src, op.sendDirs)
		if op.peer != nil {
			// Local copy: our slab lands in the peer's ghost region on the
			// opposite side.
			peerDst := recvRegion(op.peer.Block.Cells, [3]int{-op.offset[0], -op.offset[1], -op.offset[2]})
			unpack(op.peer.Src, peerDst, op.sendDirs, op.buf)
			op.buf = nil
		}
	})
	for i := range s.plan {
		op := &s.plan[i]
		if !op.remote {
			continue
		}
		buf := op.buf
		op.buf = nil
		if err := s.Comm.SendFloat64s(op.rank, op.sendTag, buf); err != nil {
			return err
		}
	}
	s.pending = s.pending[:0]
	for i := range s.plan {
		op := &s.plan[i]
		if op.remote {
			s.pending = append(s.pending, recvOp{op: op, req: s.Comm.Irecv(op.rank, op.recvTag)})
		}
	}
	return nil
}

// completeExchangePairs waits for every posted per-pair receive and
// unpacks the slabs into the frontier blocks' ghost layers on the worker
// pool.
func (s *Simulation) completeExchangePairs() error {
	for i := range s.pending {
		p := &s.pending[i]
		buf, _, err := p.req.WaitFloat64s()
		if err != nil {
			return err
		}
		p.op.buf = buf
	}
	s.pool.run(len(s.pending), func(_, i int) {
		op := s.pending[i].op
		unpack(op.bd.Src, op.dst, op.recvDirs, op.buf)
		op.buf = nil
	})
	s.pending = s.pending[:0]
	return nil
}
