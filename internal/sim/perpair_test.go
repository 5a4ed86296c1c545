package sim

import (
	"fmt"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// The legacy per-block-pair wire format, kept as the tests' differential
// oracle: one message per neighboring block pair per step, per-step pack
// buffers and whole slabs, local copies included. The aggregated plans of
// production must end on its field hash and on every interior PDF
// (aggregate_test.go, worlds_test.go, layout_test.go, hybrid_test.go,
// stencil_test.go).

// ExchangeMode selects the ghost exchange wire format of a test world.
type ExchangeMode int

const (
	// ExchangeAggregated is production's exchange.
	ExchangeAggregated ExchangeMode = iota
	// ExchangePerPair sends one message per neighboring block pair per
	// step, allocating a fresh pack buffer per message.
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

// newWithExchange is New with the ghost exchange wire format chosen by
// hand.
func newWithExchange(c *comm.Comm, forest *blockforest.BlockForest, cfg Config, mode ExchangeMode) (*Simulation, error) {
	s, err := New(c, forest, cfg)
	if err != nil || mode == ExchangeAggregated {
		return s, err
	}
	s.exchange = &perPair{}
	if err := s.rebuildPlan(); err != nil {
		return nil, err
	}
	return s, nil
}

// pairOps returns the op list of a per-pair world.
func pairOps(s *Simulation) []exchangeOp { return s.exchange.(*perPair).plan }

// perPair is the per-pair exchanger. It serves uniform worlds, level 0
// only, and ignores the level its post and complete are given.
type perPair struct {
	plan    []exchangeOp
	pending []recvOp
}

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

// build enumerates, for each local block, the boundary exchanges with all
// its neighbors.
func (pp *perPair) build(s *Simulation) (map[*BlockData]bool, error) {
	pp.plan = nil
	remote := make(map[*BlockData]bool)
	byCoord := make(map[[3]int]*BlockData, len(s.Blocks))
	for _, bd := range s.Blocks {
		byCoord[bd.Block.Coord] = bd
	}
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
				peer, ok := byCoord[n.Coord]
				if !ok {
					panic(fmt.Sprintf("sim: local neighbor %v missing", n.Coord))
				}
				op.peer = peer
			} else {
				op.remote = true
				op.rank = n.Rank
				remote[bd] = true
			}
			pp.plan = append(pp.plan, op)
		}
	}
	return remote, nil
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

// post starts one per-block-pair ghost layer synchronization: all boundary
// slabs are packed (same-rank copies land in the peer's ghost region
// immediately), the remote slabs are sent (eager, so this cannot
// deadlock), and one receive per remote op is posted.
//
// The oracle packs, copies and unpacks whole slabs one after another, on
// the rank's own goroutine: in a rank's arena a copy between two members writes the
// cells it reads, and slabs into two members' ghost layers meet at the
// junctions (docs/EXCHANGE.md, "Rank arenas") — the same values, but
// concurrent writes all the same.
func (pp *perPair) post(s *Simulation, _ int) error {
	for i := range pp.plan {
		op := &pp.plan[i]
		op.buf = pack(op.bd.Src, op.src, op.sendDirs)
		if op.peer != nil {
			// Local copy: our slab lands in the peer's ghost region on the
			// opposite side.
			peerDst := recvRegion(op.peer.Block.Cells, [3]int{-op.offset[0], -op.offset[1], -op.offset[2]})
			unpack(op.peer.Src, peerDst, op.sendDirs, op.buf)
			op.buf = nil
		}
	}
	for i := range pp.plan {
		op := &pp.plan[i]
		if !op.remote {
			continue
		}
		buf := op.buf
		op.buf = nil
		if err := s.Comm.SendFloat64s(op.rank, op.sendTag, buf); err != nil {
			return err
		}
	}
	pp.pending = pp.pending[:0]
	for i := range pp.plan {
		op := &pp.plan[i]
		if op.remote {
			pp.pending = append(pp.pending, recvOp{op: op, req: s.Comm.Irecv(op.rank, op.recvTag)})
		}
	}
	return nil
}

// complete waits for every posted per-pair receive and unpacks the slabs
// into the frontier blocks' ghost layers.
func (pp *perPair) complete(s *Simulation, _ int) error {
	for i := range pp.pending {
		p := &pp.pending[i]
		buf, _, err := p.req.WaitFloat64s()
		if err != nil {
			return err
		}
		p.op.buf = buf
	}
	for i := range pp.pending {
		op := pp.pending[i].op
		unpack(op.bd.Src, op.dst, op.recvDirs, op.buf)
		op.buf = nil
	}
	pp.pending = pp.pending[:0]
	return nil
}

// stats counts every op as a message or a full-slab copy.
func (pp *perPair) stats(*Simulation) ExchangeStats {
	var st ExchangeStats
	ranks := make(map[int]bool)
	for i := range pp.plan {
		op := &pp.plan[i]
		if !op.remote {
			st.LocalCopies++
			st.LocalFloats += len(op.sendDirs) * op.src.cells()
			continue
		}
		ranks[op.rank] = true
		st.RemoteSlabs++
		st.SendFloats += len(op.sendDirs) * op.src.cells()
		st.RecvFloats += len(op.recvDirs) * op.dst.cells()
	}
	st.NeighborRanks = len(ranks)
	st.MessagesPerStep = st.RemoteSlabs
	return st
}
