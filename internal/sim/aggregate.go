package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/telemetry"
)

// Rank-aggregated ghost exchange (ExchangeAggregated, the default wire
// format — see docs/EXCHANGE.md).
//
// At plan build time every remote boundary slab is entered into the
// manifest of its neighbor-rank channel with a precomputed offset into
// one contiguous aggregate buffer. Each step then packs all slabs bound
// for a rank directly into that rank's aggregate (pack tasks fan out over
// the worker pool, writing to disjoint sub-slices) and issues exactly ONE
// message per neighbor rank — O(neighbor ranks) messages per step instead
// of O(block pairs), the message aggregation of the SC13 framework.
//
// Both sides sort their manifest by the same canonical key — (Morton key
// of the SENDING block, offset index of the SENDING direction) — so the
// receiver's unpack windows line up with the sender's pack windows without
// any per-slab headers on the wire. The fixed manifest order also makes
// the pack byte-for-byte deterministic for every worker count, which the
// resilient rewind-and-replay driver depends on.
//
// Buffer ownership: the transport is eager and zero-copy (the receiver
// sees the sender's buffer), so a sender must not overwrite a buffer the
// receiver may still be unpacking. Each channel therefore owns TWO
// persistent aggregate send buffers used alternately (s.exParity). Rank A
// repacks a buffer at step N+2 only after completing step N+1, which
// required B's step-N+1 message, which B sent after finishing its step-N
// unpack of that very buffer — a happens-before chain that makes two
// buffers sufficient for any worker count. Receive delivery is zero-copy:
// the channel's inbox is the sender's aggregate, valid until the next
// exchange completes.

// tagAggregate is the single tag of all aggregated exchange traffic: one
// message per (sender, receiver, step), matched in step order by the
// per-(source, tag) FIFO of the transport. It lives above every legacy
// per-pair tag (tree*27+offset) and below the migration tags (1<<30).
const tagAggregate = 1 << 29

// slabOp is one manifest entry of a rank channel: a boundary slab of a
// local block with its precomputed window [off, off+n) into the channel's
// aggregate buffer.
type slabOp struct {
	bd     *BlockData
	dirs   []lattice.Direction
	reg    region
	off, n int
	// key is the canonical manifest order: (Morton key of the sending
	// block, offset index of the sending direction), computable by both
	// sides of the channel.
	key aggKey
}

type aggKey struct {
	block uint64
	off   int
}

func (a aggKey) less(b aggKey) bool {
	if a.block != b.block {
		return a.block < b.block
	}
	return a.off < b.off
}

// localOp is a same-rank boundary exchange ("fast local communication"):
// the source block's interior slab lands in the peer's ghost slab with no
// staging buffer. It is compiled at plan build into index runs over the
// two fields' raw storage, and holds only the ghost slots the DESTINATION
// block reads (see compileLocal and docs/EXCHANGE.md).
type localOp struct {
	src, dst *BlockData
	runs     []copyRun
	floats   int // values moved, the sum of the run lengths
}

// copyRun is one piece of a compiled local copy: reps rows of n contiguous
// values each, row r going from position src+r*srcStep of the source
// field's Data() to position dst+r*dstStep of the destination's. A dense
// face compiles to a handful of runs (one per direction, or per direction
// and z-layer where x is the normal and rows are single values); a masked
// one to runs of mostly one row. Positions survive the per-step Src/Dst
// swap, which exchanges storage between two identically shaped fields.
type copyRun struct {
	src, dst         int32
	n, reps          int32
	srcStep, dstStep int32
}

// shortRun is the row length below which a scalar loop beats the call
// into memmove.
const shortRun = 8

// exec performs the copy on the blocks' current Src fields.
func (l *localOp) exec() {
	src, dst := l.src.Src.Data(), l.dst.Src.Data()
	for _, r := range l.runs {
		sp, dp := r.src, r.dst
		for rep := int32(0); rep < r.reps; rep++ {
			if r.n < shortRun {
				for k := int32(0); k < r.n; k++ {
					dst[dp+k] = src[sp+k]
				}
			} else {
				copy(dst[dp:dp+r.n], src[sp:sp+r.n])
			}
			sp += r.srcStep
			dp += r.dstStep
		}
	}
}

// addRow appends the row of n values at source position sp and destination
// position dp to the runs of one copy, runs[first:]: a row contiguous with
// a single-row run lengthens it, a row of equal length continuing (or
// founding) the constant step of the last run becomes its next repetition.
func addRow(runs []copyRun, first, sp, dp, n int) []copyRun {
	if k := len(runs) - 1; k >= first {
		r := &runs[k]
		switch {
		case r.reps == 1 && int(r.src+r.n) == sp && int(r.dst+r.n) == dp:
			r.n += int32(n)
			return runs
		case int(r.n) != n:
		case r.reps == 1:
			r.reps, r.srcStep, r.dstStep = 2, int32(sp)-r.src, int32(dp)-r.dst
			return runs
		case int(r.src+r.reps*r.srcStep) == sp && int(r.dst+r.reps*r.dstStep) == dp:
			r.reps++
			return runs
		}
	}
	return append(runs, copyRun{src: int32(sp), dst: int32(dp), n: int32(n), reps: 1})
}

// compileLocal lowers the copy of src's interior slab srcReg into dst's
// ghost slab dstReg to index runs appended to runs, keeping only the slots
// dst reads: slot (g, d) survives iff the stream-pull of an interior fluid
// cell g+e_d of dst reads it and g is not a boundary cell, whose links
// boundary.Apply rewrites after the exchange anyway. The receiver's flags
// are authoritative — they are the ones its kernel and boundary sweep were
// built from. A destination whose interior is all fluid (the dense kernel
// path, which tests no flags) takes every slot, layer by layer for SoA,
// without evaluating the mask. A slot whose source cell lies outside src's
// allocation window is dropped as well: the source would deliver its fill
// value, the uniform initial equilibrium the destination slot has held
// since it was initialized. (A slot dst reads is always inside dst's own
// window, which holds its fluid cells' whole neighborhood.) Adjacent slots
// merge into rows and equidistant rows into one run (addRow). It returns
// the extended run list and the number of slots kept.
func compileLocal(runs []copyRun, src, dst *BlockData, srcReg, dstReg region, dirs []lattice.Direction) ([]copyRun, int) {
	sf, df := src.Src, dst.Src
	if sf.Stencil != df.Stencil || sf.Layout != df.Layout {
		panic("sim: local copy requires matching stencil and layout")
	}
	if len(sf.Data()) > math.MaxInt32 || len(df.Data()) > math.MaxInt32 {
		panic("sim: block too large for 32-bit copy runs")
	}
	st, flags := df.Stencil, dst.Flags
	dense := dst.Fluid == df.InteriorCells()
	sw, dw := sf.Window(), df.Window()
	srcStored := sw.Covers(field.Window{Lo: srcReg.lo, Hi: srcReg.hi})
	soa := sf.Layout == field.SoA
	xStride := st.Q // Data() distance of one step in x
	if soa {
		xStride = 1
	}
	first, kept := len(runs), 0
	nx, ny := srcReg.hi[0]-srcReg.lo[0], srcReg.hi[1]-srcReg.lo[1]
	_, srcRow, _ := sf.Strides()
	_, dstRow, _ := df.Strides()
	for _, d := range dirs {
		cx, cy, cz := st.Cx[d], st.Cy[d], st.Cz[d]
		for z := srcReg.lo[2]; z < srcReg.hi[2]; z++ {
			gz := dstReg.lo[2] + (z - srcReg.lo[2])
			if dense && soa && srcStored {
				// The whole z-layer at once: ny rows, one field row apart. A
				// single row goes through addRow, which folds the rows of
				// successive layers into one run.
				sp := sf.Index(srcReg.lo[0], srcReg.lo[1], z, d)
				dp := df.Index(dstReg.lo[0], dstReg.lo[1], gz, d)
				if ny == 1 {
					runs = addRow(runs, first, sp, dp, nx)
				} else {
					runs = append(runs, copyRun{src: int32(sp), dst: int32(dp), n: int32(nx),
						reps: int32(ny), srcStep: int32(srcRow), dstStep: int32(dstRow)})
				}
				kept += nx * ny
				continue
			}
			for y := srcReg.lo[1]; y < srcReg.hi[1]; y++ {
				gy := dstReg.lo[1] + (y - srcReg.lo[1])
				// Linear in x even where the row leaves a window; only slots
				// inside both windows are used.
				sp := sf.Index(srcReg.lo[0], y, z, d)
				dp := df.Index(dstReg.lo[0], gy, gz, d)
				for i := 0; i < nx; i++ {
					gx := dstReg.lo[0] + i
					if !dense {
						tx, ty, tz := gx+cx, gy+cy, gz+cz
						if tx < 0 || tx >= df.Nx || ty < 0 || ty >= df.Ny || tz < 0 || tz >= df.Nz ||
							flags.Get(tx, ty, tz) != field.Fluid || flags.Get(gx, gy, gz).IsBoundary() {
							continue
						}
					}
					if !srcStored && !sw.Contains(srcReg.lo[0]+i, y, z) || !dw.Contains(gx, gy, gz) {
						continue
					}
					runs = addRow(runs, first, sp+i*xStride, dp+i*xStride, 1)
					kept++
				}
			}
		}
	}
	return runs, kept
}

// rankChannel aggregates all traffic between this rank and one neighbor
// rank into a single message per step and direction.
type rankChannel struct {
	rank       int
	send       []slabOp
	recv       []slabOp
	sendFloats int
	recvFloats int
	// bufs are the two persistent aggregate send buffers, used alternately
	// (see the ownership comment above).
	bufs [2][]float64
	// req is the persistent receive request, re-posted every step.
	req comm.RecvRequest
	// inbox is the aggregate delivered for the current step (the sender's
	// buffer, zero-copy); cleared after unpack.
	inbox []float64
}

// packTask indexes one parallel pack-phase task: the local copies
// locals[slabIdx:end] (chIdx < 0) or a remote slab pack (channel chIdx,
// manifest entry slabIdx).
type packTask struct {
	chIdx   int
	slabIdx int
	end     int
}

// localTaskFloats is the volume at which a pack task of local copies is
// closed. A masked copy often moves a few dozen values — less than claiming
// a task and stamping its span costs — so small copies share a task, while
// a dense face of 16^2 cells or more still gets its own.
const localTaskFloats = 1024

// localCopyStats is the per-step volume of a plan's same-rank copies and
// what the receiver's need-mask removed from it.
type localCopyStats struct {
	floats       int // values moved
	copiesElided int // block pairs whose mask came out empty
	floatsElided int // values of the full slabs that are not moved
}

// aggBufPool recycles aggregate buffers across plan rebuilds, bounding
// allocation churn when block assignments change at runtime. Buffers may
// only be released when the rebuild trigger is collective among every
// rank whose zero-copy unpack read them (rebalancing). Failure-recovery
// rebuilds skip the release: the dead rank's last unpack never
// synchronizes with the survivors again, so repacking its input would be
// a data race. See rebuildPlan.
var aggBufPool sync.Pool

func aggGetBuf(n int) []float64 {
	if v := aggBufPool.Get(); v != nil {
		if b := v.([]float64); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

func aggPutBuf(b []float64) {
	if cap(b) > 0 {
		aggBufPool.Put(b[:0]) //nolint:staticcheck // slice header boxing only on rebuilds
	}
}

// buildAggregatePlan enumerates the boundary exchanges of all local
// blocks and groups the remote ones into per-neighbor-rank channels with
// canonically ordered manifests and precomputed buffer windows. Same-rank
// exchanges are compiled to index runs; the ones no fluid cell of the
// destination reads leave the plan.
func buildAggregatePlan(s *Simulation) (locals []localOp, channels []rankChannel, ls localCopyStats) {
	me := s.Comm.Rank()
	// All runs of the plan share one backing array; starts[i] is where the
	// runs of locals[i] begin, resolved to sub-slices once it stops growing.
	var runs []copyRun
	var starts []int
	byRank := make(map[int]int) // neighbor rank -> index into channels
	for _, bd := range s.Blocks {
		cells := bd.Block.Cells
		for _, n := range bd.Block.Neighbors {
			o := n.Offset
			sendDirs := commDirections(s.Stencil, o)
			if len(sendDirs) == 0 {
				continue // corner offsets carry no D3Q19 PDFs
			}
			ro := [3]int{-o[0], -o[1], -o[2]}
			if n.Rank == me {
				peer, ok := s.byCoord[n.Coord]
				if !ok {
					panic(fmt.Sprintf("sim: local neighbor %v missing", n.Coord))
				}
				srcReg := sendRegion(cells, o)
				first := len(runs)
				var kept int
				runs, kept = compileLocal(runs, bd, peer, srcReg, recvRegion(peer.Block.Cells, ro), sendDirs)
				ls.floats += kept
				ls.floatsElided += len(sendDirs)*srcReg.cells() - kept
				if kept == 0 {
					ls.copiesElided++
					continue
				}
				locals = append(locals, localOp{src: bd, dst: peer, floats: kept})
				starts = append(starts, first)
				continue
			}
			ci, ok := byRank[n.Rank]
			if !ok {
				ci = len(channels)
				byRank[n.Rank] = ci
				channels = append(channels, rankChannel{rank: n.Rank})
			}
			ch := &channels[ci]
			// Send entry: we are the sender — key by our block and offset.
			ch.send = append(ch.send, slabOp{
				bd:   bd,
				dirs: sendDirs,
				reg:  sendRegion(cells, o),
				key:  aggKey{blockforest.MortonKey(bd.Block.Coord), offsetIndex(o)},
			})
			// Receive entry: the NEIGHBOR is the sender — key by its block
			// and its sending offset (the reverse of ours), so both sides
			// order the manifest identically.
			ch.recv = append(ch.recv, slabOp{
				bd:   bd,
				dirs: commDirections(s.Stencil, ro),
				reg:  recvRegion(cells, o),
				key:  aggKey{blockforest.MortonKey(n.Coord), offsetIndex(ro)},
			})
		}
	}
	starts = append(starts, len(runs))
	for i := range locals {
		locals[i].runs = runs[starts[i]:starts[i+1]]
	}
	// Deterministic channel order (ascending neighbor rank) and canonical
	// manifest order within each channel.
	sort.Slice(channels, func(i, j int) bool { return channels[i].rank < channels[j].rank })
	for i := range channels {
		ch := &channels[i]
		sort.Slice(ch.send, func(a, b int) bool { return ch.send[a].key.less(ch.send[b].key) })
		sort.Slice(ch.recv, func(a, b int) bool { return ch.recv[a].key.less(ch.recv[b].key) })
		off := 0
		for k := range ch.send {
			sl := &ch.send[k]
			sl.off, sl.n = off, len(sl.dirs)*sl.reg.cells()
			off += sl.n
		}
		ch.sendFloats = off
		off = 0
		for k := range ch.recv {
			sl := &ch.recv[k]
			sl.off, sl.n = off, len(sl.dirs)*sl.reg.cells()
			off += sl.n
		}
		ch.recvFloats = off
		ch.bufs[0] = aggGetBuf(ch.sendFloats)
		ch.bufs[1] = aggGetBuf(ch.sendFloats)
	}
	return locals, channels, ls
}

// releaseAggregateBuffers returns the channels' persistent buffers to the
// pool before a plan rebuild discards them.
func releaseAggregateBuffers(channels []rankChannel) {
	for i := range channels {
		aggPutBuf(channels[i].bufs[0])
		aggPutBuf(channels[i].bufs[1])
	}
}

// postExchangeAggregated starts one aggregated ghost layer
// synchronization: local copies and remote slab packs fan out over the
// worker pool (each task writes a disjoint ghost slab or a disjoint
// aggregate sub-slice), then exactly one message per neighbor rank is
// sent from the step's aggregate buffer and one receive per neighbor
// rank is posted. Steady-state, the whole phase performs zero heap
// allocations.
func (s *Simulation) postExchangeAggregated() error {
	s.pool.run(len(s.packTasks), s.packFn)
	p := s.exParity
	for i := range s.channels {
		ch := &s.channels[i]
		if err := s.Comm.SendFloat64s(ch.rank, tagAggregate, ch.bufs[p]); err != nil {
			return err
		}
	}
	for i := range s.channels {
		ch := &s.channels[i]
		s.Comm.IrecvInit(&ch.req, ch.rank, tagAggregate)
	}
	s.exParity ^= 1
	return nil
}

// completeExchangeAggregated waits for each neighbor rank's aggregate and
// unpacks all slabs by manifest on the worker pool.
func (s *Simulation) completeExchangeAggregated() error {
	for i := range s.channels {
		ch := &s.channels[i]
		buf, _, err := ch.req.WaitFloat64s()
		if err != nil {
			return err
		}
		if len(buf) != ch.recvFloats {
			panic(fmt.Sprintf("sim: rank %d received %d floats from rank %d, manifest expects %d",
				s.Comm.Rank(), len(buf), ch.rank, ch.recvFloats))
		}
		ch.inbox = buf
	}
	s.pool.run(len(s.unpackTasks), s.unpackFn)
	for i := range s.channels {
		s.channels[i].inbox = nil // the sender reclaims it two steps on
	}
	return nil
}

// buildExchangeClosures precomputes the flattened task lists and the pool
// closures of the aggregated exchange, so postExchange/completeExchange
// allocate nothing per step (a fresh closure per pool.run call would
// escape to the heap).
func (s *Simulation) buildExchangeClosures() {
	s.packTasks = s.packTasks[:0]
	first, vol := 0, 0
	for li := range s.locals {
		vol += s.locals[li].floats
		if vol >= localTaskFloats || li == len(s.locals)-1 {
			s.packTasks = append(s.packTasks, packTask{chIdx: -1, slabIdx: first, end: li + 1})
			first, vol = li+1, 0
		}
	}
	s.unpackTasks = s.unpackTasks[:0]
	for ci := range s.channels {
		for si := range s.channels[ci].send {
			s.packTasks = append(s.packTasks, packTask{chIdx: ci, slabIdx: si})
		}
		for si := range s.channels[ci].recv {
			s.unpackTasks = append(s.unpackTasks, packTask{chIdx: ci, slabIdx: si})
		}
	}
	s.packFn = func(worker, i int) {
		t := s.packTasks[i]
		lane := s.tel.worker(worker)
		start := lane.Start()
		if t.chIdx < 0 {
			for li := t.slabIdx; li < t.end; li++ {
				s.locals[li].exec()
			}
			lane.Span(telemetry.PhaseLocalCopy, s.steps, int32(i), start)
			return
		}
		ch := &s.channels[t.chIdx]
		sl := &ch.send[t.slabIdx]
		buf := ch.bufs[s.exParity][sl.off : sl.off+sl.n]
		if n := sl.bd.Src.PackRegion(buf, sl.reg.lo, sl.reg.hi, sl.dirs); n != sl.n {
			panic(fmt.Sprintf("sim: packed %d of %d values", n, sl.n))
		}
		lane.Span(telemetry.PhasePack, s.steps, int32(i), start)
	}
	s.unpackFn = func(worker, i int) {
		t := s.unpackTasks[i]
		lane := s.tel.worker(worker)
		start := lane.Start()
		ch := &s.channels[t.chIdx]
		sl := &ch.recv[t.slabIdx]
		buf := ch.inbox[sl.off : sl.off+sl.n]
		if n := sl.bd.Src.UnpackRegion(buf, sl.reg.lo, sl.reg.hi, sl.dirs); n != sl.n {
			panic(fmt.Sprintf("sim: unpacked %d of %d values", n, sl.n))
		}
		lane.Span(telemetry.PhaseUnpack, s.steps, int32(i), start)
	}
}
