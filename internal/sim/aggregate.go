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

// Rank-aggregated ghost exchange, the one exchange of both runtimes (see
// docs/EXCHANGE.md).
//
// At plan build time every remote boundary slab is entered into the
// manifest of its neighbor-rank channel with a precomputed offset into
// one contiguous aggregate buffer. Each exchange then packs all slabs bound
// for a rank directly into that rank's aggregate (pack tasks fan out over
// the worker pool, writing to disjoint sub-slices) and issues exactly ONE
// message per neighbor rank — O(neighbor ranks) messages per step instead
// of O(block pairs), the message aggregation of the SC13 framework.
//
// A plan is built per level of the receiving blocks — a uniform world has
// one. Transfers between levels are produced at the receiver's resolution
// by the sender at pack time (the Resampler), so receivers always unpack
// a plain slab.
//
// Both sides sort their manifest by the same canonical key — (Morton key
// of the SENDING block, its identity, offset index of the sending
// direction, identity of the RECEIVING block) — so the receiver's unpack
// windows line up with the sender's pack windows without any per-slab
// headers on the wire. The fixed manifest order also makes the pack
// byte-for-byte deterministic for every worker count, which the resilient
// rewind-and-replay driver depends on.
//
// Buffer ownership: the transport is eager and zero-copy (the receiver
// sees the sender's buffer), so a sender must not overwrite a buffer the
// receiver may still be unpacking. Each channel therefore owns TWO
// persistent aggregate send buffers used alternately (its parity). Rank A
// repacks a buffer at exchange N+2 only after completing exchange N+1,
// which required B's message of N+1, which B sent after finishing its
// exchange-N unpack of that very buffer — a happens-before chain that makes
// two buffers sufficient for any worker count (on a refined world the edge
// may run through the adjacent level, docs/EXCHANGE.md "Levels"). Receive
// delivery is zero-copy: the channel's inbox is the sender's aggregate,
// valid until the next exchange completes.

// tagAggregate is the tag of level-0 aggregated exchange traffic, level ℓ
// using tagAggregate+ℓ: one message per (sender, receiver, level, exchange),
// matched in order by the per-(source, tag) FIFO of the transport. It lives
// below the migration tags (1<<30).
const tagAggregate = 1 << 29

// slabOp is one manifest entry of a rank channel: a boundary slab of a
// local block with its precomputed window [off, off+n) into the channel's
// aggregate buffer.
type slabOp struct {
	bd     *BlockData
	dirs   []lattice.Direction
	reg    region
	off, n int
	// key is the canonical manifest order, computable by both sides of the
	// channel.
	key aggKey
	// x, on the send side of a transfer between levels, is what the
	// Resampler packs instead of the slab reg of bd (which is then the
	// receiver-frame box).
	x *Transfer
}

// aggKey orders a manifest: the sending block (Morton key of its root
// coordinate, then its identity), the offset index of the sending
// direction, then the receiving block. On a uniform world the Morton key
// and the offset decide.
type aggKey struct {
	block    uint64
	src      blockforest.BlockID
	off      int
	receiver blockforest.BlockID
}

func (a aggKey) less(b aggKey) bool {
	if a.block != b.block {
		return a.block < b.block
	}
	if a.src != b.src {
		return a.src.Less(b.src)
	}
	if a.off != b.off {
		return a.off < b.off
	}
	return a.receiver.Less(b.receiver)
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
// path, which tests no flags) takes every slot, row by row for SoA where
// the source stores the whole row, without evaluating the mask. A slot
// whose source cell lies outside src's allocation rows is dropped as well:
// the source would deliver its fill value, the uniform initial equilibrium
// the destination slot has held since it was initialized. (A slot dst
// reads is always stored by dst, whose rows hold every cell its fluid
// cells pull from.) Adjacent slots merge into rows and equidistant rows
// into one run (addRow). It returns the extended run list and the number
// of slots kept.
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
	sr, dr := sf.Rows(), df.Rows()
	soa := sf.Layout == field.SoA
	xStride := st.Q // Data() distance of one step in x
	if soa {
		xStride = 1
	}
	first, kept := len(runs), 0
	nx := srcReg.hi[0] - srcReg.lo[0]
	for _, d := range dirs {
		cx, cy, cz := st.Cx[d], st.Cy[d], st.Cz[d]
		for z := srcReg.lo[2]; z < srcReg.hi[2]; z++ {
			gz := dstReg.lo[2] + (z - srcReg.lo[2])
			for y := srcReg.lo[1]; y < srcReg.hi[1]; y++ {
				gy := dstReg.lo[1] + (y - srcReg.lo[1])
				// Linear in x even where the row leaves its span; only slots
				// both fields store are used.
				sp := sf.Index(srcReg.lo[0], y, z, d)
				dp := df.Index(dstReg.lo[0], gy, gz, d)
				if lo, hi := sr.Span(y, z); dense && soa && lo <= srcReg.lo[0] && srcReg.hi[0] <= hi {
					// The whole row at once; successive rows of one step fold
					// into one run.
					runs = addRow(runs, first, sp, dp, nx)
					kept += nx
					continue
				}
				for i := 0; i < nx; i++ {
					gx := dstReg.lo[0] + i
					if !dense {
						tx, ty, tz := gx+cx, gy+cy, gz+cz
						if tx < 0 || tx >= df.Nx || ty < 0 || ty >= df.Ny || tz < 0 || tz >= df.Nz ||
							flags.Get(tx, ty, tz) != field.Fluid || flags.Get(gx, gy, gz).IsBoundary() {
							continue
						}
					}
					if !sr.Contains(srcReg.lo[0]+i, y, z) || !dr.Contains(gx, gy, gz) {
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
// rank of one plan into a single message per exchange and direction. On a
// refined world either direction may be empty, and same-rank transfers
// between levels travel on a channel to the own rank, whose aggregate is
// handed from pack to unpack without a message.
type rankChannel struct {
	rank       int
	send       []slabOp
	recv       []slabOp
	sendFloats int
	recvFloats int
	// bufs are the two persistent aggregate send buffers, used alternately
	// (see the ownership comment above); parity selects the next one.
	bufs   [2][]float64
	parity int
	// req is the persistent receive request, re-posted every exchange.
	req comm.RecvRequest
	// inbox is the aggregate delivered for the current exchange (the
	// sender's buffer, zero-copy); cleared after unpack.
	inbox []float64
}

// packTask indexes one parallel pack-phase task: the local copies
// locals[slabIdx:end] (chIdx < 0) or a slab pack (channel chIdx, manifest
// entry slabIdx).
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

// plan is the aggregated ghost exchange of one level: every transfer into
// a ghost layer of a block on that level that involves this rank, with the
// flattened pack/unpack task lists and their pool closures (stored once so
// the steady-state exchange allocates nothing).
type plan struct {
	tag         int
	locals      []localOp
	localStats  localCopyStats
	channels    []rankChannel
	packTasks   []packTask
	remotePacks int // leading packTasks that fill messages to other ranks
	unpackTasks []packTask
	packFn      func(int, int)
	localFn     func(int, int) // packFn over the same-rank rest
	unpackFn    func(int, int)
}

// aggBufPool recycles aggregate buffers across plan rebuilds, bounding
// allocation churn when block assignments change at runtime. Buffers may
// only be released when the rebuild trigger is collective among every
// rank whose zero-copy unpack read them (rebalancing, re-grades).
// Failure-recovery rebuilds skip the release: the dead rank's last unpack
// never synchronizes with the survivors again, so repacking its input
// would be a data race. See rebuildPlan.
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

// buildPlans builds the plan of every level present: the ones of the
// local blocks and of their neighbors. There is always a level-0 plan.
func buildPlans(s *Simulation) []plan {
	byID := make(map[blockforest.BlockID]*BlockData, len(s.Blocks))
	top := 0
	for _, bd := range s.Blocks {
		byID[bd.Block.ID] = bd
		top = max(top, int(bd.Block.ID.Level))
		for _, n := range bd.Block.Neighbors {
			top = max(top, int(n.ID.Level))
		}
	}
	plans := make([]plan, top+1)
	for l := range plans {
		plans[l] = buildPlan(s, l, byID)
		s.bindTasks(&plans[l])
	}
	return plans
}

// buildPlan enumerates the ghost transfers into the level's blocks that
// involve a local block, from the local blocks' neighborhoods: the remote
// ones go into per-neighbor-rank channels with canonically ordered
// manifests and precomputed buffer windows, the same-rank ones between
// blocks of one level into compiled index runs (the ones no fluid cell of
// the destination reads leave the plan), the same-rank ones between levels
// into both manifests of the channel to the own rank. A local transfer is
// enumerated once, at its sender; a remote one at both ends, each deriving
// the same manifest key.
func buildPlan(s *Simulation, level int, byID map[blockforest.BlockID]*BlockData) plan {
	me := s.Comm.Rank()
	p := plan{tag: tagAggregate + level}
	// All runs of the plan share one backing array; starts[i] is where the
	// runs of locals[i] begin, resolved to sub-slices once it stops growing.
	var runs []copyRun
	var starts []int
	byRank := make(map[int]int) // neighbor rank -> index into channels
	channel := func(rank int) *rankChannel {
		ci, ok := byRank[rank]
		if !ok {
			ci = len(p.channels)
			byRank[rank] = ci
			p.channels = append(p.channels, rankChannel{rank: rank})
		}
		return &p.channels[ci]
	}
	for _, bd := range s.Blocks {
		blk := bd.Block
		for _, n := range blk.Neighbors {
			rel, w, wn := relOrigin(blk.ID, n)
			// We receive into our ghost layer at n.Offset, n sends from the
			// opposite direction; corner offsets carry no D3Q19 PDFs.
			if ro := neg(n.Offset); int(blk.ID.Level) == level && n.Rank != me && len(commDirections(s.Stencil, ro)) > 0 {
				ch := channel(n.Rank)
				ch.recv = append(ch.recv, slabOp{
					bd:   bd,
					dirs: commDirections(s.Stencil, ro),
					reg:  ghostBox(blk.Cells, n.Offset, rel, wn, w),
					key:  aggKey{blockforest.MortonKey(n.Coord), n.ID, offsetIndex(ro), blk.ID},
				})
			}
			if int(n.ID.Level) != level {
				continue
			}
			// We send into n's ghost layer at every offset o of n that we
			// cover: several where n is finer. Where n is coarser we reach the
			// same o from several of our offsets; the transfer is entered from
			// the one that is zero wherever o is.
			offsets, k := receiverOffsets(rel, w, wn)
			for _, o := range offsets[:k] {
				dirs := commDirections(s.Stencil, neg(o))
				if len(dirs) == 0 || !entering(n.Offset, o) {
					continue
				}
				key := aggKey{blockforest.MortonKey(blk.Coord), blk.ID, offsetIndex(neg(o)), n.ID}
				reg := sendRegion(blk.Cells, neg(o))
				var x *Transfer
				if w != wn {
					reg = ghostBox(blk.Cells, o, neg(rel), w, wn)
					x = &Transfer{Src: bd, ToFiner: w > wn, Lo: reg.lo, Hi: reg.hi, Dirs: dirs,
						Base: [3]int{rel[0] * blk.Cells[0], rel[1] * blk.Cells[1], rel[2] * blk.Cells[2]}, MemoStamp: -1}
					if x.ToFiner {
						x.Memo = make([]float64, reg.cells()*s.Stencil.Q)
					}
				}
				peer := byID[n.ID]
				if n.Rank == me && peer == nil {
					panic(fmt.Sprintf("sim: local neighbor %v missing", n.ID))
				}
				if n.Rank != me || x != nil {
					ch := channel(n.Rank)
					ch.send = append(ch.send, slabOp{bd: bd, dirs: dirs, reg: reg, key: key, x: x})
					if n.Rank == me {
						ch.recv = append(ch.recv, slabOp{bd: peer, dirs: dirs, reg: reg, key: key})
					}
					continue
				}
				first := len(runs)
				var kept int
				runs, kept = compileLocal(runs, bd, peer, reg, recvRegion(peer.Block.Cells, o), dirs)
				p.localStats.floats += kept
				p.localStats.floatsElided += len(dirs)*reg.cells() - kept
				if kept == 0 {
					p.localStats.copiesElided++
					continue
				}
				p.locals = append(p.locals, localOp{src: bd, dst: peer, floats: kept})
				starts = append(starts, first)
			}
		}
	}
	starts = append(starts, len(runs))
	for i := range p.locals {
		p.locals[i].runs = runs[starts[i]:starts[i+1]]
	}
	// Deterministic channel order (ascending neighbor rank) and canonical
	// manifest order within each channel.
	sort.Slice(p.channels, func(i, j int) bool { return p.channels[i].rank < p.channels[j].rank })
	for i := range p.channels {
		ch := &p.channels[i]
		sort.Slice(ch.send, func(a, b int) bool { return ch.send[a].key.less(ch.send[b].key) })
		sort.Slice(ch.recv, func(a, b int) bool { return ch.recv[a].key.less(ch.recv[b].key) })
		ch.sendFloats = assignWindows(ch.send)
		ch.recvFloats = assignWindows(ch.recv)
		ch.bufs[0] = aggGetBuf(ch.sendFloats)
		ch.bufs[1] = aggGetBuf(ch.sendFloats)
	}
	return p
}

// assignWindows lays a sorted manifest out in its aggregate buffer and
// returns the buffer length.
func assignWindows(slabs []slabOp) int {
	off := 0
	for k := range slabs {
		sl := &slabs[k]
		sl.off, sl.n = off, len(sl.dirs)*sl.reg.cells()
		off += sl.n
	}
	return off
}

// release returns the plan's persistent send buffers to the pool before a
// rebuild discards them.
func (p *plan) release() {
	for i := range p.channels {
		aggPutBuf(p.channels[i].bufs[0])
		aggPutBuf(p.channels[i].bufs[1])
	}
}

// post starts the plan's exchange: the slabs bound for other ranks are
// packed on the worker pool, exactly one message per remote channel with a
// payload is sent from its current buffer and one receive per remote
// channel expecting one is posted; then the same-rank work — compiled
// copies and transfers between levels — runs on the pool while the
// messages travel. Every task writes a disjoint ghost slab or a disjoint
// aggregate sub-slice. Steady-state, the whole phase performs zero heap
// allocations.
func (p *plan) post(s *Simulation) error {
	s.pool.run(p.remotePacks, p.packFn)
	me := s.Comm.Rank()
	for i := range p.channels {
		ch := &p.channels[i]
		switch {
		case ch.rank == me:
			ch.inbox = ch.bufs[0]
		case ch.sendFloats > 0:
			if err := s.Comm.SendFloat64s(ch.rank, p.tag, ch.bufs[ch.parity]); err != nil {
				return err
			}
			ch.parity ^= 1
		}
	}
	for i := range p.channels {
		if ch := &p.channels[i]; ch.rank != me && ch.recvFloats > 0 {
			s.Comm.IrecvInit(&ch.req, ch.rank, p.tag)
		}
	}
	s.pool.run(len(p.packTasks)-p.remotePacks, p.localFn)
	return nil
}

// complete waits for each neighbor rank's aggregate and unpacks all slabs
// by manifest on the worker pool.
func (p *plan) complete(s *Simulation) error {
	for i := range p.channels {
		ch := &p.channels[i]
		if ch.recvFloats == 0 || ch.inbox != nil {
			continue
		}
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
	s.pool.run(len(p.unpackTasks), p.unpackFn)
	for i := range p.channels {
		p.channels[i].inbox = nil // the sender reclaims it two exchanges on
	}
	return nil
}

// bindTasks precomputes the flattened task lists and the pool closures of
// a plan, so post/complete allocate nothing per exchange (a fresh closure
// per pool.run call would escape to the heap).
func (s *Simulation) bindTasks(p *plan) {
	var own []packTask // transfers between levels to this rank: same-rank work
	for ci := range p.channels {
		for si := range p.channels[ci].send {
			if t := (packTask{chIdx: ci, slabIdx: si}); p.channels[ci].rank == s.Comm.Rank() {
				own = append(own, t)
			} else {
				p.packTasks = append(p.packTasks, t)
			}
		}
		for si := range p.channels[ci].recv {
			p.unpackTasks = append(p.unpackTasks, packTask{chIdx: ci, slabIdx: si})
		}
	}
	p.remotePacks = len(p.packTasks)
	p.packTasks = append(p.packTasks, own...)
	first, vol := 0, 0
	for li := range p.locals {
		vol += p.locals[li].floats
		if vol >= localTaskFloats || li == len(p.locals)-1 {
			p.packTasks = append(p.packTasks, packTask{chIdx: -1, slabIdx: first, end: li + 1})
			first, vol = li+1, 0
		}
	}
	p.packFn = func(worker, i int) {
		t := p.packTasks[i]
		lane := s.tel.worker(worker)
		start := lane.Start()
		if t.chIdx < 0 {
			for li := t.slabIdx; li < t.end; li++ {
				p.locals[li].exec()
			}
			lane.Span(telemetry.PhaseLocalCopy, s.steps, int32(i), start)
			return
		}
		ch := &p.channels[t.chIdx]
		sl := &ch.send[t.slabIdx]
		buf := ch.bufs[ch.parity][sl.off : sl.off+sl.n] // the own rank's channel keeps parity 0
		phase := telemetry.PhasePack
		if sl.x != nil {
			s.resample.Resample(sl.x, buf, worker)
			phase = telemetry.PhaseResample
		} else if n := sl.bd.Src.PackRegion(buf, sl.reg.lo, sl.reg.hi, sl.dirs); n != sl.n {
			panic(fmt.Sprintf("sim: packed %d of %d values", n, sl.n))
		}
		lane.Span(phase, s.steps, int32(i), start)
	}
	p.localFn = func(worker, i int) { p.packFn(worker, p.remotePacks+i) }
	p.unpackFn = func(worker, i int) {
		t := p.unpackTasks[i]
		lane := s.tel.worker(worker)
		start := lane.Start()
		ch := &p.channels[t.chIdx]
		sl := &ch.recv[t.slabIdx]
		buf := ch.inbox[sl.off : sl.off+sl.n]
		if n := sl.bd.Src.UnpackRegion(buf, sl.reg.lo, sl.reg.hi, sl.dirs); n != sl.n {
			panic(fmt.Sprintf("sim: unpacked %d of %d values", n, sl.n))
		}
		lane.Span(telemetry.PhaseUnpack, s.steps, int32(i), start)
	}
}

// aggregated is the exchanger of production: the level plans, of which a
// uniform world has one.
type aggregated struct{}

func (aggregated) build(s *Simulation, recycleBuffers bool) map[*BlockData]bool {
	if recycleBuffers {
		for i := range s.levels {
			s.levels[i].release()
		}
	}
	s.levels = buildPlans(s)
	remote := make(map[*BlockData]bool)
	for l := range s.levels {
		for ci := range s.levels[l].channels {
			ch := &s.levels[l].channels[ci]
			if ch.rank == s.Comm.Rank() {
				continue
			}
			for _, sl := range ch.send {
				remote[sl.bd] = true
			}
			for _, sl := range ch.recv {
				remote[sl.bd] = true
			}
		}
	}
	return remote
}

func (aggregated) post(s *Simulation) error     { return s.levels[0].post(s) }
func (aggregated) complete(s *Simulation) error { return s.levels[0].complete(s) }

func (aggregated) stats(s *Simulation) ExchangeStats {
	var st ExchangeStats
	peers := make(map[int]bool)
	for l := range s.levels {
		p := &s.levels[l]
		st.LocalCopies += len(p.locals)
		st.LocalFloats += p.localStats.floats
		st.LocalCopiesElided += p.localStats.copiesElided
		st.LocalFloatsElided += p.localStats.floatsElided
		for i := range p.channels {
			ch := &p.channels[i]
			if ch.rank == s.Comm.Rank() {
				st.LocalCopies += len(ch.recv)
				st.LocalFloats += ch.recvFloats
				continue
			}
			peers[ch.rank] = true
			if ch.sendFloats > 0 {
				st.MessagesPerStep++
			}
			st.RemoteSlabs += len(ch.send)
			st.SendFloats += ch.sendFloats
			st.RecvFloats += ch.recvFloats
		}
	}
	st.NeighborRanks = len(peers)
	return st
}
