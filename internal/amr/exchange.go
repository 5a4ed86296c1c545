package amr

import (
	"fmt"

	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Level-aware ghost exchange. The plan is rebuilt from the replicated
// leaf list after construction, every re-grade and every recovery; both
// ends of a message enumerate the same global metadata in the same
// canonical order, so the per-(rank, level) message manifests agree by
// construction and no negotiation round trip is needed (the PR 3
// aggregation idea, extended by one level dimension).
//
// All payloads are produced at receiver resolution on the sender
// ("sender-side resampling"): a coarse sender interpolates to the fine
// ghost cells — trilinear in space and, on the second sub-step of the
// parent interval, linear in time between the parent's pre- and
// post-sweep states (see step.go) — a fine sender restricts 2×2×2
// groups to coarse ghost cells, and same-level senders pack interior
// slabs. The receiver-side unpack is therefore always a uniform slab
// write, and a rank sends exactly one message per neighbor rank per
// level per sub-step.

// tagExchange is the base tag of level-tagged exchange windows; level ℓ
// uses tagExchange+ℓ. Kept far above the migration/buddy tags.
const tagExchange = 1<<28 + 0

// phaseSync marks an exchange outside the timestepping cycle (after
// construction, migration or restore): all levels share one time, so
// coarse→fine transfers read the sender's current state (Src) directly.
const phaseSync = -1

type opKind uint8

const (
	opSame opKind = iota
	opFromCoarse
	opFromFine
)

// region is a half-open cell box in receiver-local coordinates
// (ghost cells at -1 and C).
type region struct {
	lo, hi [3]int
}

func (r region) vol() int {
	return (r.hi[0] - r.lo[0]) * (r.hi[1] - r.lo[1]) * (r.hi[2] - r.lo[2])
}

// recvRegion is the ghost slab of one offset.
func recvRegion(C, o [3]int) region {
	var r region
	for d := 0; d < 3; d++ {
		switch o[d] {
		case 1:
			r.lo[d], r.hi[d] = C[d], C[d]+1
		case -1:
			r.lo[d], r.hi[d] = -1, 0
		default:
			r.lo[d], r.hi[d] = 0, C[d]
		}
	}
	return r
}

// xop is one ghost transfer: sender leaf → receiver leaf ghost region.
type xop struct {
	kind opKind
	recv int // leaf index
	send int // leaf index
	dst  region
	// base translates receiver coordinates into the sender's frame:
	//   same:       sender cell      = p + base
	//   fromCoarse: sender fine cell = p + base      (2× subdivision)
	//   fromFine:   sender cell      = 2p + t + base (t ∈ {0,1}³)
	base [3]int
	dirs []lattice.Direction
}

func (op *xop) floats() int { return len(op.dirs) * op.dst.vol() }

// channel aggregates the ops of one (peer rank, receiver level) pair
// into a single message per direction, with double-buffered persistent
// send buffers (the receive side unpacks straight from the delivered
// slice, zero-copy on the in-process transport).
type channel struct {
	peer    int // comm rank
	level   int
	sendOps []int
	recvOps []int
	sendLen int
	recvLen int
	sendBuf [2][]float64
	parity  int
	req     comm.RecvRequest
}

type plan struct {
	ops          []xop
	localByLevel [][]int
	chByLevel    [][]*channel
}

// dirsInto returns the directions streaming from the ghost slab at
// offset o into the interior: every velocity whose component opposes o
// on each offset axis.
func dirsInto(st *lattice.Stencil, o [3]int) []lattice.Direction {
	var dirs []lattice.Direction
	for a := 0; a < st.Q; a++ {
		if (o[0] == 0 || st.Cx[a] == -o[0]) &&
			(o[1] == 0 || st.Cy[a] == -o[1]) &&
			(o[2] == 0 || st.Cz[a] == -o[2]) {
			dirs = append(dirs, lattice.Direction(a))
		}
	}
	return dirs
}

// rebuildPlan derives the exchange plan of this rank from the global
// leaf list. Deterministic: every rank enumerating the same metadata
// produces the same op order, so paired channels agree on their
// manifests.
func (s *Sim) rebuildPlan() {
	st := s.cfg.Stencil
	C := s.cfg.Cells
	me := s.Comm.Rank()

	var dirTable [27][]lattice.Direction
	offAt := func(i int) [3]int { return [3]int{i%3 - 1, i/3%3 - 1, i/9 - 1} }
	for i := 0; i < 27; i++ {
		if o := offAt(i); o != [3]int{} {
			dirTable[i] = dirsInto(st, o)
		}
	}

	p := &plan{
		localByLevel: make([][]int, s.maxLevel+1),
		chByLevel:    make([][]*channel, s.maxLevel+1),
	}
	chans := map[[2]int]*channel{} // (peer, level)
	getChan := func(peer, level int) *channel {
		k := [2]int{peer, level}
		ch := chans[k]
		if ch == nil {
			ch = &channel{peer: peer, level: level}
			chans[k] = ch
			p.chByLevel[level] = append(p.chByLevel[level], ch)
		}
		return ch
	}
	addOp := func(op xop) {
		sr, rr := s.leaves[op.send].Rank, s.leaves[op.recv].Rank
		if sr != me && rr != me {
			return
		}
		i := len(p.ops)
		p.ops = append(p.ops, op)
		lv := s.leaves[op.recv].Level()
		switch {
		case sr == me && rr == me:
			p.localByLevel[lv] = append(p.localByLevel[lv], i)
		case rr == me:
			ch := getChan(sr, lv)
			ch.recvOps = append(ch.recvOps, i)
			ch.recvLen += op.floats()
		default:
			ch := getChan(rr, lv)
			ch.sendOps = append(ch.sendOps, i)
			ch.sendLen += op.floats()
		}
	}

	for ri := range s.leaves {
		r := &s.leaves[ri]
		lv := r.Level()
		for oi := 0; oi < 27; oi++ {
			o := offAt(oi)
			if o == ([3]int{}) {
				continue
			}
			u := [3]int{r.Idx[0] + o[0], r.Idx[1] + o[1], r.Idx[2] + o[2]}
			n, ok := s.wrapIdx(lv, u)
			if !ok {
				continue // domain boundary: handled by boundary conditions
			}
			dirs := dirTable[oi]
			if si, ok := s.leafAt(lv, n); ok {
				addOp(xop{kind: opSame, recv: ri, send: si,
					dst:  recvRegion(C, o),
					base: [3]int{-o[0] * C[0], -o[1] * C[1], -o[2] * C[2]},
					dirs: dirs})
				continue
			}
			if lv > 0 {
				cn := [3]int{n[0] >> 1, n[1] >> 1, n[2] >> 1}
				if si, ok := s.leafAt(lv-1, cn); ok {
					// The sender's fine frame origin, unwrapped, is the
					// parent region of u (level grids above 0 have even
					// extents, so wrapping preserves child parity).
					base := [3]int{}
					for d := 0; d < 3; d++ {
						base[d] = r.Idx[d]*C[d] - floorDiv2(u[d])*2*C[d]
					}
					addOp(xop{kind: opFromCoarse, recv: ri, send: si,
						dst: recvRegion(C, o), base: base, dirs: dirs})
					continue
				}
			}
			// Finer senders: by 2:1 balance the region is covered by up
			// to four level lv+1 children adjacent to the receiver.
			full := recvRegion(C, o)
			for b := 0; b < 8; b++ {
				bits := [3]int{b & 1, b >> 1 & 1, b >> 2 & 1}
				fit := true
				for d := 0; d < 3; d++ {
					if o[d] == 1 && bits[d] != 0 || o[d] == -1 && bits[d] != 1 {
						fit = false
						break
					}
				}
				if !fit {
					continue
				}
				child := [3]int{2*n[0] + bits[0], 2*n[1] + bits[1], 2*n[2] + bits[2]}
				si, ok := s.leafAt(lv+1, child)
				if !ok {
					panic(fmt.Sprintf("amr: 2:1 balance broken at level %d region %v", lv, n))
				}
				dst := full
				base := [3]int{}
				for d := 0; d < 3; d++ {
					if o[d] == 0 {
						dst.lo[d] = bits[d] * C[d] / 2
						dst.hi[d] = (bits[d] + 1) * C[d] / 2
					}
					uc := 2*u[d] + bits[d]
					base[d] = 2*r.Idx[d]*C[d] - uc*C[d]
				}
				addOp(xop{kind: opFromFine, recv: ri, send: si, dst: dst, base: base, dirs: dirs})
			}
		}
	}
	for _, chs := range p.chByLevel {
		for _, ch := range chs {
			if ch.sendLen > 0 {
				ch.sendBuf[0] = make([]float64, ch.sendLen)
				ch.sendBuf[1] = make([]float64, ch.sendLen)
			}
		}
	}
	s.plan = p
	s.blocksByLevel = make([][]*Block, s.maxLevel+1)
	for _, b := range s.blocks {
		s.blocksByLevel[b.Level()] = append(s.blocksByLevel[b.Level()], b)
	}
	s.publishGauges()
}

// sampleCoarseAt gathers the coarse sender's PDF vector at fine cell F
// at the receiving sub-step's start time. During the cycle the parent
// has already swept, so its pre-sweep state sits in Dst and its
// post-sweep state in Src: phase 0 (first half of the parent interval)
// reads the pre-sweep state, phase 1 the midpoint average ½(Dst+Src) —
// linear temporal interpolation. phaseSync reads the current state.
func (s *Sim) sampleCoarseAt(sb *Block, F [3]int, phase int, sc *interpScratch) {
	switch phase {
	case phaseSync:
		s.sampleCoarse(sb.Src, F, sc.f)
	case 0:
		s.sampleCoarse(sb.Dst, F, sc.f)
	default:
		s.sampleCoarse(sb.Dst, F, sc.f)
		s.sampleCoarse(sb.Src, F, sc.f2)
		for a := range sc.f {
			sc.f[a] = 0.5 * (sc.f[a] + sc.f2[a])
		}
	}
}

// packOp writes one op's payload at receiver resolution into buf
// (dir-major, then z, y, x — the PackRegion/UnpackRegion order).
func (s *Sim) packOp(op *xop, buf []float64, phase int, sc *interpScratch) {
	sb := s.byID[s.leaves[op.send].ID]
	switch op.kind {
	case opSame:
		srcLo := [3]int{op.dst.lo[0] + op.base[0], op.dst.lo[1] + op.base[1], op.dst.lo[2] + op.base[2]}
		srcHi := [3]int{op.dst.hi[0] + op.base[0], op.dst.hi[1] + op.base[1], op.dst.hi[2] + op.base[2]}
		sb.Src.PackRegion(buf, srcLo, srcHi, op.dirs)
	case opFromCoarse:
		lam := s.lambdaToFine(s.leaves[op.recv].Level())
		vol := op.dst.vol()
		ci := 0
		for z := op.dst.lo[2]; z < op.dst.hi[2]; z++ {
			for y := op.dst.lo[1]; y < op.dst.hi[1]; y++ {
				for x := op.dst.lo[0]; x < op.dst.hi[0]; x++ {
					F := [3]int{x + op.base[0], y + op.base[1], z + op.base[2]}
					s.sampleCoarseAt(sb, F, phase, sc)
					s.rescaleNeq(sc.f, lam, sc)
					for di, a := range op.dirs {
						buf[di*vol+ci] = sc.f[a]
					}
					ci++
				}
			}
		}
	case opFromFine:
		lam := s.lambdaToCoarse(s.leaves[op.send].Level())
		vol := op.dst.vol()
		ci := 0
		for z := op.dst.lo[2]; z < op.dst.hi[2]; z++ {
			for y := op.dst.lo[1]; y < op.dst.hi[1]; y++ {
				for x := op.dst.lo[0]; x < op.dst.hi[0]; x++ {
					F := [3]int{2*x + op.base[0], 2*y + op.base[1], 2*z + op.base[2]}
					restrictFine(sb.Src, F, sc.f)
					s.rescaleNeq(sc.f, lam, sc)
					for di, a := range op.dirs {
						buf[di*vol+ci] = sc.f[a]
					}
					ci++
				}
			}
		}
	}
}

// applyLocal computes one same-rank op directly into the receiver's
// ghost cells (identical arithmetic to the wire path, minus the copy).
func (s *Sim) applyLocal(op *xop, phase int, sc *interpScratch) {
	rb := s.byID[s.leaves[op.recv].ID]
	sb := s.byID[s.leaves[op.send].ID]
	switch op.kind {
	case opSame:
		srcLo := [3]int{op.dst.lo[0] + op.base[0], op.dst.lo[1] + op.base[1], op.dst.lo[2] + op.base[2]}
		srcHi := [3]int{op.dst.hi[0] + op.base[0], op.dst.hi[1] + op.base[1], op.dst.hi[2] + op.base[2]}
		field.CopyRegion(rb.Src, op.dst.lo, sb.Src, srcLo, srcHi, op.dirs)
	case opFromCoarse:
		lam := s.lambdaToFine(s.leaves[op.recv].Level())
		for z := op.dst.lo[2]; z < op.dst.hi[2]; z++ {
			for y := op.dst.lo[1]; y < op.dst.hi[1]; y++ {
				for x := op.dst.lo[0]; x < op.dst.hi[0]; x++ {
					F := [3]int{x + op.base[0], y + op.base[1], z + op.base[2]}
					s.sampleCoarseAt(sb, F, phase, sc)
					s.rescaleNeq(sc.f, lam, sc)
					for _, a := range op.dirs {
						rb.Src.Set(x, y, z, a, sc.f[a])
					}
				}
			}
		}
	case opFromFine:
		lam := s.lambdaToCoarse(s.leaves[op.send].Level())
		for z := op.dst.lo[2]; z < op.dst.hi[2]; z++ {
			for y := op.dst.lo[1]; y < op.dst.hi[1]; y++ {
				for x := op.dst.lo[0]; x < op.dst.hi[0]; x++ {
					F := [3]int{2*x + op.base[0], 2*y + op.base[1], 2*z + op.base[2]}
					restrictFine(sb.Src, F, sc.f)
					s.rescaleNeq(sc.f, lam, sc)
					for _, a := range op.dirs {
						rb.Src.Set(x, y, z, a, sc.f[a])
					}
				}
			}
		}
	}
}

// exchangeLevel refreshes the ghost layers of all level-ℓ receivers:
// one aggregated message per neighbor rank, local transfers on the
// worker pool. phase selects the temporal interpolation of
// coarse→fine transfers (see sampleCoarseAt).
func (s *Sim) exchangeLevel(level, phase int) error {
	p := s.plan
	chs := p.chByLevel[level]
	tag := tagExchange + level

	for _, ch := range chs {
		if ch.recvLen > 0 {
			s.Comm.IrecvInit(&ch.req, ch.peer, tag)
		}
	}
	for _, ch := range chs {
		if ch.sendLen == 0 {
			continue
		}
		buf := ch.sendBuf[ch.parity]
		off := 0
		for _, oi := range ch.sendOps {
			op := &p.ops[oi]
			n := op.floats()
			s.packOp(op, buf[off:off+n], phase, &s.scratch[0])
			off += n
		}
		if err := s.Comm.SendFloat64s(ch.peer, tag, buf); err != nil {
			return fmt.Errorf("amr: exchange send to %d level %d: %w", ch.peer, level, err)
		}
		ch.parity ^= 1
	}
	local := p.localByLevel[level]
	s.pool.run(len(local), func(worker, i int) {
		s.applyLocal(&p.ops[local[i]], phase, &s.scratch[worker])
	})
	for _, ch := range chs {
		if ch.recvLen == 0 {
			continue
		}
		data, _, err := ch.req.WaitFloat64s()
		if err != nil {
			return fmt.Errorf("amr: exchange recv from %d level %d: %w", ch.peer, level, err)
		}
		if len(data) != ch.recvLen {
			return fmt.Errorf("amr: exchange recv from %d level %d: got %d floats, want %d",
				ch.peer, level, len(data), ch.recvLen)
		}
		off := 0
		for _, oi := range ch.recvOps {
			op := &p.ops[oi]
			n := op.floats()
			rb := s.byID[s.leaves[op.recv].ID]
			rb.Src.UnpackRegion(data[off:off+n], op.dst.lo, op.dst.hi, op.dirs)
			off += n
		}
	}
	return nil
}

// syncAllLevels refreshes every ghost layer once (after construction,
// migration or restore).
func (s *Sim) syncAllLevels() error {
	for l := 0; l <= s.maxLevel; l++ {
		if err := s.exchangeLevel(l, phaseSync); err != nil {
			return err
		}
	}
	return nil
}
