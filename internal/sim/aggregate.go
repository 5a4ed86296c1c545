package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"

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
// manifest of its neighbor-rank channel. The receiver evaluates which of
// the slab's ghost slots its sweep reads (the need-mask) and sends the
// mask of each channel to the sender once per plan build; both sides then
// lower every slab against that mask to index runs, the format of the
// same-rank copies, and lay the kept slots out back to back in one
// contiguous aggregate buffer. Each exchange then packs all slabs bound
// for a rank directly into that rank's aggregate (pack tasks fan out over
// the worker pool, writing to disjoint positions) and issues exactly ONE
// message per neighbor rank — O(neighbor ranks) messages per step instead
// of O(block pairs), the message aggregation of the SC13 framework, and a
// payload that follows the fluid cells instead of the block faces.
//
// A plan is built per level of the receiving blocks — a uniform world has
// one. Transfers between levels are produced at the receiver's resolution
// by the sender at pack time (the Resampler), and masked like every slab:
// the sender produces only the slots the receiver keeps, so receivers
// always unpack a plain slab.
//
// Both sides sort their manifest by the same canonical key — (Morton key
// of the SENDING block, its identity, offset index of the SENDING
// direction, identity of the RECEIVING block) — and lower it against the
// same mask, so the receiver's unpack windows line up with the sender's
// pack windows without any per-slab headers on the wire. The fixed
// manifest order also makes the pack byte-for-byte deterministic for every
// worker count, which the resilient rewind-and-replay driver depends on.
//
// Buffer ownership: the transport is eager and zero-copy (the receiver
// sees the sender's buffer), so a sender must not overwrite a buffer the
// receiver may still be unpacking. Each channel therefore owns TWO
// persistent aggregate send buffers used alternately (its parity). Rank A
// repacks a buffer at exchange N+2 only after completing exchange N+1,
// which required B's message of N+1, which B sent after finishing its
// exchange-N unpack of that very buffer — a happens-before chain that makes
// two buffers sufficient for any worker count (on a refined world the edge
// may run through the adjacent level, docs/EXCHANGE.md "Levels"). Every
// plan build takes them fresh, so a retired one is never repacked, whoever
// read it last. Receive delivery is zero-copy: the channel's inbox is the
// sender's aggregate, valid until the next exchange completes.

// tagAggregate is the tag of level-0 aggregated exchange traffic, level ℓ
// using tagAggregate+ℓ: one message per (sender, receiver, level, exchange),
// matched in order by the per-(source, tag) FIFO of the transport. It lives
// below the migration tags (1<<30).
const tagAggregate = 1 << 29

// tagNeedMask is the tag of the level-0 mask handshake, level ℓ using
// tagNeedMask+ℓ: one message per remote channel and plan build, from the
// receiver of the channel's slabs to their sender. It lives between the
// exchange tags and the migration tags (1<<30).
const tagNeedMask = tagAggregate + 1<<20

// slabOp is one manifest entry of a rank channel: a boundary slab of a
// local block, the index runs that move the slots its mask keeps between
// the block's field and the channel's aggregate buffer, and its window
// [off, off+n) there.
type slabOp struct {
	bd     *BlockData
	dirs   []lattice.Direction
	reg    region
	off, n int
	runs   []copyRun
	// mask selects the slots that cross, as the receiver evaluated it; it
	// lives from the plan build to the lowering.
	mask slotMask
	// key is the canonical manifest order, computable by both sides of the
	// channel.
	key aggKey
	// x, on the send side of a transfer between levels, is what the
	// Resampler packs instead of the slab reg of bd (which is then the
	// receiver-frame box): the window's kept slots, with no runs.
	x *Transfer
}

// slots is the size of the slab's whole window, every slot kept.
func (sl *slabOp) slots() int { return len(sl.dirs) * sl.reg.cells() }

// manifestSlots is the number of slots of a manifest's whole slabs.
func manifestSlots(slabs []slabOp) int {
	n := 0
	for k := range slabs {
		n += slabs[k].slots()
	}
	return n
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
// block reads (see needMask and docs/EXCHANGE.md).
type localOp struct {
	src, dst *BlockData
	runs     []copyRun
	floats   int // values moved, the sum of the run lengths
}

// copyRun is one piece of a lowered transfer: reps rows of n contiguous
// values each, row r going from position src+r*srcStep of the source to
// position dst+r*dstStep of the destination — a field's Data() or an
// aggregate buffer on either side. A dense face compiles to a handful of
// runs (one per direction, or per direction and z-layer where x is the
// normal and rows are single values); a masked one to runs of mostly one
// row. Positions survive the per-step Src/Dst swap, which exchanges
// storage between two identically shaped fields.
type copyRun struct {
	src, dst         int32
	n, reps          int32
	srcStep, dstStep int32
}

// shortRun is the row length below which a scalar loop beats the call
// into memmove; rows of exactly shortRun values, a block edge of 8 cells,
// move as one array value.
const shortRun = 8

// execRuns performs runs from src to dst: the one executor of same-rank
// copies (field to field), packs (field to aggregate) and unpacks
// (aggregate to field). It has one loop per run shape: strided single
// values (an x-face of a row-major block), rows of shortRun values, other
// short rows, and long rows through memmove.
func execRuns(dst, src []float64, runs []copyRun) {
	for _, r := range runs {
		sp, dp := r.src, r.dst
		switch {
		case r.n == 1:
			for rep := int32(0); rep < r.reps; rep++ {
				dst[dp] = src[sp]
				sp, dp = sp+r.srcStep, dp+r.dstStep
			}
		case r.n == shortRun:
			for rep := int32(0); rep < r.reps; rep++ {
				*(*[shortRun]float64)(dst[dp:]) = *(*[shortRun]float64)(src[sp:])
				sp, dp = sp+r.srcStep, dp+r.dstStep
			}
		case r.n < shortRun:
			for rep := int32(0); rep < r.reps; rep++ {
				for k := int32(0); k < r.n; k++ {
					dst[dp+k] = src[sp+k]
				}
				sp, dp = sp+r.srcStep, dp+r.dstStep
			}
		default:
			for rep := int32(0); rep < r.reps; rep++ {
				copy(dst[dp:dp+r.n], src[sp:sp+r.n])
				sp, dp = sp+r.srcStep, dp+r.dstStep
			}
		}
	}
}

// addRow appends the row of n values at source position sp and destination
// position dp to the runs of one transfer: a row contiguous with a
// single-row run lengthens it, a row of equal length continuing (or
// founding) the constant step of the last run becomes its next repetition.
func addRow(runs []copyRun, sp, dp, n int) []copyRun {
	if k := len(runs) - 1; k >= 0 {
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

// slotMask selects slots of a slab: slot k of the slab's canonical order
// (dir-major, then z, y, x) is kept iff bit off+k of bits is set. Nil bits
// keep every slot.
type slotMask struct {
	bits []byte
	off  int
}

func (m slotMask) has(k int) bool {
	if m.bits == nil {
		return true
	}
	k += m.off
	return m.bits[k>>3]>>(k&7)&1 != 0
}

// simplify returns the mask of a slab of n slots with nil bits when it
// keeps every slot, so that lowering tests no bit.
func (m slotMask) simplify(n int) slotMask {
	if m.all(0, n) {
		return slotMask{}
	}
	return m
}

// all reports whether slots k..k+n-1 are all kept.
func (m slotMask) all(k, n int) bool {
	for i := k; i < k+n && m.bits != nil; i++ {
		if !m.has(i) {
			return false
		}
	}
	return true
}

// setBits sets bits [k, k+n) of bits.
func setBits(bits []byte, k, n int) {
	for ; n > 0 && k&7 != 0; k, n = k+1, n-1 {
		bits[k>>3] |= 1 << (k & 7)
	}
	for ; n >= 8; k, n = k+8, n-8 {
		bits[k>>3] = 0xff
	}
	for ; n > 0; k, n = k+1, n-1 {
		bits[k>>3] |= 1 << (k & 7)
	}
}

// readsAll reports whether the block's interior is all fluid: it runs the
// dense kernel path, which tests no flags, and reads every ghost slot. Such
// a block may join an arena (arenaCover): a solid cell would take a
// neighbour's bounce-back into its state.
func (bd *BlockData) readsAll() bool { return bd.Fluid == bd.Flags.Nx*bd.Flags.Ny*bd.Flags.Nz }

// needMask is the need-rule, the one place that decides which ghost slots
// a block reads: it sets bit at+k of bits for every slot k of bd's ghost
// slab (reg, dirs; canonical order) that bd's sweep reads. The kernels
// stream-pull, so slot (g, d) is read iff g+e_d is an interior Fluid cell
// — every kernel, dense-with-flags or sparse, skips the others — and g is
// not a boundary cell, whose links boundary.Apply rewrites after the
// exchange anyway. The receiver's flags are authoritative: they are the
// ones its kernel and boundary sweep were built from (docs/EXCHANGE.md,
// "Why the receiver is authoritative"). A block that readsAll takes every
// slot without a flag being looked at.
func needMask(bits []byte, at int, bd *BlockData, reg region, dirs []lattice.Direction) {
	if bd.readsAll() {
		setBits(bits, at, len(dirs)*reg.cells())
		return
	}
	st, flags, f := bd.Src.Stencil, bd.Flags, bd.Src
	k := at
	for _, d := range dirs {
		cx, cy, cz := st.Cx[d], st.Cy[d], st.Cz[d]
		for gz := reg.lo[2]; gz < reg.hi[2]; gz++ {
			for gy := reg.lo[1]; gy < reg.hi[1]; gy++ {
				for gx := reg.lo[0]; gx < reg.hi[0]; gx, k = gx+1, k+1 {
					tx, ty, tz := gx+cx, gy+cy, gz+cz
					if tx < 0 || tx >= f.Nx || ty < 0 || ty >= f.Ny || tz < 0 || tz >= f.Nz ||
						flags.Get(tx, ty, tz) != field.Fluid || flags.Get(gx, gy, gz).IsBoundary() {
						continue
					}
					bits[k>>3] |= 1 << (k & 7)
				}
			}
		}
	}
}

// end is one side of a lowered slab transfer: the box of a field starting
// at cell lo, or, with f nil, an aggregate window starting at position at.
type end struct {
	f  *field.PDFField
	lo [3]int
	at int
}

// row returns the field position of the first slot of row (y, z) of the
// box at direction 0, and whether the end holds the row's nx slots
// contiguously (an aggregate always does). The position is linear in x
// even where the row leaves its span; only slots the field stores are
// ever used.
func (e end) row(y, z, nx int) (int, bool) {
	if e.f == nil {
		return 0, true
	}
	x, y, z := e.lo[0], e.lo[1]+y, e.lo[2]+z
	lo, hi := e.f.Rows().Span(y, z)
	return e.f.Index(x, y, z, 0), e.f.Layout == field.SoA && lo <= x && x+nx <= hi
}

// pos returns the position of slot i, direction d, of the row starting at
// field position rp; on an aggregate end, of the window's kept-th slot.
func (e end) pos(rp int, d lattice.Direction, i, kept int) int {
	switch {
	case e.f == nil:
		return e.at + kept
	case e.f.Layout == field.SoA:
		return rp + int(d)*e.f.AllocatedCells() + i
	}
	return rp + int(d) + i*e.f.Stencil.Q
}

// stores reports whether the end holds slot i of row (y, z).
func (e end) stores(i, y, z int) bool {
	return e.f == nil || e.f.Rows().Contains(e.lo[0]+i, e.lo[1]+y, e.lo[2]+z)
}

// fillSlot is an aggregate position whose slot the sender does not store:
// it carries the sender's fill value, written once at plan build.
type fillSlot struct {
	pos int
	v   float64
}

// runSink is the scratch of lowering, reused from transfer to transfer:
// the runs of the transfer being lowered and the per-row lookups of its
// slab.
type runSink struct {
	runs []copyRun
	rows []rowEnds
}

// rowEnds is the field position of one row of a slab on both ends, at
// direction 0, and whether both hold it contiguously; even counts the
// whole rows from this one on, within its z-layer, that lie one constant
// step apart on both ends.
type rowEnds struct {
	src, dst int
	whole    bool
	even     int
}

// lower lowers the slots m keeps of one slab — dirs over a box of extent
// ext, canonical order (dir-major, then z, y, x) — from src to dst, and
// returns their runs (an exact-size copy of the scratch list), the number
// of slots m keeps (the window length) and the number of values the runs
// move. On an aggregate end the kept slots take the window's positions in
// order. A kept slot an end's field does not store gets no run: a receiver
// skips it; a sender leaves it to the fill value — a local destination has
// held that value since it was initialized, an aggregate position goes to
// fills, to be written once into both send buffers. A row m keeps whole
// and both ends hold contiguously becomes one row without a per-slot
// test; adjacent slots merge into rows and equidistant rows into one run
// (addRow). The rows' field positions are looked up once per slab, not
// once per direction, and a z-layer of even whole rows that the mask keeps
// folds in one step: the first two rows set the run's step, the rest are
// repetitions addRow would count one by one.
func (k *runSink) lower(src, dst end, ext [3]int, dirs []lattice.Direction, m slotMask, fills *[]fillSlot) ([]copyRun, int, int) {
	for _, e := range [2]end{src, dst} {
		if e.f != nil && len(e.f.Data()) > math.MaxInt32 {
			panic("sim: block too large for 32-bit copy runs")
		}
	}
	runs, nx := k.runs[:0], ext[0]
	k.rows = k.rows[:0]
	for z := 0; z < ext[2]; z++ {
		for y := 0; y < ext[1]; y++ {
			s, sWhole := src.row(y, z, nx)
			t, tWhole := dst.row(y, z, nx)
			k.rows = append(k.rows, rowEnds{src: s, dst: t, whole: sWhole && tWhole})
		}
		layer := k.rows[len(k.rows)-ext[1]:]
		for y := len(layer) - 1; y >= 0; y-- {
			switch r := &layer[y]; {
			case !r.whole:
			case y+1 == len(layer) || !layer[y+1].whole:
				r.even = 1
			case layer[y+1].even > 1 && layer[y+2].src-layer[y+1].src == layer[y+1].src-r.src &&
				layer[y+2].dst-layer[y+1].dst == layer[y+1].dst-r.dst:
				r.even = layer[y+1].even + 1
			default:
				r.even = 2
			}
		}
	}
	kept, moved, bit := 0, 0, 0
	for _, d := range dirs {
		for ri := 0; ri < len(k.rows); ri++ {
			r := k.rows[ri]
			if e := r.even; e > 2 && m.all(bit, e*nx) {
				for _, q := range k.rows[ri : ri+2] {
					runs = addRow(runs, src.pos(q.src, d, 0, kept), dst.pos(q.dst, d, 0, kept), nx)
					kept, moved, bit = kept+nx, moved+nx, bit+nx
				}
				last, next := &runs[len(runs)-1], k.rows[ri+2]
				if last.reps > 1 && int(last.src+last.reps*last.srcStep) == src.pos(next.src, d, 0, kept) &&
					int(last.dst+last.reps*last.dstStep) == dst.pos(next.dst, d, 0, kept) {
					last.reps += int32(e - 2)
					kept, moved, bit = kept+(e-2)*nx, moved+(e-2)*nx, bit+(e-2)*nx
					ri += e - 1
				} else {
					ri++
				}
				continue
			}
			if r.whole && m.all(bit, nx) {
				runs = addRow(runs, src.pos(r.src, d, 0, kept), dst.pos(r.dst, d, 0, kept), nx)
				kept, moved, bit = kept+nx, moved+nx, bit+nx
				continue
			}
			y, z := ri%ext[1], ri/ext[1]
			for i := 0; i < nx; i, bit = i+1, bit+1 {
				if !m.has(bit) {
					continue
				}
				s, t := src.pos(r.src, d, i, kept), dst.pos(r.dst, d, i, kept)
				kept++
				switch {
				case !dst.stores(i, y, z):
				case !src.stores(i, y, z):
					if dst.f == nil {
						*fills = append(*fills, fillSlot{t, src.f.FillValue(d)})
					}
				default:
					runs = addRow(runs, s, t, 1)
					moved++
				}
			}
		}
	}
	k.runs = runs
	return slices.Clone(runs), kept, moved
}

// compileLocal lowers the copy of src's interior slab srcReg into dst's
// ghost slab dstReg onto the sink, keeping only the slots dst reads
// (needMask) that the plan's claims leave to it. A slot whose source cell
// lies outside src's allocation rows is dropped as well: the source would
// deliver its fill value, the uniform initial equilibrium the destination
// slot has held since it was initialized. (A slot dst reads is always
// stored by dst, whose rows hold every cell its fluid cells pull from.) It
// returns the runs, the number of values they move and the number of
// slots that storage shared with an arena keeps from moving.
func (k *runSink) compileLocal(src, dst *BlockData, srcReg, dstReg region, dirs []lattice.Direction, cl claims) ([]copyRun, int, int) {
	sf, df := src.Src, dst.Src
	if sf.Stencil != df.Stencil || sf.Layout != df.Layout {
		panic("sim: local copy requires matching stencil and layout")
	}
	var m slotMask
	if !dst.readsAll() || df.Rows().View() {
		m.bits = make([]byte, (len(dirs)*dstReg.cells()+7)/8)
		needMask(m.bits, 0, dst, dstReg, dirs)
	}
	aliased := cl.take(m.bits, 0, end{f: sf, lo: srcReg.lo}, end{f: df, lo: dstReg.lo}, dstReg.size(), dirs)
	runs, _, moved := k.lower(end{f: sf, lo: srcReg.lo}, end{f: df, lo: dstReg.lo}, srcReg.size(), dirs, m, nil)
	return runs, moved, aliased
}

// claims are the arena positions the plan writes, each with the source
// position that fills it (-1: a remote one, or a transfer between levels):
// the junction rule of rank arenas (docs/EXCHANGE.md, "Rank arenas").
// Views of one arena overlap in their ghost layers, so several transfers
// may name one position, and a transfer between two members names
// positions that are its own source. Only the ghost layer of an arena's
// box is claimed, in a table per arena keyed by its storage (positions of
// two arenas coincide). A source position beyond 32 bits — a cell its
// field does not store — reads as -2.
type claims map[*float64]*shell

// shell is the claim table of one arena: the extents of its ghosted box,
// and of its storage's, in which the box starts at cell off; per slot of
// the box's ghost layer (cell in z, y, x order, then direction) the
// claimed source position plus 3, 0 while unclaimed — made at the first
// claim, as an arena without remote or wrapped neighbours claims nothing.
type shell struct {
	ext, sto, off [3]int
	src           []uint32
}

// newClaims returns the empty claims of the rank's arenas.
func newClaims(s *Simulation) claims {
	cl, c := make(claims, len(s.arenas)), s.Forest.CellsPerBlock
	for _, a := range s.arenas {
		cl[&a.grid[0].Src.Data()[0]] = &shell{ext: [3]int{a.ext[0]*c[0] + 2, a.ext[1]*c[1] + 2, a.ext[2]*c[2] + 2},
			sto: [3]int{a.src.Nx + 2, a.src.Ny + 2, a.src.Nz + 2}, off: a.off}
	}
	return cl
}

// slot returns the table index of direction d of cell g of the ghost
// layer, g in ghosted coordinates (from 0).
func (sh *shell) slot(g [3]int, d lattice.Direction, q int) int {
	x, y, z := sh.ext[0], sh.ext[1], sh.ext[2]
	k := 2*x*y + (g[2]-1)*2*(x+y-2) // the cells of the layers and rows below g's
	switch {
	case g[2] == 0 || g[2] == z-1:
		k = (g[2]/(z-1)*y+g[1])*x + g[0]
	case g[1] == 0 || g[1] == y-1:
		k += g[1]/(y-1)*x + g[0]
	case g[0] == 0 || g[0] == x-1:
		k += 2*x + 2*(g[1]-1) + g[0]/(x-1)
	default:
		panic(fmt.Sprintf("sim: an arena claim inside its box, at %v", g))
	}
	return k*q + int(d)
}

// take clears from bits — the kept slots of a transfer into the ghost slab
// of dst (canonical order, from bit at on; extent ext) — every slot whose
// destination is an arena position that its source already is (src sharing
// dst's storage) or that an earlier transfer claimed, and claims the rest;
// it returns the number cleared. Positions of fields of their own are not
// claimed. Two transfers naming one position must read one source
// position: the position's one cell. Two views of one arena have its
// strides, so a slot's source and destination are one position for every
// slot of a transfer or for none.
func (cl claims) take(bits []byte, at int, src, dst end, ext [3]int, dirs []lattice.Direction) int {
	if !dst.f.Rows().View() {
		return 0
	}
	m, k, cleared := slotMask{bits: bits}, at, 0
	if src.f != nil && src.f.Rows().View() && &src.f.Data()[0] == &dst.f.Data()[0] &&
		src.f.Index(src.lo[0], src.lo[1], src.lo[2], dirs[0]) == dst.f.Index(dst.lo[0], dst.lo[1], dst.lo[2], dirs[0]) {
		for ; k < at+len(dirs)*ext[0]*ext[1]*ext[2]; k++ {
			if m.has(k) {
				bits[k>>3] &^= 1 << (k & 7)
				cleared++
			}
		}
		return cleared
	}
	sh := cl[&dst.f.Data()[0]]
	if e := sh.ext; sh.src == nil {
		sh.src = make([]uint32, (e[0]*e[1]*e[2]-(e[0]-2)*(e[1]-2)*(e[2]-2))*dst.f.Stencil.Q)
	}
	c := dst.f.CellIndex(dst.lo[0], dst.lo[1], dst.lo[2]) // the slab's first cell, in the storage
	g0 := [3]int{c%sh.sto[0] - sh.off[0], c/sh.sto[0]%sh.sto[1] - sh.off[1], c/(sh.sto[0]*sh.sto[1]) - sh.off[2]}
	for _, d := range dirs {
		for z := 0; z < ext[2]; z++ {
			for y := 0; y < ext[1]; y++ {
				for x := 0; x < ext[0]; x, k = x+1, k+1 {
					if !m.has(k) {
						continue
					}
					sp := -1
					if src.f != nil {
						sp = max(-2, min(src.f.Index(src.lo[0]+x, src.lo[1]+y, src.lo[2]+z, d), math.MaxInt32))
					}
					g := [3]int{g0[0] + x, g0[1] + y, g0[2] + z}
					prev := &sh.src[sh.slot(g, d, dst.f.Stencil.Q)]
					if *prev == 0 {
						*prev = uint32(sp + 3)
						continue
					}
					if int(*prev)-3 != sp {
						panic(fmt.Sprintf("sim: arena cell %v, direction %d filled from %d and %d", g, d, int(*prev)-3, sp))
					}
					bits[k>>3] &^= 1 << (k & 7)
					cleared++
				}
			}
		}
	}
	return cleared
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
	// mask is the need-mask of the receive manifest of a remote channel,
	// from the plan build to the handshake that sends it.
	mask []byte
	// bufs are the two persistent aggregate send buffers, used alternately
	// (see the ownership comment above); parity selects the next one. The
	// channel to the own rank has bufs[0] alone and keeps parity 0.
	bufs   [2][]float64
	parity int
	// req is the persistent receive request, re-posted every exchange.
	req comm.RecvRequest
	// inbox is the aggregate delivered for the current exchange (the
	// sender's buffer, zero-copy); cleared after unpack.
	inbox []float64
}

// packTask indexes one parallel task: the local copies
// locals[slabIdx:end] (chIdx < 0) or the slabs [slabIdx, end) of the
// manifest of channel chIdx.
type packTask struct {
	chIdx   int
	slabIdx int
	end     int
}

// localTaskFloats is the volume at which a task of local copies or slabs
// is closed. A masked transfer often moves a few dozen values — less than
// claiming a task and stamping its span costs — so small ones share a
// task, while a dense face of 16^2 cells or more still gets its own.
const localTaskFloats = 1024

func never(int) bool { return false }

// groupTasks appends the tasks of n consecutive items of channel ci (-1:
// the local copies), closing a task at localTaskFloats values; an item
// alone reports gets a task of its own.
func groupTasks(tasks []packTask, ci, n int, floats func(int) int, alone func(int) bool) []packTask {
	first, vol := 0, 0
	for i := 0; i < n; i++ {
		if alone(i) {
			if first < i {
				tasks = append(tasks, packTask{chIdx: ci, slabIdx: first, end: i})
			}
			tasks = append(tasks, packTask{chIdx: ci, slabIdx: i, end: i + 1})
			first, vol = i+1, 0
			continue
		}
		vol += floats(i)
		if vol >= localTaskFloats || i == n-1 {
			tasks = append(tasks, packTask{chIdx: ci, slabIdx: first, end: i + 1})
			first, vol = i+1, 0
		}
	}
	return tasks
}

// transferStats is the per-step volume of a plan and what the receivers'
// need-masks and the rank's arena removed from it.
type transferStats struct {
	localFloats        int // values the same-rank copies move
	localCopiesElided  int // block pairs whose need-mask came out empty
	localFloatsElided  int // values of the full local slabs no fluid cell reads
	localFloatsAliased int // values of the full local slabs an arena shares
	remoteFloatsElided int // values of the full received slabs that do not cross
}

// plan is the aggregated ghost exchange of one level: every transfer into
// a ghost layer of a block on that level that involves this rank, with the
// flattened pack/unpack task lists and their pool closures (stored once so
// the steady-state exchange allocates nothing). Its messages carry the tag
// tagAggregate+level.
type plan struct {
	level         int
	locals        []localOp
	stats         transferStats
	channels      []rankChannel
	packTasks     []packTask
	remotePacks   int // leading packTasks that fill messages to other ranks
	unpackTasks   []packTask
	remoteUnpacks int // leading unpackTasks that read messages from other ranks
	packFn        func(int, int)
	localFn       func(int, int) // packFn over the same-rank rest
	unpackFn      func(int, int)
	ownUnpackFn   func(int, int) // unpackFn over the same-rank rest
}

// buildPlans builds the plan of every level present: the ones of the
// local blocks and of their neighbors. There is always a level-0 plan.
// Between enumerating the transfers and lowering them it runs the mask
// handshake, which fails only when a peer does.
func buildPlans(s *Simulation) ([]plan, error) {
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
	copies := make([][]localCopy, top+1)
	cl := newClaims(s)
	for l := range plans {
		plans[l], copies[l] = buildPlan(s, l, byID, cl)
	}
	if err := exchangeMasks(s, plans); err != nil {
		return nil, err
	}
	for l := range plans {
		plans[l].lower(copies[l], s.Comm.Rank(), cl)
		s.bindTasks(&plans[l])
	}
	return plans, nil
}

// localCopy is a same-rank transfer on one level as enumerated, before it
// is lowered to a localOp: src's interior slab srcReg into dst's ghost
// slab dstReg.
type localCopy struct {
	src, dst       *BlockData
	srcReg, dstReg region
	dirs           []lattice.Direction
}

// buildPlan enumerates the ghost transfers into the level's blocks that
// involve a local block, from the local blocks' neighborhoods: the remote
// ones go into per-neighbor-rank channels with canonically ordered
// manifests, whose receive slabs get their need-masks; the same-rank ones
// between blocks of one level into the returned copies, the same-rank ones
// between levels into both manifests of the channel to the own rank. A
// local transfer is enumerated once, at its sender; a remote one at both
// ends, each deriving the same manifest key. The receive slabs into the
// rank's arenas claim their positions in cl in manifest order.
func buildPlan(s *Simulation, level int, byID map[blockforest.BlockID]*BlockData, cl claims) (plan, []localCopy) {
	me := s.Comm.Rank()
	p := plan{level: level}
	var copies []localCopy
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
				copies = append(copies, localCopy{src: bd, dst: peer, srcReg: reg, dstReg: recvRegion(peer.Block.Cells, o), dirs: dirs})
			}
		}
	}
	// Deterministic channel order (ascending neighbor rank) and canonical
	// manifest order within each channel.
	sort.Slice(p.channels, func(i, j int) bool { return p.channels[i].rank < p.channels[j].rank })
	for i := range p.channels {
		ch := &p.channels[i]
		sort.Slice(ch.send, func(a, b int) bool { return ch.send[a].key.less(ch.send[b].key) })
		sort.Slice(ch.recv, func(a, b int) bool { return ch.recv[a].key.less(ch.recv[b].key) })
		if mask := maskManifest(ch.recv, cl); ch.rank != me {
			ch.mask = mask
		} else { // the same transfers in the same order
			for k := range ch.send {
				ch.send[k].mask = ch.recv[k].mask
			}
		}
	}
	return p, copies
}

// maskManifest evaluates the need-mask of a channel's receive manifest
// into one bit string, slab after slab, and returns it: a slab keeps what
// its receiving block reads and no earlier transfer claimed (claims.take),
// a transfer between levels like one of a level. Two transfers from one
// leaf of another level may name one arena position — a member's face
// ghost and another's edge ghost — with one value; the first keeps it, as
// unpacks run concurrently.
func maskManifest(recv []slabOp, cl claims) []byte {
	bits := make([]byte, (manifestSlots(recv)+7)/8)
	at := 0
	for k := range recv {
		sl := &recv[k]
		needMask(bits, at, sl.bd, sl.reg, sl.dirs)
		cl.take(bits, at, end{}, end{f: sl.bd.Src, lo: sl.reg.lo}, sl.reg.size(), sl.dirs)
		sl.mask = slotMask{bits: bits, off: at}.simplify(sl.slots())
		at += sl.slots()
	}
	return bits
}

// exchangeMasks is the mask handshake of a plan build: every rank sends
// the mask of each remote channel's receive manifest to the channel's
// rank, then takes its peers' masks for its send manifests. Sends are
// eager, so sending all first cannot deadlock. It returns the transport's
// error when a peer has failed, and an error when a mask does not fit the
// manifest it is meant for.
func exchangeMasks(s *Simulation, plans []plan) error {
	me := s.Comm.Rank()
	for l := range plans {
		for i := range plans[l].channels {
			if ch := &plans[l].channels[i]; ch.rank != me && len(ch.recv) > 0 {
				if err := s.Comm.SendErr(ch.rank, tagNeedMask+l, ch.mask); err != nil {
					return err
				}
				ch.mask = nil
			}
		}
	}
	for l := range plans {
		for i := range plans[l].channels {
			ch := &plans[l].channels[i]
			if ch.rank == me || len(ch.send) == 0 {
				continue
			}
			data, _, err := s.Comm.RecvErr(ch.rank, tagNeedMask+l)
			if err != nil {
				return err
			}
			n := manifestSlots(ch.send)
			bits, ok := data.([]byte)
			if !ok || len(bits) != (n+7)/8 {
				return fmt.Errorf("sim: rank %d: level-%d need-mask from rank %d does not fit a manifest of %d slots", me, l, ch.rank, n)
			}
			at := 0
			for k := range ch.send {
				sl := &ch.send[k]
				sl.mask = slotMask{bits: bits, off: at}.simplify(sl.slots())
				at += sl.slots()
			}
		}
	}
	return nil
}

// lower lowers every transfer of the plan to index runs: the same-rank
// copies field to field, claiming arena positions in cl — the ones whose
// mask comes out empty leave the plan — the send slabs field to aggregate and the receive slabs aggregate
// to field, each against its mask. A slab's window is the prefix sum of
// the kept slots before it, so both ends of a channel agree on every
// position and the bytes stay layout-agnostic. A transfer between levels
// keeps its mask, whose kept slots the Resampler packs. Each transfer is
// lowered once and keeps an exact-size copy of its runs: they live as long
// as the plan, and on a world of many small blocks the growth slack of one
// appended list, or the garbage of compacting it, shows in the peak memory.
// A channel's send buffers are new, at the windows' size — two to
// alternate between for a remote channel, one for the channel to the own
// rank me, whose aggregate never leaves the rank — and every slot whose
// sender does not store the cell gets its fill value, once, in each.
func (p *plan) lower(copies []localCopy, me int, cl claims) {
	var sink runSink
	p.locals = make([]localOp, 0, len(copies))
	for _, c := range copies {
		runs, moved, aliased := sink.compileLocal(c.src, c.dst, c.srcReg, c.dstReg, c.dirs, cl)
		p.stats.localFloats += moved
		p.stats.localFloatsAliased += aliased
		p.stats.localFloatsElided += len(c.dirs)*c.srcReg.cells() - moved - aliased
		if moved == 0 {
			if aliased == 0 {
				p.stats.localCopiesElided++
			}
			continue
		}
		p.locals = append(p.locals, localOp{src: c.src, dst: c.dst, runs: runs, floats: moved})
	}
	var fills []fillSlot
	for i := range p.channels {
		ch := &p.channels[i]
		fills = fills[:0]
		ch.sendFloats = lowerManifest(ch.send, &sink, &fills, true)
		ch.recvFloats = lowerManifest(ch.recv, &sink, nil, false)
		for k := range ch.recv {
			p.stats.remoteFloatsElided += ch.recv[k].slots() - ch.recv[k].n
		}
		bufs := 2
		if ch.rank == me {
			bufs = 1
		}
		for b := range bufs {
			ch.bufs[b] = make([]float64, ch.sendFloats)
			for _, f := range fills {
				ch.bufs[b][f.pos] = f.v
			}
		}
	}
}

// lowerManifest lowers the slabs of one manifest in order onto the sink,
// drops their masks and returns the aggregate length.
func lowerManifest(slabs []slabOp, sink *runSink, fills *[]fillSlot, send bool) int {
	off := 0
	for k := range slabs {
		sl := &slabs[k]
		sl.off, sl.n = off, 0
		if sl.x != nil {
			for k := range sl.slots() {
				if sl.mask.has(k) {
					sl.n++
				}
			}
			sl.x.keep = sl.mask
		} else {
			blk, agg := end{f: sl.bd.Src, lo: sl.reg.lo}, end{at: off}
			src, dst := blk, agg
			if !send {
				src, dst = agg, blk
			}
			sl.runs, sl.n, _ = sink.lower(src, dst, sl.reg.size(), sl.dirs, sl.mask, fills)
		}
		sl.mask = slotMask{}
		off += sl.n
	}
	return off
}

// post starts the plan's exchange: the slabs bound for other ranks are
// packed on the worker pool, exactly one message per remote channel with a
// payload is sent from its current buffer and one receive per remote
// channel expecting one is posted; then the same-rank work — compiled
// copies and transfers between levels, packed and unpacked — runs on the
// pool while the messages travel, so only blocks that receive from another
// rank wait for complete. Every task writes disjoint ghost slots or
// disjoint aggregate positions. Steady-state, the whole phase performs
// zero heap allocations.
func (p *plan) post(s *Simulation) error {
	s.pool.run(p.remotePacks, p.packFn)
	me := s.Comm.Rank()
	for i := range p.channels {
		ch := &p.channels[i]
		switch {
		case ch.rank == me:
			ch.inbox = ch.bufs[0]
		case ch.sendFloats > 0:
			if err := s.Comm.SendFloat64s(ch.rank, tagAggregate+p.level, ch.bufs[ch.parity]); err != nil {
				return err
			}
			ch.parity ^= 1
		}
	}
	for i := range p.channels {
		if ch := &p.channels[i]; ch.rank != me && ch.recvFloats > 0 {
			s.Comm.IrecvInit(&ch.req, ch.rank, tagAggregate+p.level)
		}
	}
	s.pool.run(len(p.packTasks)-p.remotePacks, p.localFn)
	s.pool.run(len(p.unpackTasks)-p.remoteUnpacks, p.ownUnpackFn)
	return nil
}

// complete waits for each neighbor rank's aggregate and unpacks its slabs
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
	s.pool.run(p.remoteUnpacks, p.unpackFn)
	for i := range p.channels {
		p.channels[i].inbox = nil // the sender reclaims it two exchanges on
	}
	return nil
}

// bindTasks precomputes the flattened task lists and the pool closures of
// a plan, so post/complete allocate nothing per exchange (a fresh closure
// per pool.run call would escape to the heap).
func (s *Simulation) bindTasks(p *plan) {
	var own, ownUnpacks []packTask // transfers between levels to this rank: same-rank work
	for ci := range p.channels {
		ch := &p.channels[ci]
		sent := func(k int) int { return ch.send[k].n }
		resampled := func(k int) bool { return ch.send[k].x != nil }
		received := func(k int) int { return ch.recv[k].n }
		if ch.rank == s.Comm.Rank() {
			own = groupTasks(own, ci, len(ch.send), sent, resampled)
			ownUnpacks = groupTasks(ownUnpacks, ci, len(ch.recv), received, never)
		} else {
			p.packTasks = groupTasks(p.packTasks, ci, len(ch.send), sent, resampled)
			p.unpackTasks = groupTasks(p.unpackTasks, ci, len(ch.recv), received, never)
		}
	}
	p.remotePacks, p.remoteUnpacks = len(p.packTasks), len(p.unpackTasks)
	p.packTasks = append(p.packTasks, own...)
	p.unpackTasks = append(p.unpackTasks, ownUnpacks...)
	p.packTasks = groupTasks(p.packTasks, -1, len(p.locals), func(i int) int { return p.locals[i].floats }, never)
	p.packFn = func(worker, i int) {
		t := p.packTasks[i]
		lane := s.tel.worker(worker)
		start := lane.Start()
		if t.chIdx < 0 {
			for li := t.slabIdx; li < t.end; li++ {
				l := &p.locals[li]
				execRuns(l.dst.Src.Data(), l.src.Src.Data(), l.runs)
			}
			lane.Span(telemetry.PhaseLocalCopy, s.steps, int32(i), start)
			return
		}
		ch := &p.channels[t.chIdx]
		buf := ch.bufs[ch.parity] // the own rank's channel keeps parity 0
		phase := telemetry.PhasePack
		for k := t.slabIdx; k < t.end; k++ {
			if sl := &ch.send[k]; sl.x != nil {
				s.resample.Resample(sl.x, buf[sl.off:sl.off+sl.n], s.levelSweeps[p.level]&1, worker)
				phase = telemetry.PhaseResample
			} else {
				execRuns(buf, sl.bd.Src.Data(), sl.runs)
			}
		}
		lane.Span(phase, s.steps, int32(i), start)
	}
	p.localFn = func(worker, i int) { p.packFn(worker, p.remotePacks+i) }
	p.unpackFn = func(worker, i int) {
		t := p.unpackTasks[i]
		lane := s.tel.worker(worker)
		start := lane.Start()
		ch := &p.channels[t.chIdx]
		for k := t.slabIdx; k < t.end; k++ {
			sl := &ch.recv[k]
			execRuns(sl.bd.Src.Data(), ch.inbox, sl.runs)
		}
		lane.Span(telemetry.PhaseUnpack, s.steps, int32(i), start)
	}
	p.ownUnpackFn = func(worker, i int) { p.unpackFn(worker, p.remoteUnpacks+i) }
}

// aggregated is the exchanger of production: the level plans, of which a
// uniform world has one.
type aggregated struct{}

func (aggregated) build(s *Simulation) (map[*BlockData]bool, error) {
	s.levels = nil
	plans, err := buildPlans(s)
	if err != nil {
		return nil, err
	}
	s.levels = plans
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
	return remote, nil
}

func (aggregated) post(s *Simulation, level int) error     { return s.levels[level].post(s) }
func (aggregated) complete(s *Simulation, level int) error { return s.levels[level].complete(s) }

func (aggregated) stats(s *Simulation) ExchangeStats {
	var st ExchangeStats
	peers := make(map[int]bool)
	for l := range s.levels {
		p := &s.levels[l]
		st.LocalCopies += len(p.locals)
		st.LocalFloats += p.stats.localFloats
		st.LocalCopiesElided += p.stats.localCopiesElided
		st.LocalFloatsElided += p.stats.localFloatsElided
		st.LocalFloatsAliased += p.stats.localFloatsAliased
		st.RemoteFloatsElided += p.stats.remoteFloatsElided
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
