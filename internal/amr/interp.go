package amr

import (
	"math"
	"math/bits"
	"slices"

	"walberla/internal/blockforest"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/sim"
)

// Level-interface PDF transfer. Every transfer between levels — the ghost
// transfers the data plane packs (Resample), block splitting and block
// merging — runs one walk over a table lowered from it, so all three stay
// mutually consistent:
//
//   - prolongation: trilinear interpolation of a coarse field at the
//     fine cell centers, sampling clamped to the sender's interior so the
//     result never depends on the sender's ghost state (and therefore
//     not on the block distribution);
//   - restriction: the average of each aligned 2×2×2 fine cell group;
//   - then the rescaling of the non-equilibrium part, applied per
//     relaxation parity: f = f_eq + λ⁺ n⁺ + λ⁻ n⁻ with n± the even/odd
//     halves of f − f_eq over opposite direction pairs.
//
// The λ factors are the post-collision (Filippova–Hänel) ones,
//
//	λ_p,toFine = (τ_p,fine − 1) / (2 (τ_p,coarse − 1)),
//
// and the reciprocal going coarser, because the sweep kernels are fused
// stream-collide pulls: the stored state every exchange and migration
// reads is POST-collision, whose non-equilibrium part per parity p is
// (1 − 1/τ_p) n_pre with n_pre ≈ −τ_p Δt (∂_t + c·∇) f_eq, i.e.
// n_post ∝ (τ_p − 1) Δt. Two consequences worth spelling out:
//
//   - the pre-collision Dupuis–Chopard factor τ_f/(2 τ_c) is WRONG for
//     this data — with τ_c < 1 < τ_f it does not even have the right
//     sign, and the mis-scaled ghost stress acts as a persistent
//     momentum-flux defect at every interface (a linear shear profile
//     is then not a fixed point and visibly flattens near interfaces);
//   - each parity needs its own τ: under TRT the odd relaxation time
//     follows the magic-parameter constraint Λ = (τ⁺−½)(τ⁻−½), not the
//     acoustic 2^ℓ scaling of τ⁺ (SRT relaxes both parities with τ).
//
// At τ_p,src = 1 the source's post-collision non-equilibrium vanishes
// identically and carries no information; the factor degrades to 0
// (equilibrium transfer) instead of dividing by zero.
//
// A transfer is lowered once to a table (see table) and walked direction
// by direction over its flat entries, then rescaled cell by cell. Every
// value keeps the arithmetic order of the per-cell operator the walk
// replaced — x lerp, then y, then z into v := 0; a group summed x fastest
// from 0 — so its bits. All loops run in a fixed order with no
// reductions, so the walk is bitwise deterministic.

// interpScratch is a worker's scratch of lowering (tb, ax, slots, idx,
// cells) and walking: one direction's x and y pass results, and samples
// of up to two time levels (Resample). Each part grows to the largest
// transfer it serves, and is reused from transfer to transfer.
type interpScratch struct {
	tb          table
	ax          [3][]lerp
	slots, idx  []int32
	cells       []int
	x, y, f, f2 []float64
}

// lambdaPair carries the per-parity non-equilibrium scale factors of
// one transfer direction.
type lambdaPair struct {
	even, odd float64
}

// lerp is one entry of a pass: w0·in[a] + w1·in[b], where in is the
// source field on the x pass (positions at direction 0, -1 where the
// source does not store the cell) and the previous pass's results after.
// The weights are multiples of 1/4 in [-1/4, 5/4], exact in float32.
type lerp struct {
	a, b   int32
	w0, w1 float32
}

// table is a transfer lowered for one source shape and one destination:
// the n receiver cells that keep a slot, in box order, the passes that
// sample them — a prolongation's x pass over pairs of source positions, y
// pass over pairs of x results and z pass over pairs of y results, or a
// restriction's group of eight source positions per cell, a position the
// source does not store reading its fill value, as At does — and where
// their slots land.
type table struct {
	n       int
	dirs    []lattice.Direction
	eqs     uint32 // a bit per direction the rescale needs f_eq of: dirs and their inverses
	lam     lambdaPair
	ds      int    // the source's distance between directions
	x, y, z []lerp // prolonging; z has one entry per cell
	group   [][8]int32
	// dst is the destination position of slot (di, i) at dst[di*n+i],
	// -1 where the slot is not kept; empty when every slot is kept at
	// position di*n+i, as a ghost transfer without a dropped slot is.
	dst []int32
}

// lower lowers t read from src into tb, reusing its entries' storage, on
// sc's scratch: slot (di, ci) of the box cell p (box order, ci counting)
// lands at put(di, ci, p), which is -1 for a slot that is not kept; cells
// without a kept slot are not sampled.
func (s *Sim) lower(tb *table, t *sim.Transfer, src *field.PDFField, lam lambdaPair, sc *interpScratch, put func(di, ci int, p [3]int) int) *table {
	ext := [3]int{t.Hi[0] - t.Lo[0], t.Hi[1] - t.Lo[1], t.Hi[2] - t.Lo[2]}
	vol := ext[0] * ext[1] * ext[2]
	*tb = table{dirs: t.Dirs, lam: lam, ds: src.Index(0, 0, 0, 1) - src.Index(0, 0, 0, 0),
		x: tb.x[:0], y: tb.y[:0], z: tb.z[:0], group: tb.group[:0], dst: tb.dst[:0]}
	for _, d := range t.Dirs {
		tb.eqs |= 1<<d | 1<<src.Stencil.Inv[d]
	}
	box := func(ci int) [3]int { return [3]int{ci % ext[0], ci / ext[0] % ext[1], ci / (ext[0] * ext[1])} }
	slots := grow(sc.slots, len(t.Dirs)*vol)
	for k := range slots {
		b := box(k % vol)
		slots[k] = int32(put(k/vol, k%vol, [3]int{t.Lo[0] + b[0], t.Lo[1] + b[1], t.Lo[2] + b[2]}))
	}
	cells := sc.cells[:0]
	for ci := range vol {
		for k := ci; k < len(slots); k += vol {
			if slots[k] >= 0 {
				cells = append(cells, ci)
				break
			}
		}
	}
	sc.slots, sc.cells, tb.n = slots, cells, len(cells)
	for di := range t.Dirs {
		for _, ci := range cells {
			tb.dst = append(tb.dst, slots[di*vol+ci])
		}
	}
	pos := func(x, y, z int) int32 {
		if !src.Rows().Contains(x, y, z) {
			return -1
		}
		return int32(src.Index(x, y, z, 0))
	}
	if !t.ToFiner {
		for _, ci := range cells {
			b, g := box(ci), [8]int32{}
			for k := range g {
				g[k] = pos(2*(b[0]+t.Lo[0])+t.Base[0]+k&1, 2*(b[1]+t.Lo[1])+t.Base[1]+k>>1&1, 2*(b[2]+t.Lo[2])+t.Base[2]+k>>2)
			}
			tb.group = append(tb.group, g)
		}
		return tb
	}
	// Per axis and box coordinate the two source cells and their weights:
	// beyond the edge cell centers — every interface-adjacent fine ghost
	// cell lands 0.25 coarse cells past the last center — the weights
	// extrapolate linearly from the two nearest interior centers. Clamping
	// onto the edge center instead would shift those samples by a quarter
	// cell toward the block interior, a first-order bias that pumps
	// momentum across every coarse→fine interface sitting in a gradient.
	ax := &sc.ax
	for d := range ax {
		C := s.cfg.Cells[d]
		ax[d] = ax[d][:0]
		for f := t.Lo[d]; f < t.Hi[d]; f++ {
			q := (float64(f+t.Base[d]) + 0.5) / 2.0
			q -= 0.5 // cell-center coordinates
			lo := max(min(int(math.Floor(q)), C-2), 0)
			w1 := q - float64(lo)
			ax[d] = append(ax[d], lerp{int32(lo), int32(min(lo+1, C-1)), float32(1 - w1), float32(w1)})
		}
	}
	// The x results are keyed by box x and source (y, z), the y results by
	// box (x, y) and source z, each index stored plus one.
	y0, z0 := int(ax[1][0].a), int(ax[2][0].a)
	ny, nz := int(ax[1][ext[1]-1].b)-y0+1, int(ax[2][ext[2]-1].b)-z0+1
	sc.idx = grow(sc.idx, ext[0]*(ny+ext[1])*nz)
	clear(sc.idx)
	xi, yi := sc.idx[:ext[0]*ny*nz], sc.idx[ext[0]*ny*nz:]
	xAt := func(bx int, cy, cz int32) int32 {
		k := &xi[(int(cz)-z0)*ny*ext[0]+(int(cy)-y0)*ext[0]+bx]
		if *k == 0 {
			w := ax[0][bx]
			tb.x = append(tb.x, lerp{pos(int(w.a), int(cy), int(cz)), pos(int(w.b), int(cy), int(cz)), w.w0, w.w1})
			*k = int32(len(tb.x))
		}
		return *k - 1
	}
	yAt := func(bx, by int, cz int32) int32 {
		k := &yi[(int(cz)-z0)*ext[1]*ext[0]+by*ext[0]+bx]
		if *k == 0 {
			w := ax[1][by]
			tb.y = append(tb.y, lerp{xAt(bx, w.a, cz), xAt(bx, w.b, cz), w.w0, w.w1})
			*k = int32(len(tb.y))
		}
		return *k - 1
	}
	for _, ci := range cells {
		b := box(ci)
		w := ax[2][b[2]]
		tb.z = append(tb.z, lerp{yAt(b[0], b[1], w.a), yAt(b[0], b[1], w.b), w.w0, w.w1})
	}
	return tb
}

// read is the value at source position p plus off, or fill where the
// source does not store the cell.
func read(data []float64, p int32, off int, fill float64) float64 {
	if p < 0 {
		return fill
	}
	return data[int(p)+off]
}

// sample writes the samples of src at the table's cells to out, Q values
// per cell in cell order.
func (tb *table) sample(src *field.PDFField, out []float64, sc *interpScratch) {
	data, q := src.Data(), src.Stencil.Q
	sc.x, sc.y = grow(sc.x, len(tb.x)), grow(sc.y, len(tb.y))
	for a := range q {
		off, fill := a*tb.ds, src.FillValue(lattice.Direction(a))
		for i, g := range tb.group {
			v := 0.0
			for _, p := range g {
				v += read(data, p, off, fill)
			}
			out[i*q+a] = v * 0.125
		}
		for i, e := range tb.x {
			sc.x[i] = float64(e.w0)*read(data, e.a, off, fill) + float64(e.w1)*read(data, e.b, off, fill)
		}
		for i, e := range tb.y {
			sc.y[i] = float64(e.w0)*sc.x[e.a] + float64(e.w1)*sc.x[e.b]
		}
		for i, e := range tb.z {
			v := 0.0
			v += float64(e.w0) * sc.y[e.a]
			v += float64(e.w1) * sc.y[e.b]
			out[i*q+a] = v
		}
	}
}

// rescale rescales the non-equilibrium part of the table's samples f, each
// direction parity by its own factor, and writes the kept slots to out.
// The moments are those of the whole vector, but f_eq is needed only at
// the table's directions and their inverses: a ghost pack keeps 5 of 19
// directions across a face and 1 across an edge. f_eq is the expression
// of lattice.Stencil.EquilibriumDir with u² evaluated once per cell, so
// its bits.
func (tb *table) rescale(st *lattice.Stencil, f, out []float64) {
	q, lam := st.Q, tb.lam
	var feq [lattice.Q19]float64 // refined worlds run D3Q19
	for i := range tb.n {
		v := f[i*q : (i+1)*q]
		rho, ux, uy, uz := st.Moments(v)
		usq := 1.5 * (ux*ux + uy*uy + uz*uz)
		for m := tb.eqs; m != 0; m &= m - 1 {
			a := bits.TrailingZeros32(m)
			cu := 3.0 * (float64(st.Cx[a])*ux + float64(st.Cy[a])*uy + float64(st.Cz[a])*uz)
			feq[a] = st.W[a] * rho * (1.0 + cu + 0.5*cu*cu - usq)
		}
		for di, a := range tb.dirs {
			d := int32(di*tb.n + i)
			if len(tb.dst) > 0 {
				d = tb.dst[d]
			}
			if d >= 0 {
				ab := st.Inv[a]
				na, nb := v[a]-feq[a], v[ab]-feq[ab]
				out[d] = feq[a] + lam.even*(0.5*(na+nb)) + lam.odd*(0.5*(na-nb))
			}
		}
	}
}

// clone returns a copy of tb that holds exact-size copies of its entries.
func (tb table) clone() *table {
	tb.x, tb.y, tb.z, tb.group, tb.dst = slices.Clone(tb.x), slices.Clone(tb.y), slices.Clone(tb.z), slices.Clone(tb.group), slices.Clone(tb.dst)
	return &tb
}

// grow returns b resized to n values, reallocated only to grow.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// postNeqRatio is the post-collision non-equilibrium scale factor for a
// src → dst transfer of one parity: (τ_dst − 1) Δt_dst over
// (τ_src − 1) Δt_src with dtRatio = Δt_dst/Δt_src. Zero when the source
// relaxes at τ = 1 (its post-collision non-equilibrium is identically
// zero, so there is nothing to rescale).
func postNeqRatio(tauDst, tauSrc, dtRatio float64) float64 {
	d := tauSrc - 1
	if math.Abs(d) < 1e-12 {
		return 0
	}
	return dtRatio * (tauDst - 1) / d
}

// lambdas is the non-equilibrium scale pair of a transfer between the
// adjacent levels fineLevel-1 and fineLevel: coarse(src) → fine(dst)
// toFiner, the inverse pair otherwise.
func (s *Sim) lambdas(fineLevel int, toFiner bool) lambdaPair {
	c, dst, src, dt := &s.plane.Config, fineLevel, fineLevel-1, 0.5
	if !toFiner {
		dst, src, dt = src, dst, 2
	}
	return lambdaPair{even: postNeqRatio(c.TauAt(dst), c.TauAt(src), dt), odd: postNeqRatio(tauOddAt(c, dst), tauOddAt(c, src), dt)}
}

// Resample computes the refined world's transfers between levels (the
// refiner's sim.Resampler), packed at the receiver's resolution: the
// slots the receiver keeps, through the table the transfer's first pack
// lowers. A coarse sender is sampled at the receiving sub-step's start
// time: it has already swept, so its pre-sweep state sits in Dst and its
// post-sweep state in Src — phase 0 (first half of the parent interval)
// reads Dst, phase 1 the midpoint average ½(Dst+Src), linear temporal
// interpolation.
//
// Nothing writes the coarse fields between the two phases — only finer
// levels run, and their exchanges write only their own ghosts — so phase
// 0 keeps its raw Dst samples in the transfer's memo, stamped with the
// sender level's sub-step count (sim.Simulation.LevelSweeps), and phase 1
// samples only Src. A phase 1 that finds another stamp samples Dst again.
func (r refiner) Resample(t *sim.Transfer, buf []float64, phase, worker int) {
	s, level, q, sc := r.Sim, int(t.Src.Block.ID.Level), r.cfg.Stencil.Q, &r.scratch[worker]
	tb, _ := t.Table.(*table)
	if tb == nil {
		vol, k, fine := (t.Hi[0]-t.Lo[0])*(t.Hi[1]-t.Lo[1])*(t.Hi[2]-t.Lo[2]), 0, level
		if t.ToFiner {
			fine++
		}
		tb = s.lower(&sc.tb, t, t.Src.Src, s.lambdas(fine, t.ToFiner), sc, func(di, ci int, _ [3]int) int {
			if !t.Kept(di*vol + ci) {
				return -1
			}
			k++
			return k - 1
		})
		if k == len(tb.dst) {
			tb.dst = tb.dst[:0] // every slot kept, in order
		}
		tb = tb.clone()
		if t.Table = tb; t.ToFiner {
			t.Memo = make([]float64, tb.n*q)
		}
	}
	sc.f = grow(sc.f, tb.n*q)
	f := sc.f
	switch sweeps := s.plane.LevelSweeps(level); {
	case !t.ToFiner:
		tb.sample(t.Src.Src, f, sc)
	case phase == 0:
		tb.sample(t.Src.Dst, t.Memo, sc)
		f, t.MemoStamp = t.Memo, sweeps
	default:
		m := t.Memo
		if t.MemoStamp != sweeps {
			tb.sample(t.Src.Dst, f, sc)
			m = f
		}
		sc.f2 = grow(sc.f2, len(f))
		tb.sample(t.Src.Src, sc.f2, sc)
		for i := range f {
			f[i] = 0.5 * (m[i] + sc.f2[i])
		}
	}
	tb.rescale(r.cfg.Stencil, f, buf)
}

// resampleBlock runs the whole-stencil transfer t from each field pair's
// first into its second's interior cells, the cells it does not store
// keeping its fill like every solid cell there; the pairs share their
// shapes, so one table serves them.
func (s *Sim) resampleBlock(t *sim.Transfer, lam lambdaPair, sc *interpScratch, pairs ...[2]*field.PDFField) {
	dst := pairs[0][1]
	tb := s.lower(&sc.tb, t, pairs[0][0], lam, sc, func(di, _ int, p [3]int) int {
		if !dst.Rows().Contains(p[0], p[1], p[2]) {
			return -1
		}
		return dst.Index(p[0], p[1], p[2], t.Dirs[di])
	})
	sc.f = grow(sc.f, tb.n*s.cfg.Stencil.Q)
	for _, p := range pairs {
		tb.sample(p[0], sc.f, sc)
		tb.rescale(s.cfg.Stencil, sc.f, p[1].Data())
	}
}

// prolong fills the interior of both of child's fields from its parent's:
// the child's octant of the parent's 2× subdivision, rescaled for the
// finer level, on worker's scratch.
func (s *Sim) prolong(parent, child *sim.BlockData, worker int) {
	C, oct := s.cfg.Cells, child.Block.ID.Octant()
	t := sim.Transfer{ToFiner: true, Hi: C, Dirs: s.allDirs,
		Base: [3]int{(oct & 1) * C[0], (oct >> 1 & 1) * C[1], (oct >> 2 & 1) * C[2]}}
	s.resampleBlock(&t, s.lambdas(int(child.Block.ID.Level), true), &s.scratch[worker], [2]*field.PDFField{parent.Src, child.Src}, [2]*field.PDFField{parent.Dst, child.Dst})
}

// restrict fills one octant of a parent field's interior from a child
// field, rescaled for the coarser level.
func (s *Sim) restrict(child *field.PDFField, id blockforest.BlockID, parent *field.PDFField) {
	C, oct := s.cfg.Cells, id.Octant()
	org := [3]int{(oct & 1) * C[0] / 2, (oct >> 1 & 1) * C[1] / 2, (oct >> 2 & 1) * C[2] / 2}
	t := sim.Transfer{Lo: org, Hi: [3]int{org[0] + C[0]/2, org[1] + C[1]/2, org[2] + C[2]/2},
		Base: [3]int{-2 * org[0], -2 * org[1], -2 * org[2]}, Dirs: s.allDirs}
	s.resampleBlock(&t, s.lambdas(int(id.Level), false), &s.scratch[0], [2]*field.PDFField{child, parent})
}
