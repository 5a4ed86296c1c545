package amr

import (
	"math"

	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/sim"
)

// Level-interface PDF transfer. Three operators share the same
// arithmetic so ghost exchange (the Resample the data plane calls when it
// packs a transfer between levels), block splitting and block merging stay
// mutually consistent:
//
//   - sampleCoarse: trilinear interpolation of a coarse field at a fine
//     cell center, sampling clamped to the sender's interior so the
//     result never depends on the sender's ghost state (and therefore
//     not on the block distribution);
//   - restrictFine: average of an aligned 2×2×2 fine cell group;
//   - rescaleNeq: rescaling of the non-equilibrium part, applied per
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
// All loops run in a fixed order with no reductions, so every operator
// is bitwise deterministic. Reads go through storage where the field's
// allocation window holds the cells (always, unless a leaf has solid
// cells and no per-cell initial state) and through At, the window's fill
// outside, otherwise.

// interpScratch is the per-worker scratch of the transfer operators.
// f2 holds the second time level of a temporally interpolated
// coarse→fine sample (see Resample).
type interpScratch struct {
	f   []float64
	f2  []float64
	feq []float64
	neq []float64
}

func newInterpScratch(q int) interpScratch {
	return interpScratch{
		f: make([]float64, q), f2: make([]float64, q),
		feq: make([]float64, q), neq: make([]float64, q),
	}
}

// lambdaPair carries the per-parity non-equilibrium scale factors of
// one transfer direction.
type lambdaPair struct {
	even, odd float64
}

// rescaleNeq rescales the non-equilibrium part of f in place, each
// direction parity by its own factor, for the directions dirs only; the
// other entries of f keep their value. The moments are those of the
// whole vector, but f_eq is needed only at dirs and their inverses: a
// ghost pack keeps 5 of 19 directions across a face and 1 across an
// edge, so unless dirs is the whole stencil the rescale evaluates
// EquilibriumDir there instead of the full Equilibrium — the same
// expression, so the same bits.
func (s *Sim) rescaleNeq(f []float64, dirs []lattice.Direction, lam lambdaPair, sc *interpScratch) {
	st := s.cfg.Stencil
	rho, ux, uy, uz := st.Moments(f)
	if len(dirs) == st.Q {
		st.Equilibrium(sc.feq, rho, ux, uy, uz)
		for a := range f {
			sc.neq[a] = f[a] - sc.feq[a]
		}
	} else {
		for _, a := range dirs {
			ab := st.Inv[a]
			sc.feq[a] = st.EquilibriumDir(a, rho, ux, uy, uz)
			sc.neq[a] = f[a] - sc.feq[a]
			sc.neq[ab] = f[ab] - st.EquilibriumDir(ab, rho, ux, uy, uz)
		}
	}
	for _, a := range dirs {
		ab := st.Inv[a]
		p := 0.5 * (sc.neq[a] + sc.neq[ab])
		m := 0.5 * (sc.neq[a] - sc.neq[ab])
		f[a] = sc.feq[a] + lam.even*p + lam.odd*m
	}
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

// lambdaToFine is the non-equilibrium scale pair for coarse(src) →
// fine(dst) transfer between adjacent levels.
func (s *Sim) lambdaToFine(fineLevel int) lambdaPair {
	c := &s.plane.Config
	return lambdaPair{
		even: postNeqRatio(c.TauAt(fineLevel), c.TauAt(fineLevel-1), 0.5),
		odd:  postNeqRatio(tauOddAt(c, fineLevel), tauOddAt(c, fineLevel-1), 0.5),
	}
}

// lambdaToCoarse is the inverse pair for fine(src) → coarse(dst).
func (s *Sim) lambdaToCoarse(fineLevel int) lambdaPair {
	c := &s.plane.Config
	return lambdaPair{
		even: postNeqRatio(c.TauAt(fineLevel-1), c.TauAt(fineLevel), 2),
		odd:  postNeqRatio(tauOddAt(c, fineLevel-1), tauOddAt(c, fineLevel), 2),
	}
}

// Resample computes the refined world's transfers between levels (the
// refiner's sim.Resampler), packed at the receiver's resolution. A coarse sender is sampled
// at the receiving sub-step's start time: it has already swept, so its
// pre-sweep state sits in Dst and its post-sweep state in Src — phase 0
// (first half of the parent interval) reads Dst, phase 1 the midpoint
// average ½(Dst+Src), linear temporal interpolation.
//
// Nothing writes the coarse fields between the two phases — only finer
// levels run, and their exchanges write only their own ghosts — so phase
// 0 keeps its raw Dst samples in the transfer's memo, stamped with the
// sender level's sub-step count (sim.Simulation.LevelSweeps), and phase 1
// samples only Src. A phase 1 that finds another stamp samples Dst again.
func (r refiner) Resample(t *sim.Transfer, buf []float64, phase, worker int) {
	s, level := r.Sim, int(t.Src.Block.ID.Level)
	vol := (t.Hi[0] - t.Lo[0]) * (t.Hi[1] - t.Lo[1]) * (t.Hi[2] - t.Lo[2])
	src, src2, memo, lam := t.Src.Src, (*field.PDFField)(nil), []float64(nil), s.lambdaToCoarse(level)
	if t.ToFiner {
		src, lam = t.Src.Dst, s.lambdaToFine(level+1)
		switch sweeps := s.plane.LevelSweeps(level); {
		case phase == 0:
			memo, t.MemoStamp = t.Memo, sweeps
		case t.MemoStamp == sweeps:
			memo, src2 = t.Memo, t.Src.Src
		default:
			src2 = t.Src.Src
		}
	}
	s.transfer(t, src, src2, memo, lam, &s.scratch[worker], func(ci int, _ [3]int, f []float64) {
		for di, a := range t.Dirs {
			buf[di*vol+ci] = f[a]
		}
	})
}

// transfer is the loop of all three operators: for every cell p of t's
// receiver box [Lo, Hi), in slab order (ci counts them), the receiver's
// PDF vector — sampled at cell p+Base of the coarse src's 2× subdivision
// (averaged with the sample of src2, if set) when t prolongs, the 2×2×2
// group of the fine src at 2p+Base otherwise — rescaled by lam at t.Dirs
// and handed to put. memo, if set, holds the raw samples of src, Q
// values per cell: a prolongation without src2 writes them, one with
// src2 reads them instead of sampling src.
func (s *Sim) transfer(t *sim.Transfer, src, src2 *field.PDFField, memo []float64, lam lambdaPair, sc *interpScratch, put func(ci int, p [3]int, f []float64)) {
	q := len(sc.f)
	lo, hi, base := t.Lo, t.Hi, t.Base
	ci := 0
	for z := lo[2]; z < hi[2]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			for x := lo[0]; x < hi[0]; x++ {
				F := [3]int{x + base[0], y + base[1], z + base[2]}
				var m []float64
				if memo != nil {
					m = memo[ci*q : (ci+1)*q]
				}
				switch {
				case !t.ToFiner:
					restrictFine(src, [3]int{F[0] + x, F[1] + y, F[2] + z}, sc.f)
				case src2 == nil:
					s.sampleCoarse(src, F, sc.f)
					copy(m, sc.f)
				default:
					if m == nil {
						s.sampleCoarse(src, F, sc.f)
						m = sc.f
					}
					s.sampleCoarse(src2, F, sc.f2)
					for a := range sc.f {
						sc.f[a] = 0.5 * (m[a] + sc.f2[a])
					}
				}
				s.rescaleNeq(sc.f, t.Dirs, lam, sc)
				put(ci, [3]int{x, y, z}, sc.f)
				ci++
			}
		}
	}
}

// sampleCoarse gathers the full PDF vector of a coarse field at the
// center of fine cell F of the sender's 2× subdivision (F in units of
// half the coarse cell size, possibly outside [0, 2C) for ghost
// targets). Only interior values are read: positions beyond the edge
// cell centers — every interface-adjacent fine ghost cell lands 0.25
// coarse cells past the last center — extrapolate linearly from the
// two nearest interior centers. Clamping onto the edge center instead
// would shift those samples by a quarter cell toward the block
// interior, a first-order bias that pumps momentum across every
// coarse→fine interface sitting in a gradient.
func (s *Sim) sampleCoarse(src *field.PDFField, F [3]int, out []float64) {
	C := s.cfg.Cells
	var i0, i1 [3]int
	var w1 [3]float64
	for d := 0; d < 3; d++ {
		q := (float64(F[d]) + 0.5) / 2.0
		q -= 0.5 // cell-center coordinates
		lo := int(math.Floor(q))
		if lo > C[d]-2 {
			lo = C[d] - 2
		}
		if lo < 0 {
			lo = 0
		}
		i0[d], i1[d] = lo, lo+1
		if i1[d] > C[d]-1 {
			i1[d] = C[d] - 1
		}
		w1[d] = q - float64(lo)
	}
	w0 := [3]float64{1 - w1[0], 1 - w1[1], 1 - w1[2]}
	// A field storing its whole block addresses the corners with constant
	// strides; any other reads them through At.
	stored := src.Rows().Full()
	var p0, ds int
	var off [8]int
	if stored {
		p0, ds, off = cornerOffsets(src, i0, i1)
	}
	data := src.Data()
	for a := range out {
		d := lattice.Direction(a)
		var c [8]float64 // the corners, x fastest
		if stored {
			p := p0 + a*ds
			c = [8]float64{
				data[p+off[0]], data[p+off[1]], data[p+off[2]], data[p+off[3]],
				data[p+off[4]], data[p+off[5]], data[p+off[6]], data[p+off[7]],
			}
		} else {
			c = [8]float64{
				src.At(i0[0], i0[1], i0[2], d), src.At(i1[0], i0[1], i0[2], d),
				src.At(i0[0], i1[1], i0[2], d), src.At(i1[0], i1[1], i0[2], d),
				src.At(i0[0], i0[1], i1[2], d), src.At(i1[0], i0[1], i1[2], d),
				src.At(i0[0], i1[1], i1[2], d), src.At(i1[0], i1[1], i1[2], d),
			}
		}
		v := 0.0
		v += w0[2] * (w0[1]*(w0[0]*c[0]+w1[0]*c[1]) + w1[1]*(w0[0]*c[2]+w1[0]*c[3]))
		v += w1[2] * (w0[1]*(w0[0]*c[4]+w1[0]*c[5]) + w1[1]*(w0[0]*c[6]+w1[0]*c[7]))
		out[a] = v
	}
}

// cornerOffsets addresses the eight corners of the cell box with low
// corner lo and high corner hi of a field storing its whole block once for
// all directions: the corner k (x fastest) of direction a is at
// p0 + a*ds + off[k] in src.Data().
func cornerOffsets(src *field.PDFField, lo, hi [3]int) (p0, ds int, off [8]int) {
	p0 = src.Index(lo[0], lo[1], lo[2], 0)
	ds = src.Index(lo[0], lo[1], lo[2], 1) - p0
	sx := src.Index(hi[0], lo[1], lo[2], 0) - p0
	sy := src.Index(lo[0], hi[1], lo[2], 0) - p0
	sz := src.Index(lo[0], lo[1], hi[2], 0) - p0
	return p0, ds, [8]int{0, sx, sy, sx + sy, sz, sx + sz, sy + sz, sx + sy + sz}
}

// restrictFine averages the aligned 2×2×2 fine cell group with origin
// F (fine interior coordinates; the group never straddles blocks
// because cells per block is even).
func restrictFine(src *field.PDFField, F [3]int, out []float64) {
	hi := [3]int{F[0] + 1, F[1] + 1, F[2] + 1}
	if src.Rows().Full() {
		p0, ds, off := cornerOffsets(src, F, hi)
		data := src.Data()
		for a := range out {
			p := p0 + a*ds
			v := 0.0
			for _, o := range off {
				v += data[p+o]
			}
			out[a] = v * 0.125
		}
		return
	}
	for a := range out {
		d := lattice.Direction(a)
		v := 0.0
		for bz := 0; bz < 2; bz++ {
			for by := 0; by < 2; by++ {
				for bx := 0; bx < 2; bx++ {
					v += src.At(F[0]+bx, F[1]+by, F[2]+bz, d)
				}
			}
		}
		out[a] = v * 0.125
	}
}

// prolongBlock fills the interior of a child field from its parent:
// child octant oct of the parent's 2× subdivision, rescaled for the finer
// level.
func (s *Sim) prolongBlock(parent *field.PDFField, oct int, fineLevel int, child *field.PDFField, sc *interpScratch) {
	C := s.cfg.Cells
	t := sim.Transfer{ToFiner: true, Hi: C, Dirs: s.allDirs,
		Base: [3]int{(oct & 1) * C[0], (oct >> 1 & 1) * C[1], (oct >> 2 & 1) * C[2]}}
	s.transfer(&t, parent, nil, nil, s.lambdaToFine(fineLevel), sc, func(_ int, p [3]int, f []float64) {
		setCell(child, p, f)
	})
}

// restrictBlock fills one octant of a parent field's interior from a
// child, rescaled for the coarser level.
func (s *Sim) restrictBlock(child *field.PDFField, oct int, fineLevel int, parent *field.PDFField, sc *interpScratch) {
	C := s.cfg.Cells
	org := [3]int{(oct & 1) * C[0] / 2, (oct >> 1 & 1) * C[1] / 2, (oct >> 2 & 1) * C[2] / 2}
	t := sim.Transfer{Lo: org, Hi: [3]int{org[0] + C[0]/2, org[1] + C[1]/2, org[2] + C[2]/2},
		Base: [3]int{-2 * org[0], -2 * org[1], -2 * org[2]}, Dirs: s.allDirs}
	s.transfer(&t, child, nil, nil, s.lambdaToCoarse(fineLevel), sc, func(_ int, p [3]int, f []float64) {
		setCell(parent, p, f)
	})
}

// setCell stores a PDF vector at an interior cell of f if f stores the
// cell; elsewhere the cell keeps f's fill, like every solid cell there.
func setCell(f *field.PDFField, p [3]int, v []float64) {
	if f.Rows().Contains(p[0], p[1], p[2]) {
		for a, x := range v {
			f.Set(p[0], p[1], p[2], lattice.Direction(a), x)
		}
	}
}
