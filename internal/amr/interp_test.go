package amr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/sim"
)

// recorder is the refined world's resampler, remembering every transfer
// it packs.
type recorder struct {
	refiner
	seen map[*sim.Transfer]bool
}

func (r *recorder) Resample(t *sim.Transfer, buf []float64, phase, worker int) {
	r.seen[t] = true
	r.refiner.Resample(t, buf, phase, worker)
}

// kept gathers the slots of a transfer's whole window (PackRegion order)
// that its receiver keeps: what Resample packs.
func kept(t *sim.Transfer, window []float64) []float64 {
	var out []float64
	for k, v := range window {
		if t.Kept(k) {
			out = append(out, v)
		}
	}
	return out
}

// resampled packs a transfer at a phase through Resample.
func resampled(s *Sim, t *sim.Transfer, phase int) []float64 {
	vol := (t.Hi[0] - t.Lo[0]) * (t.Hi[1] - t.Lo[1]) * (t.Hi[2] - t.Lo[2])
	n := 0
	for k := range len(t.Dirs) * vol {
		if t.Kept(k) {
			n++
		}
	}
	buf := make([]float64, n)
	refiner{s}.Resample(t, buf, phase, 0)
	return buf
}

// fresh returns a transfer as the plan build makes it: no table, no memo
// and no memo stamp yet.
func fresh(t *sim.Transfer) *sim.Transfer {
	f := *t
	f.Table, f.Memo, f.MemoStamp = nil, nil, -1
	return &f
}

// sameBits reports the first value where got and want differ in bits.
func sameBits(got, want []float64) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// recordedTransfers builds the static three-level forest of cfg on one
// rank (refineFirstColumn), steps it twice and returns every transfer
// between levels a coarse step packs.
func recordedTransfers(c *comm.Comm, cfg Config) (*Sim, []*sim.Transfer, error) {
	s, err := New(c, cfg)
	if err == nil {
		err = refineFirstColumn(s)
	}
	if err == nil {
		err = run(s, 2)
	}
	rec := &recorder{refiner: refiner{s}, seen: map[*sim.Transfer]bool{}}
	if err == nil {
		err = s.plane.SetBlocks(slices.Clone(s.plane.Blocks), rec)
	}
	if err == nil {
		err = s.Step()
	}
	if err != nil {
		return nil, nil, err
	}
	var ts []*sim.Transfer
	for x := range rec.seen {
		ts = append(ts, x)
	}
	return s, ts, nil
}

// TestResampleMemoMatchesRecompute: on a static three-level forest, in
// both layouts, every coarse→fine transfer packs at phase 0 and at phase 1
// exactly the kept slots of a full recompute — the phase-1 pack reading
// phase 0's memo, and a phase 1 whose memo is missing (no phase 0 since
// the plan built the transfer) or stale (the sender level stepped since)
// sampling Dst again. A coarse step through a recording resampler finds
// the transfers; each is checked as a plan build makes it (no table and no
// memo yet), at the phase the step hands the resampler. A memo poisoned
// with NaN shows whether a pack read it.
func TestResampleMemoMatchesRecompute(t *testing.T) {
	for _, layout := range []sim.LayoutChoice{sim.LayoutAoS, sim.LayoutSoA} {
		comm.Run(1, func(c *comm.Comm) {
			cfg := baseConfig(1, layout)
			cfg.Refinement.Interval = 0
			s, seen, err := recordedTransfers(c, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			var toFiner []*sim.Transfer
			byLevel := map[int]int{}
			for _, x := range seen {
				if x.ToFiner {
					toFiner = append(toFiner, fresh(x))
					byLevel[int(x.Src.Block.ID.Level)]++
				}
			}
			if byLevel[0] == 0 || byLevel[1] == 0 {
				t.Errorf("%v: coarse→fine transfers per sender level %v, want some from levels 0 and 1", layout, byLevel)
				return
			}
			check := func(what string, x *sim.Transfer, phase int) {
				t.Helper()
				got, want := resampled(s, x, phase), kept(x, referenceResample(s, x, phase, s.allDirs))
				if i, ok := sameBits(got, want); !ok {
					t.Errorf("%v %s: transfer from %v, value %d of %d: got %v, recomputed %v", layout, what, x.Src.Block.ID, i, len(want), got, want)
				}
			}
			poison := func(x *sim.Transfer) {
				for i := range x.Memo {
					x.Memo[i] = math.NaN()
				}
			}
			for _, x := range toFiner {
				check("phase 1, memo missing", x, 1)
				check("phase 0", x, 0)
				check("phase 1, memo read", x, 1)
				// The stamp is valid, so a poisoned memo now is what phase 1 reads.
				poison(x)
				if got := resampled(s, x, 1); len(got) > 0 && !math.IsNaN(got[0]) {
					t.Errorf("%v: phase 1 with a valid stamp from %v did not read its memo", layout, x.Src.Block.ID)
				}
			}
			// A coarse step sweeps every sender level again.
			if err := s.Step(); err != nil {
				t.Error(err)
				return
			}
			for _, x := range toFiner {
				poison(x)
				check("phase 1, memo stale", x, 1)
			}
		})
	}
}

// TestTableWalkMatchesPerCellOperator: the table walk gives the bits of the
// per-cell operator it replaced (refTransfer) for every transfer
// between levels of the static three-level forest — faces, edges, both
// directions — in both layouts, on sources that store every cell (all
// fluid, a per-cell initial state) and on sources that do not (a solid
// slab, no initial state, cells past it outside the rows), at phase 0,
// at phase 1 reading the memo and at phase 1 past a stale one; and so do
// the whole-block prolongation and restriction of the regrade. The fields
// are randomized first, every stored slot, so no two samples coincide.
func TestTableWalkMatchesPerCellOperator(t *testing.T) {
	for _, layout := range []sim.LayoutChoice{sim.LayoutAoS, sim.LayoutSoA} {
		for _, solid := range []bool{false, true} {
			comm.Run(1, func(c *comm.Comm) {
				cfg := baseConfig(1, layout)
				cfg.Refinement.Interval = 0
				if solid {
					cfg.InitialState, cfg.InitialVelocity = nil, [3]float64{0.02, 0.01, 0}
					cfg.SetupFlags = func(b *blockforest.Block, _ *blockforest.BlockForest, f *field.FlagField) {
						f.Fill(field.Fluid)
						for z := range b.Cells[2] {
							for y := range b.Cells[1] {
								for x := b.Cells[0] - 3; x < b.Cells[0]; x++ {
									f.Set(x, y, z, field.NoSlip)
								}
							}
						}
					}
				}
				s, seen, err := recordedTransfers(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				randomize(s)
				what := fmt.Sprintf("%v solid=%v", layout, solid)
				shapes, unstored := map[[4]int]bool{}, 0
				for _, x := range seen {
					ext := [3]int{x.Hi[0] - x.Lo[0], x.Hi[1] - x.Lo[1], x.Hi[2] - x.Lo[2]}
					toFiner := 0
					if x.ToFiner {
						toFiner = 1
					}
					shapes[[4]int{ext[0], ext[1], ext[2], toFiner}] = true
					x = fresh(x)
					phases := []int{0, 1}
					if x.ToFiner {
						phases = []int{1, 0, 1, -1}
					}
					for _, phase := range phases {
						if phase < 0 { // the sender level stepped since the memo's stamp
							for i := range x.Memo {
								x.Memo[i] = math.NaN()
							}
							x.MemoStamp--
							phase = 1
						}
						if i, ok := sameBits(resampled(s, x, phase), kept(x, referenceResample(s, x, phase, x.Dirs))); !ok {
							t.Errorf("%s: transfer from %v, %v, box %v, phase %d: value %d differs", what, x.Src.Block.ID, x.ToFiner, ext, phase, i)
						}
					}
					if tb := x.Table.(*table); slices.ContainsFunc(tb.x, func(e lerp) bool { return e.a < 0 || e.b < 0 }) ||
						slices.ContainsFunc(tb.group, func(g [8]int32) bool { return slices.Min(g[:]) < 0 }) {
						unstored++
					}
				}
				if len(shapes) < 6 || solid != (unstored > 0) {
					t.Errorf("%s: %d transfer shapes, %d from sources not storing their block; want faces and edges both ways and unstored sources", what, len(shapes), unstored)
				}
				checkBlockTransfers(t, s, what)
			})
		}
	}
}

// checkBlockTransfers compares the regrade's prolongation and restriction
// with the per-cell operator on the first block of each level: every
// octant prolonged into a child of the block's shape, and the block
// restricted into every octant of a parent of its shape.
func checkBlockTransfers(t *testing.T, s *Sim, what string) {
	t.Helper()
	sc := newRefScratch(s.cfg.Stencil.Q)
	seen := map[int]bool{}
	for _, bd := range s.plane.Blocks {
		level := int(bd.Block.ID.Level)
		if seen[level] {
			continue
		}
		seen[level] = true
		for oct := range 8 {
			child := &sim.BlockData{Block: &blockforest.Block{ID: bd.Block.ID.Child(oct)}, Src: bd.Src.CopyShape(), Dst: bd.Dst.CopyShape()}
			want := bd.Src.CopyShape()
			s.prolong(bd, child, 0)
			refProlongBlock(s, bd.Src, oct, level+1, want, sc)
			if i, ok := sameBits(interiorValues(child.Src), interiorValues(want)); !ok {
				t.Errorf("%s: prolonging %v into octant %d: value %d differs", what, bd.Block.ID, oct, i)
			}
			parent, ref := bd.Src.CopyShape(), bd.Src.CopyShape()
			s.restrict(bd.Src, bd.Block.ID.Child(oct), parent)
			refRestrictBlock(s, bd.Src, oct, level+1, ref, sc)
			if i, ok := sameBits(interiorValues(parent), interiorValues(ref)); !ok {
				t.Errorf("%s: restricting %v as octant %d: value %d differs", what, bd.Block.ID, oct, i)
			}
		}
	}
}

// interiorValues lists a field's interior through At, (z, y, x, direction)
// order.
func interiorValues(f *field.PDFField) []float64 {
	var out []float64
	for _, b := range interiorBits(f) {
		out = append(out, math.Float64frombits(b))
	}
	return out
}

// randomize overwrites every stored slot of the world's fields — both
// time levels, ghosts included — with a random perturbation of a random
// equilibrium.
func randomize(s *Sim) {
	st := s.cfg.Stencil
	rng := rand.New(rand.NewSource(3))
	feq := make([]float64, st.Q)
	for _, bd := range s.plane.Blocks {
		for _, f := range []*field.PDFField{bd.Src, bd.Dst} {
			for z := -1; z <= f.Nz; z++ {
				for y := -1; y <= f.Ny; y++ {
					lo, hi := f.Rows().Span(y, z)
					for x := lo; x < hi; x++ {
						st.Equilibrium(feq, 1+0.05*rng.NormFloat64(), 0.05*rng.NormFloat64(), 0.05*rng.NormFloat64(), 0.05*rng.NormFloat64())
						for a, v := range feq {
							f.Set(x, y, z, lattice.Direction(a), v*(1+0.01*rng.NormFloat64()))
						}
					}
				}
			}
		}
	}
}

// criterionReference is the refinement criterion as it was first
// written — every PDF through Get or At, a closure per difference, one
// square root per cell — kept as the oracle of criterion.
func (s *Sim) criterionReference(b *sim.BlockData) float64 {
	C := s.cfg.Cells
	st := s.cfg.Stencil
	u, f := s.critU, s.critF
	idx := func(x, y, z int) int { return (z*C[1]+y)*C[0] + x }
	src := b.Src
	for z := 0; z < C[2]; z++ {
		for y := 0; y < C[1]; y++ {
			for x := 0; x < C[0]; x++ {
				stored := src.Rows().Contains(x, y, z) // else a solid cell reads as the fill
				for a := 0; stored && a < st.Q; a++ {
					f[a] = src.Get(x, y, z, lattice.Direction(a))
				}
				for a := 0; !stored && a < st.Q; a++ {
					f[a] = src.At(x, y, z, lattice.Direction(a))
				}
				_, ux, uy, uz := st.Moments(f)
				u[idx(x, y, z)] = [3]float64{ux, uy, uz}
			}
		}
	}
	diff := func(x, y, z, axis, comp int) float64 {
		lo, hi := [3]int{x, y, z}, [3]int{x, y, z}
		if lo[axis] > 0 {
			lo[axis]--
		}
		if hi[axis] < C[axis]-1 {
			hi[axis]++
		}
		if lo[axis] == hi[axis] {
			return 0
		}
		d := u[idx(hi[0], hi[1], hi[2])][comp] - u[idx(lo[0], lo[1], lo[2])][comp]
		return d / float64(hi[axis]-lo[axis])
	}
	h := float64(int(1) << uint(b.Block.ID.Level)) // 1/h: physical gradients
	var maxCrit float64
	for z := 0; z < C[2]; z++ {
		for y := 0; y < C[1]; y++ {
			for x := 0; x < C[0]; x++ {
				var crit float64
				if s.cfg.Refinement.Criterion == CriterionVorticity {
					wx := diff(x, y, z, 1, 2) - diff(x, y, z, 2, 1)
					wy := diff(x, y, z, 2, 0) - diff(x, y, z, 0, 2)
					wz := diff(x, y, z, 0, 1) - diff(x, y, z, 1, 0)
					crit = math.Sqrt(wx*wx + wy*wy + wz*wz)
				} else {
					var sum float64
					for axis := 0; axis < 3; axis++ {
						for comp := 0; comp < 3; comp++ {
							d := diff(x, y, z, axis, comp)
							sum += d * d
						}
					}
					crit = math.Sqrt(sum)
				}
				if crit *= h; crit > maxCrit {
					maxCrit = crit
				}
			}
		}
	}
	return maxCrit
}

// TestCriterionMatchesReference compares the criterion with its oracle
// bit for bit on random fields of a non-cubic block: both layouts, rows
// holding the whole block, just the interior, a cropped box and a span per
// row around a diagonal channel (the last three read through At), both
// criteria, several levels, with and without a NaN cell.
func TestCriterionMatchesReference(t *testing.T) {
	st := lattice.D3Q19()
	C := [3]int{8, 6, 4}
	box := func(lo, hi [3]int) *field.Rows {
		return field.NewRows(C[0], C[1], C[2], 1, func(y, z int) (int, int) {
			if y < lo[1] || y >= hi[1] || z < lo[2] || z >= hi[2] {
				return 0, 0
			}
			return lo[0], hi[0]
		})
	}
	layouts := []*field.Rows{
		field.FullRows(C[0], C[1], C[2], 1),
		box([3]int{}, C),
		box([3]int{1, -1, 0}, [3]int{7, 5, 5}),
		field.NewRows(C[0], C[1], C[2], 1, func(y, z int) (int, int) { return max(y+z-1, -1), min(y+z+3, C[0]+1) }),
	}
	rng := rand.New(rand.NewSource(7))
	feq := make([]float64, st.Q)
	for _, layout := range []field.Layout{field.AoS, field.SoA} {
		for wi, rows := range layouts {
			for _, nan := range []bool{false, true} {
				f := field.NewPDFFieldRows(st, layout, rows)
				f.FillEquilibrium(1, 0.01, -0.02, 0.005)
				for z := -1; z <= C[2]; z++ {
					for y := -1; y <= C[1]; y++ {
						lo, hi := rows.Span(y, z)
						for x := lo; x < hi; x++ {
							st.Equilibrium(feq, 1+0.05*rng.NormFloat64(),
								0.05*rng.NormFloat64(), 0.05*rng.NormFloat64(), 0.05*rng.NormFloat64())
							for a, v := range feq {
								f.Set(x, y, z, lattice.Direction(a), v*(1+0.01*rng.NormFloat64()))
							}
						}
					}
				}
				if nan && rows.Contains(2, 2, 2) {
					f.Set(2, 2, 2, lattice.E, math.NaN())
				}
				for _, crit := range []Criterion{CriterionGradient, CriterionVorticity} {
					for _, level := range []uint8{0, 1, 3} {
						s := &Sim{
							cfg:   Config{Config: sim.Config{Stencil: st}, Cells: C, Refinement: Refinement{Criterion: crit}},
							critU: make([][3]float64, C[0]*C[1]*C[2]),
							critF: make([]float64, st.Q),
						}
						b := &sim.BlockData{Block: &blockforest.Block{ID: blockforest.BlockID{Level: level}}, Src: f}
						got, want := s.criterion(b), s.criterionReference(b)
						if math.Float64bits(got) != math.Float64bits(want) || !(want > 0) {
							t.Errorf("%v rows %d nan=%v %s level %d: criterion %v, reference %v",
								layout, wi, nan, crit, level, got, want)
						}
					}
				}
			}
		}
	}
}

// The per-cell transfer operator the table walk replaced, kept as its
// oracle: per receiver cell a trilinear sample of eight corners (or the
// sum of a 2×2×2 group), five Index calls and a rescale of its own.

// refScratch is the oracle's per-call scratch.
type refScratch struct {
	f, f2, feq, neq []float64
}

func newRefScratch(q int) *refScratch {
	return &refScratch{f: make([]float64, q), f2: make([]float64, q), feq: make([]float64, q), neq: make([]float64, q)}
}

// referenceResample recomputes a transfer at the given phase from scratch
// through refTransfer, no memo, rescaling at dirs (t.Dirs, as the pack
// did, or the whole stencil) of which t.Dirs are kept, and returns the
// whole window.
func referenceResample(s *Sim, t *sim.Transfer, phase int, dirs []lattice.Direction) []float64 {
	vol := (t.Hi[0] - t.Lo[0]) * (t.Hi[1] - t.Lo[1]) * (t.Hi[2] - t.Lo[2])
	out := make([]float64, len(t.Dirs)*vol)
	level := int(t.Src.Block.ID.Level)
	src, src2, lam := t.Src.Src, (*field.PDFField)(nil), s.lambdas(level, false)
	if t.ToFiner {
		src, lam = t.Src.Dst, s.lambdas(level+1, true)
		if phase == 1 {
			src2 = t.Src.Src
		}
	}
	full := *t
	full.Dirs = dirs
	refTransfer(s, &full, src, src2, lam, newRefScratch(s.cfg.Stencil.Q), func(ci int, _ [3]int, f []float64) {
		for di, a := range t.Dirs {
			out[di*vol+ci] = f[a]
		}
	})
	return out
}

// refProlongBlock fills the interior of a child field from its parent.
func refProlongBlock(s *Sim, parent *field.PDFField, oct int, fineLevel int, child *field.PDFField, sc *refScratch) {
	C := s.cfg.Cells
	t := sim.Transfer{ToFiner: true, Hi: C, Dirs: s.allDirs,
		Base: [3]int{(oct & 1) * C[0], (oct >> 1 & 1) * C[1], (oct >> 2 & 1) * C[2]}}
	refTransfer(s, &t, parent, nil, s.lambdas(fineLevel, true), sc, func(_ int, p [3]int, f []float64) {
		refSetCell(child, p, f)
	})
}

// refRestrictBlock fills one octant of a parent field's interior from a
// child.
func refRestrictBlock(s *Sim, child *field.PDFField, oct int, fineLevel int, parent *field.PDFField, sc *refScratch) {
	C := s.cfg.Cells
	org := [3]int{(oct & 1) * C[0] / 2, (oct >> 1 & 1) * C[1] / 2, (oct >> 2 & 1) * C[2] / 2}
	t := sim.Transfer{Lo: org, Hi: [3]int{org[0] + C[0]/2, org[1] + C[1]/2, org[2] + C[2]/2},
		Base: [3]int{-2 * org[0], -2 * org[1], -2 * org[2]}, Dirs: s.allDirs}
	refTransfer(s, &t, child, nil, s.lambdas(fineLevel, false), sc, func(_ int, p [3]int, f []float64) {
		refSetCell(parent, p, f)
	})
}

// refSetCell stores a PDF vector at an interior cell of f if f stores it.
func refSetCell(f *field.PDFField, p [3]int, v []float64) {
	if f.Rows().Contains(p[0], p[1], p[2]) {
		for a, x := range v {
			f.Set(p[0], p[1], p[2], lattice.Direction(a), x)
		}
	}
}

// refTransfer is the loop of the oracle: for every cell p of t's receiver
// box, in slab order, the receiver's PDF vector — sampled at cell p+Base
// of the coarse src's 2× subdivision (averaged with the sample of src2, if
// set) when t prolongs, the 2×2×2 group of the fine src at 2p+Base
// otherwise — rescaled by lam at t.Dirs and handed to put.
func refTransfer(s *Sim, t *sim.Transfer, src, src2 *field.PDFField, lam lambdaPair, sc *refScratch, put func(ci int, p [3]int, f []float64)) {
	lo, hi, base := t.Lo, t.Hi, t.Base
	ci := 0
	for z := lo[2]; z < hi[2]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			for x := lo[0]; x < hi[0]; x++ {
				F := [3]int{x + base[0], y + base[1], z + base[2]}
				switch {
				case !t.ToFiner:
					refRestrictFine(src, [3]int{F[0] + x, F[1] + y, F[2] + z}, sc.f)
				case src2 == nil:
					refSampleCoarse(s, src, F, sc.f)
				default:
					refSampleCoarse(s, src, F, sc.f)
					refSampleCoarse(s, src2, F, sc.f2)
					for a := range sc.f {
						sc.f[a] = 0.5 * (sc.f[a] + sc.f2[a])
					}
				}
				refRescaleNeq(s, sc.f, t.Dirs, lam, sc)
				put(ci, [3]int{x, y, z}, sc.f)
				ci++
			}
		}
	}
}

// refRescaleNeq rescales the non-equilibrium part of f in place at dirs.
func refRescaleNeq(s *Sim, f []float64, dirs []lattice.Direction, lam lambdaPair, sc *refScratch) {
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

// refSampleCoarse gathers the PDF vector of a coarse field at the center
// of fine cell F of its 2× subdivision, extrapolating past the edge cell
// centers, through storage where the field stores its whole block and
// through At otherwise.
func refSampleCoarse(s *Sim, src *field.PDFField, F [3]int, out []float64) {
	C := s.cfg.Cells
	var i0, i1 [3]int
	var w1 [3]float64
	for d := 0; d < 3; d++ {
		q := (float64(F[d]) + 0.5) / 2.0
		q -= 0.5
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
	stored := src.Rows().Full()
	var p0, ds int
	var off [8]int
	if stored {
		p0, ds, off = refCornerOffsets(src, i0, i1)
	}
	data := src.Data()
	for a := range out {
		d := lattice.Direction(a)
		var c [8]float64
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

// refCornerOffsets addresses the eight corners of the cell box lo..hi of a
// field storing its whole block: corner k of direction a is at
// p0 + a*ds + off[k].
func refCornerOffsets(src *field.PDFField, lo, hi [3]int) (p0, ds int, off [8]int) {
	p0 = src.Index(lo[0], lo[1], lo[2], 0)
	ds = src.Index(lo[0], lo[1], lo[2], 1) - p0
	sx := src.Index(hi[0], lo[1], lo[2], 0) - p0
	sy := src.Index(lo[0], hi[1], lo[2], 0) - p0
	sz := src.Index(lo[0], lo[1], hi[2], 0) - p0
	return p0, ds, [8]int{0, sx, sy, sx + sy, sz, sx + sz, sy + sz, sx + sy + sz}
}

// refRestrictFine averages the aligned 2×2×2 fine cell group with origin F.
func refRestrictFine(src *field.PDFField, F [3]int, out []float64) {
	hi := [3]int{F[0] + 1, F[1] + 1, F[2] + 1}
	if src.Rows().Full() {
		p0, ds, off := refCornerOffsets(src, F, hi)
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
