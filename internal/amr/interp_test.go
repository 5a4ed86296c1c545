package amr

import (
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

// packBuffer allocates the pack buffer of a transfer.
func packBuffer(t *sim.Transfer) []float64 {
	return make([]float64, len(t.Dirs)*(t.Hi[0]-t.Lo[0])*(t.Hi[1]-t.Lo[1])*(t.Hi[2]-t.Lo[2]))
}

// referenceResample recomputes a coarse→fine transfer at the given phase
// from scratch through transfer: no memo, and the rescale evaluated for
// every direction, of which t.Dirs are kept.
func referenceResample(s *Sim, t *sim.Transfer, phase int) []float64 {
	out := packBuffer(t)
	vol := len(out) / len(t.Dirs)
	var src2 *field.PDFField
	if phase == 1 {
		src2 = t.Src.Src
	}
	full := *t
	full.Dirs = s.allDirs
	level := int(t.Src.Block.ID.Level)
	s.transfer(&full, t.Src.Dst, src2, nil, s.lambdaToFine(level+1), &s.scratch[0], func(ci int, _ [3]int, f []float64) {
		for di, a := range t.Dirs {
			out[di*vol+ci] = f[a]
		}
	})
	return out
}

// TestResampleMemoMatchesRecompute: on a static three-level forest, in
// both layouts, every coarse→fine transfer packs at phase 0 and at phase 1
// exactly what a full recompute gives — the phase-1 pack reading phase 0's
// memo, and a phase 1 whose memo is missing (no phase 0 since the plan
// built the transfer) or stale (the sender level stepped since) sampling
// Dst again. A coarse step through a recording resampler finds the
// transfers; each is checked as a plan build makes it (no memo stamp yet),
// at the phase the step hands the resampler. A memo poisoned with NaN
// shows whether a pack read it.
func TestResampleMemoMatchesRecompute(t *testing.T) {
	for _, layout := range []sim.LayoutChoice{sim.LayoutAoS, sim.LayoutSoA} {
		comm.Run(1, func(c *comm.Comm) {
			cfg := baseConfig(1, layout)
			cfg.Refinement.Interval = 0
			s, err := New(c, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := refineFirstColumn(s); err != nil {
				t.Error(err)
				return
			}
			if err := run(s, 2); err != nil {
				t.Error(err)
				return
			}
			rec := &recorder{refiner: refiner{s}, seen: map[*sim.Transfer]bool{}}
			if err := s.plane.SetBlocks(slices.Clone(s.plane.Blocks), rec); err != nil {
				t.Error(err)
				return
			}
			if err := s.Step(); err != nil {
				t.Error(err)
				return
			}
			var toFiner []*sim.Transfer
			byLevel := map[int]int{}
			for x := range rec.seen {
				if x.ToFiner {
					// The transfer as the plan build made it: memo not stamped.
					fresh := *x
					fresh.Memo, fresh.MemoStamp = make([]float64, len(x.Memo)), -1
					toFiner = append(toFiner, &fresh)
					byLevel[int(x.Src.Block.ID.Level)]++
				}
			}
			if byLevel[0] == 0 || byLevel[1] == 0 {
				t.Errorf("%v: coarse→fine transfers per sender level %v, want some from levels 0 and 1", layout, byLevel)
				return
			}
			check := func(what string, x *sim.Transfer, phase int) {
				t.Helper()
				got := packBuffer(x)
				refiner{s}.Resample(x, got, phase, 0)
				want := referenceResample(s, x, phase)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%v %s: transfer from %v, value %d: %v, recomputed %v", layout, what, x.Src.Block.ID, i, got[i], want[i])
						return
					}
				}
			}
			poison := func(x *sim.Transfer) {
				for i := range x.Memo {
					x.Memo[i] = math.NaN()
				}
			}
			for _, x := range toFiner {
				poison(x)
				check("phase 1, memo missing", x, 1)
				check("phase 0", x, 0)
				check("phase 1, memo read", x, 1)
				// The stamp is valid, so a poisoned memo now is what phase 1 reads.
				poison(x)
				got := packBuffer(x)
				refiner{s}.Resample(x, got, 1, 0)
				if !math.IsNaN(got[0]) {
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
