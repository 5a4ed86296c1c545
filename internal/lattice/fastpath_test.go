package lattice

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// genericMoments and genericEquilibrium are the stencil-generic loops of
// Moments and Equilibrium, kept as the oracle of the D3Q19 fast path.
func genericMoments(s *Stencil, f []float64) (rho, ux, uy, uz float64) {
	var mx, my, mz float64
	for a := 0; a < s.Q; a++ {
		fa := f[a]
		rho += fa
		mx += float64(s.Cx[a]) * fa
		my += float64(s.Cy[a]) * fa
		mz += float64(s.Cz[a]) * fa
	}
	inv := 1.0 / rho
	return rho, mx * inv, my * inv, mz * inv
}

func genericEquilibrium(s *Stencil, feq []float64, rho, ux, uy, uz float64) {
	usq := 1.5 * (ux*ux + uy*uy + uz*uz)
	for a := 0; a < s.Q; a++ {
		cu := 3.0 * (float64(s.Cx[a])*ux + float64(s.Cy[a])*uy + float64(s.Cz[a])*uz)
		feq[a] = s.W[a] * rho * (1.0 + cu + 0.5*cu*cu - usq)
	}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// fuzzValues is the number of float64s one fuzz input carries: 19 PDFs,
// then the (rho, ux, uy, uz) of a direct equilibrium call.
const fuzzValues = Q19 + 4

func encodeFloats(vs ...float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// decodeFloats reads fuzzValues little-endian float64s, zero past the
// end of raw.
func decodeFloats(raw []byte) []float64 {
	vs := make([]float64, fuzzValues)
	var word [8]byte
	for i := range vs {
		if 8*i >= len(raw) {
			break
		}
		copy(word[:], raw[8*i:])
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
	}
	return vs
}

// FuzzStencilD3Q19 checks the D3Q19 fast paths of Moments and Equilibrium
// against the generic loops bit for bit on finite input, EquilibriumDir(a)
// against Equilibrium's feq[a], and that non-finite input stays
// non-finite.
func FuzzStencilD3Q19(f *testing.F) {
	s := D3Q19()
	eq := make([]float64, Q19)
	s.Equilibrium(eq, 1.02, 0.03, -0.05, 0.01)
	pdfs := func(fill func(a int) float64) []float64 {
		vs := make([]float64, fuzzValues)
		for a := range vs {
			vs[a] = fill(a)
		}
		return vs
	}
	negZero := math.Copysign(0, -1)
	seeds := [][]float64{
		pdfs(func(int) float64 { return 0 }),
		pdfs(func(int) float64 { return negZero }),
		pdfs(func(a int) float64 { return []float64{0, negZero}[a%2] }),
		pdfs(func(a int) float64 { return []float64{5e-324, -5e-324, math.SmallestNonzeroFloat64 * 7, 0}[a%4] }),
		pdfs(func(a int) float64 { return []float64{1e300, -1e300, 3e299, 1}[a%4] }),
		pdfs(func(a int) float64 { return -float64(a) - 0.25 }),
		pdfs(func(a int) float64 { return math.Inf(1 - 2*(a%2)) }),
		pdfs(func(a int) float64 { return math.NaN() }),
		// Near-equilibrium PDFs, and one state whose velocity is ±0 on
		// every axis.
		append(append([]float64{}, eq...), 1, 0.04, negZero, 0),
		append(append([]float64{}, s.W...), 1, negZero, negZero, negZero),
	}
	// With rho = 1 from the rest population, the sign of a zero momentum
	// shows in the velocity: every other PDF a signed zero, each axis once
	// with the signs that keep a sum started from its first term at −0.
	for _, c := range [][]int{s.Cx, s.Cy, s.Cz} {
		seeds = append(seeds, pdfs(func(a int) float64 {
			switch {
			case a == int(C) || a >= Q19:
				return 1
			case c[a] > 0:
				return negZero
			}
			return 0
		}))
	}
	for _, v := range seeds {
		f.Add(encodeFloats(v...))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		f.Add(encodeFloats(pdfs(func(a int) float64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return negZero
			}
			return eq[a%Q19] * (1 + 0.1*rng.NormFloat64())
		})...))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		vs := decodeFloats(raw)
		pdf := vs[:Q19]
		r, x, y, z := s.Moments(pdf)
		gr, gx, gy, gz := genericMoments(s, pdf)
		if finite(pdf...) {
			checkBits(t, "Moments", []float64{r, x, y, z}, []float64{gr, gx, gy, gz})
			checkEquilibrium(t, s, r, x, y, z)
		} else if finite(r) || finite(gr) {
			t.Errorf("non-finite PDFs %v: rho %v (generic %v), want non-finite", pdf, r, gr)
		}
		checkEquilibrium(t, s, vs[Q19], vs[Q19+1], vs[Q19+2], vs[Q19+3])
	})
}

// checkEquilibrium compares the fast Equilibrium with the generic loop and
// with EquilibriumDir at one argument set.
func checkEquilibrium(t *testing.T, s *Stencil, rho, ux, uy, uz float64) {
	t.Helper()
	got, want := make([]float64, s.Q), make([]float64, s.Q)
	s.Equilibrium(got, rho, ux, uy, uz)
	genericEquilibrium(s, want, rho, ux, uy, uz)
	if !finite(rho, ux, uy, uz) {
		for a, v := range got {
			if finite(v) {
				t.Errorf("Equilibrium(%v, %v, %v, %v)[%d] = %v, want non-finite", rho, ux, uy, uz, a, v)
			}
		}
		return
	}
	checkBits(t, "Equilibrium", got, want)
	for a := range got {
		if d := s.EquilibriumDir(Direction(a), rho, ux, uy, uz); math.Float64bits(d) != math.Float64bits(got[a]) {
			t.Errorf("EquilibriumDir(%d) at (%v, %v, %v, %v) = %v, Equilibrium %v", a, rho, ux, uy, uz, d, got[a])
		}
	}
}

func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d] = %v (%016x), generic %v (%016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
