package kernels

import (
	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// D3Q19SRT is the SRT kernel specialized for the D3Q19 model: streaming and
// collision are fused, the direction loop is fully unrolled against the
// fixed ordering, and common subexpressions of the equilibrium (the
// symmetric/antisymmetric parts shared by direction pairs) are computed
// once. This is the paper's "SRT D3Q19" optimization stage.
type D3Q19SRT struct {
	p     srtParams
	pulls pullTable
}

// NewD3Q19SRT constructs the specialized SRT kernel.
func NewD3Q19SRT(op collide.SRT) *D3Q19SRT { return newD3Q19SRT(op, pullTable{}) }

func newD3Q19SRT(op collide.SRT, pulls pullTable) *D3Q19SRT {
	return &D3Q19SRT{p: srtParams{omega: op.Omega()}, pulls: pulls}
}

// Name implements Kernel.
func (k *D3Q19SRT) Name() string { return "SRT D3Q19" }

// Layout implements Kernel.
func (k *D3Q19SRT) Layout() field.Layout { return field.AoS }

// Sweep implements Kernel.
func (k *D3Q19SRT) Sweep(src, dst *field.PDFField, flags *field.FlagField) {
	checkSweep(src, dst, flags, field.AoS)
	if src.Stencil.Q != lattice.Q19 {
		panic("kernels: D3Q19 kernel requires the D3Q19 stencil")
	}
	var pulls rowPulls
	k.pulls.bind(&pulls, src, flags)
	in := src.Data()
	out := dst.Data()
	omega := k.p.omega
	om1 := 1.0 - omega
	const q = lattice.Q19
	for z := 0; z < src.Nz; z++ {
		for y := 0; y < src.Ny; y++ {
			ci := src.CellIndex(0, y, z)
			v := pulls.at(y, z)
			for x := 0; x < src.Nx; x++ {
				if !isFluid(flags, x, y, z) {
					ci++
					continue
				}
				// Pull all 19 PDFs from their upstream neighbors.
				base := ci * q
				fC := in[base+v.ioff[lattice.C]]
				fN := in[base+v.ioff[lattice.N]]
				fS := in[base+v.ioff[lattice.S]]
				fW := in[base+v.ioff[lattice.W]]
				fE := in[base+v.ioff[lattice.E]]
				fT := in[base+v.ioff[lattice.T]]
				fB := in[base+v.ioff[lattice.B]]
				fNE := in[base+v.ioff[lattice.NE]]
				fNW := in[base+v.ioff[lattice.NW]]
				fSE := in[base+v.ioff[lattice.SE]]
				fSW := in[base+v.ioff[lattice.SW]]
				fTN := in[base+v.ioff[lattice.TN]]
				fTS := in[base+v.ioff[lattice.TS]]
				fTE := in[base+v.ioff[lattice.TE]]
				fTW := in[base+v.ioff[lattice.TW]]
				fBN := in[base+v.ioff[lattice.BN]]
				fBS := in[base+v.ioff[lattice.BS]]
				fBE := in[base+v.ioff[lattice.BE]]
				fBW := in[base+v.ioff[lattice.BW]]

				// Macroscopic values with shared partial sums.
				rho := fC + fN + fS + fW + fE + fT + fB +
					fNE + fNW + fSE + fSW + fTN + fTS + fTE + fTW + fBN + fBS + fBE + fBW
				invRho := 1.0 / rho
				ux := (fE + fNE + fSE + fTE + fBE - fW - fNW - fSW - fTW - fBW) * invRho
				uy := (fN + fNE + fNW + fTN + fBN - fS - fSE - fSW - fTS - fBS) * invRho
				uz := (fT + fTN + fTS + fTE + fTW - fB - fBN - fBS - fBE - fBW) * invRho
				usq := 1.5 * (ux*ux + uy*uy + uz*uz)

				w0r := rho * (1.0 / 3.0)
				w1r := rho * (1.0 / 18.0)
				w2r := rho * (1.0 / 36.0)

				out[base+int(lattice.C)] = om1*fC + omega*w0r*(1.0-usq)

				// Each direction pair (a, abar) shares the symmetric part
				// of the equilibrium; only the antisymmetric part differs
				// in sign — the eliminated common subexpression.
				srtPair(out, base, int(lattice.E), int(lattice.W), fE, fW, w1r, ux, usq, omega, om1)
				srtPair(out, base, int(lattice.N), int(lattice.S), fN, fS, w1r, uy, usq, omega, om1)
				srtPair(out, base, int(lattice.T), int(lattice.B), fT, fB, w1r, uz, usq, omega, om1)
				srtPair(out, base, int(lattice.NE), int(lattice.SW), fNE, fSW, w2r, ux+uy, usq, omega, om1)
				srtPair(out, base, int(lattice.NW), int(lattice.SE), fNW, fSE, w2r, uy-ux, usq, omega, om1)
				srtPair(out, base, int(lattice.TN), int(lattice.BS), fTN, fBS, w2r, uy+uz, usq, omega, om1)
				srtPair(out, base, int(lattice.TS), int(lattice.BN), fTS, fBN, w2r, uz-uy, usq, omega, om1)
				srtPair(out, base, int(lattice.TE), int(lattice.BW), fTE, fBW, w2r, ux+uz, usq, omega, om1)
				srtPair(out, base, int(lattice.TW), int(lattice.BE), fTW, fBE, w2r, uz-ux, usq, omega, om1)
				ci++
			}
		}
	}
}

// srtPairVals relaxes a direction pair toward equilibrium and returns the
// post-collision values. d is the dot product e_a . u of the positive
// representative a; wr is w_a * rho. Shared by the AoS and SoA kernels so
// both layouts evaluate the identical floating-point expressions.
func srtPairVals(fa, fb, wr, d, usq, omega, om1 float64) (float64, float64) {
	cu := 3.0 * d
	sym := wr * (1.0 + 0.5*cu*cu - usq)
	asym := wr * cu
	return om1*fa + omega*(sym+asym), om1*fb + omega*(sym-asym)
}

func srtPair(out []float64, base, a, b int, fa, fb, wr, d, usq, omega, om1 float64) {
	out[base+a], out[base+b] = srtPairVals(fa, fb, wr, d, usq, omega, om1)
}

// D3Q19TRT is the TRT kernel specialized for D3Q19: like D3Q19SRT but with
// the two-relaxation-time collision, exploiting that the even/odd split of
// the TRT operator coincides with the direction-pair structure used for
// common subexpression elimination (the paper's "TRT D3Q19").
type D3Q19TRT struct {
	p     trtParams
	pulls pullTable
}

// NewD3Q19TRT constructs the specialized TRT kernel.
func NewD3Q19TRT(op collide.TRT) *D3Q19TRT { return newD3Q19TRT(op, pullTable{}) }

func newD3Q19TRT(op collide.TRT, pulls pullTable) *D3Q19TRT {
	return &D3Q19TRT{p: trtParams{lambdaE: op.LambdaE, lambdaO: op.LambdaO}, pulls: pulls}
}

// Name implements Kernel.
func (k *D3Q19TRT) Name() string { return "TRT D3Q19" }

// Layout implements Kernel.
func (k *D3Q19TRT) Layout() field.Layout { return field.AoS }

// Sweep implements Kernel.
func (k *D3Q19TRT) Sweep(src, dst *field.PDFField, flags *field.FlagField) {
	checkSweep(src, dst, flags, field.AoS)
	if src.Stencil.Q != lattice.Q19 {
		panic("kernels: D3Q19 kernel requires the D3Q19 stencil")
	}
	var pulls rowPulls
	k.pulls.bind(&pulls, src, flags)
	in := src.Data()
	out := dst.Data()
	le, lo := k.p.lambdaE, k.p.lambdaO
	const q = lattice.Q19
	for z := 0; z < src.Nz; z++ {
		for y := 0; y < src.Ny; y++ {
			ci := src.CellIndex(0, y, z)
			v := pulls.at(y, z)
			for x := 0; x < src.Nx; x++ {
				if !isFluid(flags, x, y, z) {
					ci++
					continue
				}
				base := ci * q
				fC := in[base+v.ioff[lattice.C]]
				fN := in[base+v.ioff[lattice.N]]
				fS := in[base+v.ioff[lattice.S]]
				fW := in[base+v.ioff[lattice.W]]
				fE := in[base+v.ioff[lattice.E]]
				fT := in[base+v.ioff[lattice.T]]
				fB := in[base+v.ioff[lattice.B]]
				fNE := in[base+v.ioff[lattice.NE]]
				fNW := in[base+v.ioff[lattice.NW]]
				fSE := in[base+v.ioff[lattice.SE]]
				fSW := in[base+v.ioff[lattice.SW]]
				fTN := in[base+v.ioff[lattice.TN]]
				fTS := in[base+v.ioff[lattice.TS]]
				fTE := in[base+v.ioff[lattice.TE]]
				fTW := in[base+v.ioff[lattice.TW]]
				fBN := in[base+v.ioff[lattice.BN]]
				fBS := in[base+v.ioff[lattice.BS]]
				fBE := in[base+v.ioff[lattice.BE]]
				fBW := in[base+v.ioff[lattice.BW]]

				rho := fC + fN + fS + fW + fE + fT + fB +
					fNE + fNW + fSE + fSW + fTN + fTS + fTE + fTW + fBN + fBS + fBE + fBW
				invRho := 1.0 / rho
				ux := (fE + fNE + fSE + fTE + fBE - fW - fNW - fSW - fTW - fBW) * invRho
				uy := (fN + fNE + fNW + fTN + fBN - fS - fSE - fSW - fTS - fBS) * invRho
				uz := (fT + fTN + fTS + fTE + fTW - fB - fBN - fBS - fBE - fBW) * invRho
				usq := 1.5 * (ux*ux + uy*uy + uz*uz)

				w0r := rho * (1.0 / 3.0)
				w1r := rho * (1.0 / 18.0)
				w2r := rho * (1.0 / 36.0)

				// Center direction has no odd part.
				out[base+int(lattice.C)] = fC + le*(fC-w0r*(1.0-usq))

				trtPair(out, base, int(lattice.E), int(lattice.W), fE, fW, w1r, ux, usq, le, lo)
				trtPair(out, base, int(lattice.N), int(lattice.S), fN, fS, w1r, uy, usq, le, lo)
				trtPair(out, base, int(lattice.T), int(lattice.B), fT, fB, w1r, uz, usq, le, lo)
				trtPair(out, base, int(lattice.NE), int(lattice.SW), fNE, fSW, w2r, ux+uy, usq, le, lo)
				trtPair(out, base, int(lattice.NW), int(lattice.SE), fNW, fSE, w2r, uy-ux, usq, le, lo)
				trtPair(out, base, int(lattice.TN), int(lattice.BS), fTN, fBS, w2r, uy+uz, usq, le, lo)
				trtPair(out, base, int(lattice.TS), int(lattice.BN), fTS, fBN, w2r, uz-uy, usq, le, lo)
				trtPair(out, base, int(lattice.TE), int(lattice.BW), fTE, fBW, w2r, ux+uz, usq, le, lo)
				trtPair(out, base, int(lattice.TW), int(lattice.BE), fTW, fBE, w2r, uz-ux, usq, le, lo)
				ci++
			}
		}
	}
}

// trtPairVals applies the TRT collision to a direction pair and returns
// the post-collision values. The even part of the equilibrium is the
// shared symmetric term, the odd part the shared antisymmetric term — the
// same subexpressions the SRT pair update reuses. Shared by the AoS and
// SoA kernels so both layouts evaluate the identical floating-point
// expressions.
func trtPairVals(fa, fb, wr, d, usq, le, lo float64) (float64, float64) {
	cu := 3.0 * d
	feqP := wr * (1.0 + 0.5*cu*cu - usq)
	feqM := wr * cu
	fp := 0.5 * (fa + fb)
	fm := 0.5 * (fa - fb)
	even := le * (fp - feqP)
	odd := lo * (fm - feqM)
	return fa + even + odd, fb + even - odd
}

func trtPair(out []float64, base, a, b int, fa, fb, wr, d, usq, le, lo float64) {
	out[base+a], out[base+b] = trtPairVals(fa, fb, wr, d, usq, le, lo)
}
