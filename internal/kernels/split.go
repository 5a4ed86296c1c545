package kernels

import (
	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/perfmodel"
)

// The split kernels are the paper's stage-3 "SIMD" optimization: the PDF
// field is stored structure-of-arrays (one contiguous array per lattice
// direction), so a row of cells reads 19 unit-stride load streams and
// writes 19 unit-stride store streams, and 4 neighboring cells of a row
// fill one 256-bit vector per direction. The update of a row is one fused,
// register-resident pass — no scratch arrays between per-direction loops.
// On CPUs with AVX2 the whole row runs in assembly, 4 cells per vector
// instruction and the n%4 cells left of a row in one masked pass;
// elsewhere the Go row does it (RowISA says which).
//
// The floating-point evaluation order of the update is kept exactly
// identical to the D3Q19-specialized AoS kernels (same expressions, same
// shared pair helpers), so a simulation produces bit-identical fields in
// either layout — the property the distributed layer's cross-layout hash
// checks rely on. The AVX2 rows evaluate the same expressions without FMA,
// so they are bit-identical to the Go rows, which stay the reference.

// dirRows caches, for a sweep, the SoA storage of src and dst: the pulled
// value of direction a for the cell with linear index ci is
// src[ci+v.ioff[a]], where v is the pull vector of the cell's row
// (rowPulls), its update goes to out[a][ci] = dst[ci+ooff[a]].
type dirRows struct {
	out      [lattice.Q19][]float64
	src, dst []float64
	ooff     [lattice.Q19]int
}

func newDirRows(src, dst *field.PDFField) dirRows {
	var r dirRows
	cells := src.AllocatedCells()
	r.src, r.dst = src.Data(), dst.Data()
	for a := 0; a < lattice.Q19; a++ {
		r.out[a] = dst.DirSlice(lattice.Direction(a))
		r.ooff[a] = a * cells
	}
	return r
}

// RowISA names the instruction set the split and interval kernels update
// their rows with on this CPU: "avx2" or "go" (portable Go, no vector
// instructions). It is fixed at start-up from CPUID.
func RowISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// checkRow panics unless every pull and store of the row [base, base+n)
// stays in its direction's array under the row's vector v — the
// bounds check the AVX2 rows do not make themselves, and the one that
// keeps the Go rows, which slice the whole storage, inside a direction.
func checkRow(v *pullVec, base, n int) {
	if base < v.lo || base+n > v.hi {
		panic("kernels: row leaves the field")
	}
}

// trtRow updates a row with the AVX2 row where the CPU has one, else with
// the Go row.
func trtRow(r *dirRows, v *pullVec, base, n int, le, lo float64) {
	checkRow(v, base, n)
	if useAVX2 {
		trtRowAVX2(&r.src[base], &r.dst[base], &v.ioff, &r.ooff, n, le, lo)
	} else {
		trtRowSoA(r, v, base, n, le, lo)
	}
}

// srtRow is trtRow for the SRT collision.
func srtRow(r *dirRows, v *pullVec, base, n int, omega, om1 float64) {
	checkRow(v, base, n)
	if useAVX2 {
		srtRowAVX2(&r.src[base], &r.dst[base], &v.ioff, &r.ooff, n, omega, om1)
	} else {
		srtRowSoA(r, v, base, n, omega, om1)
	}
}

// tileBudget is the per-core cache budget the tiled traversal is sized
// against.
var tileBudget = perfmodel.SuperMUCSocket().CacheBlockBytes

// tileRows returns the y-strip height of the cache-blocked traversal of a
// field: the largest strip for which the three z-planes of by-direction
// source rows a stream-pull sweep re-reads (planes z-1, z, z+1 of the
// strip) stay resident in the per-core cache budget of the performance
// model. Within a strip the sweep advances plane by plane, so each stored
// source row is loaded from memory once and then served from cache for the
// two neighboring planes. Small blocks fit entirely and degenerate to the
// untiled traversal. It is a pure function of the field's shape, computed
// per sweep: one kernel value serves many blocks, concurrently.
func tileRows(f *field.PDFField) int {
	w := f.Window()
	rowBytes := lattice.Q19 * (w.Hi[0] - w.Lo[0]) * 8
	h := f.Ny
	if rowBytes > 0 {
		h = tileBudget/(3*rowBytes) - 2
	}
	if h < 4 {
		h = 4
	}
	if h > f.Ny {
		h = f.Ny
	}
	return h
}

// sweepRows drives a cache-blocked traversal of the interior, invoking
// row(y, z, base, n) for every maximal run of fluid cells of row (y, z). A
// nil flag field means the block is dense and whole rows are updated
// without any per-cell flag inspection.
func sweepRows(src *field.PDFField, flags *field.FlagField, tile int, row func(y, z, base, n int)) {
	nx, ny, nz := src.Nx, src.Ny, src.Nz
	for y0 := 0; y0 < ny; y0 += tile {
		y1 := y0 + tile
		if y1 > ny {
			y1 = ny
		}
		for z := 0; z < nz; z++ {
			for y := y0; y < y1; y++ {
				if flags == nil {
					row(y, z, src.CellIndex(0, y, z), nx)
					continue
				}
				x := 0
				for x < nx {
					for x < nx && flags.Get(x, y, z) != field.Fluid {
						x++
					}
					r0 := x
					for x < nx && flags.Get(x, y, z) == field.Fluid {
						x++
					}
					if x > r0 {
						row(y, z, src.CellIndex(r0, y, z), x-r0)
					}
				}
			}
		}
	}
}

// trtRowSoA applies the fused TRT stream-collide update to n consecutive
// cells starting at linear index base, reading and writing the
// by-direction arrays directly. The arithmetic mirrors trtCellAoS
// expression by expression. It is the reference FuzzSplitRows holds the
// AVX2 row to, and the only row on CPUs without AVX2.
func trtRowSoA(r *dirRows, v *pullVec, base, n int, le, lo float64) {
	inC := r.src[base+v.ioff[lattice.C]:][:n]
	inN := r.src[base+v.ioff[lattice.N]:][:n]
	inS := r.src[base+v.ioff[lattice.S]:][:n]
	inW := r.src[base+v.ioff[lattice.W]:][:n]
	inE := r.src[base+v.ioff[lattice.E]:][:n]
	inT := r.src[base+v.ioff[lattice.T]:][:n]
	inB := r.src[base+v.ioff[lattice.B]:][:n]
	inNE := r.src[base+v.ioff[lattice.NE]:][:n]
	inNW := r.src[base+v.ioff[lattice.NW]:][:n]
	inSE := r.src[base+v.ioff[lattice.SE]:][:n]
	inSW := r.src[base+v.ioff[lattice.SW]:][:n]
	inTN := r.src[base+v.ioff[lattice.TN]:][:n]
	inTS := r.src[base+v.ioff[lattice.TS]:][:n]
	inTE := r.src[base+v.ioff[lattice.TE]:][:n]
	inTW := r.src[base+v.ioff[lattice.TW]:][:n]
	inBN := r.src[base+v.ioff[lattice.BN]:][:n]
	inBS := r.src[base+v.ioff[lattice.BS]:][:n]
	inBE := r.src[base+v.ioff[lattice.BE]:][:n]
	inBW := r.src[base+v.ioff[lattice.BW]:][:n]
	outC := r.out[lattice.C][base:][:n]
	outN := r.out[lattice.N][base:][:n]
	outS := r.out[lattice.S][base:][:n]
	outW := r.out[lattice.W][base:][:n]
	outE := r.out[lattice.E][base:][:n]
	outT := r.out[lattice.T][base:][:n]
	outB := r.out[lattice.B][base:][:n]
	outNE := r.out[lattice.NE][base:][:n]
	outNW := r.out[lattice.NW][base:][:n]
	outSE := r.out[lattice.SE][base:][:n]
	outSW := r.out[lattice.SW][base:][:n]
	outTN := r.out[lattice.TN][base:][:n]
	outTS := r.out[lattice.TS][base:][:n]
	outTE := r.out[lattice.TE][base:][:n]
	outTW := r.out[lattice.TW][base:][:n]
	outBN := r.out[lattice.BN][base:][:n]
	outBS := r.out[lattice.BS][base:][:n]
	outBE := r.out[lattice.BE][base:][:n]
	outBW := r.out[lattice.BW][base:][:n]
	for i := 0; i < n; i++ {
		fC := inC[i]
		fN := inN[i]
		fS := inS[i]
		fW := inW[i]
		fE := inE[i]
		fT := inT[i]
		fB := inB[i]
		fNE := inNE[i]
		fNW := inNW[i]
		fSE := inSE[i]
		fSW := inSW[i]
		fTN := inTN[i]
		fTS := inTS[i]
		fTE := inTE[i]
		fTW := inTW[i]
		fBN := inBN[i]
		fBS := inBS[i]
		fBE := inBE[i]
		fBW := inBW[i]

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

		outC[i] = fC + le*(fC-w0r*(1.0-usq))
		outE[i], outW[i] = trtPairVals(fE, fW, w1r, ux, usq, le, lo)
		outN[i], outS[i] = trtPairVals(fN, fS, w1r, uy, usq, le, lo)
		outT[i], outB[i] = trtPairVals(fT, fB, w1r, uz, usq, le, lo)
		outNE[i], outSW[i] = trtPairVals(fNE, fSW, w2r, ux+uy, usq, le, lo)
		outNW[i], outSE[i] = trtPairVals(fNW, fSE, w2r, uy-ux, usq, le, lo)
		outTN[i], outBS[i] = trtPairVals(fTN, fBS, w2r, uy+uz, usq, le, lo)
		outTS[i], outBN[i] = trtPairVals(fTS, fBN, w2r, uz-uy, usq, le, lo)
		outTE[i], outBW[i] = trtPairVals(fTE, fBW, w2r, ux+uz, usq, le, lo)
		outTW[i], outBE[i] = trtPairVals(fTW, fBE, w2r, uz-ux, usq, le, lo)
	}
}

// srtRowSoA is the SRT variant of trtRowSoA, mirroring the D3Q19SRT
// arithmetic expression by expression.
func srtRowSoA(r *dirRows, v *pullVec, base, n int, omega, om1 float64) {
	inC := r.src[base+v.ioff[lattice.C]:][:n]
	inN := r.src[base+v.ioff[lattice.N]:][:n]
	inS := r.src[base+v.ioff[lattice.S]:][:n]
	inW := r.src[base+v.ioff[lattice.W]:][:n]
	inE := r.src[base+v.ioff[lattice.E]:][:n]
	inT := r.src[base+v.ioff[lattice.T]:][:n]
	inB := r.src[base+v.ioff[lattice.B]:][:n]
	inNE := r.src[base+v.ioff[lattice.NE]:][:n]
	inNW := r.src[base+v.ioff[lattice.NW]:][:n]
	inSE := r.src[base+v.ioff[lattice.SE]:][:n]
	inSW := r.src[base+v.ioff[lattice.SW]:][:n]
	inTN := r.src[base+v.ioff[lattice.TN]:][:n]
	inTS := r.src[base+v.ioff[lattice.TS]:][:n]
	inTE := r.src[base+v.ioff[lattice.TE]:][:n]
	inTW := r.src[base+v.ioff[lattice.TW]:][:n]
	inBN := r.src[base+v.ioff[lattice.BN]:][:n]
	inBS := r.src[base+v.ioff[lattice.BS]:][:n]
	inBE := r.src[base+v.ioff[lattice.BE]:][:n]
	inBW := r.src[base+v.ioff[lattice.BW]:][:n]
	outC := r.out[lattice.C][base:][:n]
	outN := r.out[lattice.N][base:][:n]
	outS := r.out[lattice.S][base:][:n]
	outW := r.out[lattice.W][base:][:n]
	outE := r.out[lattice.E][base:][:n]
	outT := r.out[lattice.T][base:][:n]
	outB := r.out[lattice.B][base:][:n]
	outNE := r.out[lattice.NE][base:][:n]
	outNW := r.out[lattice.NW][base:][:n]
	outSE := r.out[lattice.SE][base:][:n]
	outSW := r.out[lattice.SW][base:][:n]
	outTN := r.out[lattice.TN][base:][:n]
	outTS := r.out[lattice.TS][base:][:n]
	outTE := r.out[lattice.TE][base:][:n]
	outTW := r.out[lattice.TW][base:][:n]
	outBN := r.out[lattice.BN][base:][:n]
	outBS := r.out[lattice.BS][base:][:n]
	outBE := r.out[lattice.BE][base:][:n]
	outBW := r.out[lattice.BW][base:][:n]
	for i := 0; i < n; i++ {
		fC := inC[i]
		fN := inN[i]
		fS := inS[i]
		fW := inW[i]
		fE := inE[i]
		fT := inT[i]
		fB := inB[i]
		fNE := inNE[i]
		fNW := inNW[i]
		fSE := inSE[i]
		fSW := inSW[i]
		fTN := inTN[i]
		fTS := inTS[i]
		fTE := inTE[i]
		fTW := inTW[i]
		fBN := inBN[i]
		fBS := inBS[i]
		fBE := inBE[i]
		fBW := inBW[i]

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

		outC[i] = om1*fC + omega*w0r*(1.0-usq)
		outE[i], outW[i] = srtPairVals(fE, fW, w1r, ux, usq, omega, om1)
		outN[i], outS[i] = srtPairVals(fN, fS, w1r, uy, usq, omega, om1)
		outT[i], outB[i] = srtPairVals(fT, fB, w1r, uz, usq, omega, om1)
		outNE[i], outSW[i] = srtPairVals(fNE, fSW, w2r, ux+uy, usq, omega, om1)
		outNW[i], outSE[i] = srtPairVals(fNW, fSE, w2r, uy-ux, usq, omega, om1)
		outTN[i], outBS[i] = srtPairVals(fTN, fBS, w2r, uy+uz, usq, omega, om1)
		outTS[i], outBN[i] = srtPairVals(fTS, fBN, w2r, uz-uy, usq, omega, om1)
		outTE[i], outBW[i] = srtPairVals(fTE, fBW, w2r, ux+uz, usq, omega, om1)
		outTW[i], outBE[i] = srtPairVals(fTW, fBE, w2r, uz-ux, usq, omega, om1)
	}
}

// SplitSRT is the by-direction SRT kernel on the SoA layout (the paper's
// "SRT SIMD"). Safe for concurrent use on disjoint fields.
type SplitSRT struct {
	p     srtParams
	pulls pullTable
}

// NewSplitSRT constructs the split SRT kernel.
func NewSplitSRT(op collide.SRT) *SplitSRT { return newSplitSRT(op, pullTable{}) }

func newSplitSRT(op collide.SRT, pulls pullTable) *SplitSRT {
	return &SplitSRT{p: srtParams{omega: op.Omega()}, pulls: pulls}
}

// Name implements Kernel.
func (k *SplitSRT) Name() string { return "SRT SIMD" }

// Layout implements Kernel.
func (k *SplitSRT) Layout() field.Layout { return field.SoA }

// Sweep implements Kernel.
func (k *SplitSRT) Sweep(src, dst *field.PDFField, flags *field.FlagField) {
	checkSweep(src, dst, flags, field.SoA)
	if src.Stencil.Q != lattice.Q19 {
		panic("kernels: split kernel requires the D3Q19 stencil")
	}
	var pulls rowPulls
	k.pulls.bind(&pulls, src, flags)
	rows := newDirRows(src, dst)
	omega := k.p.omega
	om1 := 1.0 - omega
	sweepRows(src, flags, tileRows(src), func(y, z, base, n int) {
		srtRow(&rows, pulls.at(y, z), base, n, omega, om1)
	})
}

// SplitTRT is the by-direction TRT kernel on the SoA layout (the paper's
// "TRT SIMD"), the default distributed hot path for dense blocks. Safe for
// concurrent use on disjoint fields.
type SplitTRT struct {
	p     trtParams
	pulls pullTable
}

// NewSplitTRT constructs the split TRT kernel.
func NewSplitTRT(op collide.TRT) *SplitTRT { return newSplitTRT(op, pullTable{}) }

func newSplitTRT(op collide.TRT, pulls pullTable) *SplitTRT {
	return &SplitTRT{p: trtParams{lambdaE: op.LambdaE, lambdaO: op.LambdaO}, pulls: pulls}
}

// Name implements Kernel.
func (k *SplitTRT) Name() string { return "TRT SIMD" }

// Layout implements Kernel.
func (k *SplitTRT) Layout() field.Layout { return field.SoA }

// Sweep implements Kernel.
func (k *SplitTRT) Sweep(src, dst *field.PDFField, flags *field.FlagField) {
	checkSweep(src, dst, flags, field.SoA)
	if src.Stencil.Q != lattice.Q19 {
		panic("kernels: split kernel requires the D3Q19 stencil")
	}
	var pulls rowPulls
	k.pulls.bind(&pulls, src, flags)
	rows := newDirRows(src, dst)
	le, lo := k.p.lambdaE, k.p.lambdaO
	sweepRows(src, flags, tileRows(src), func(y, z, base, n int) {
		trtRow(&rows, pulls.at(y, z), base, n, le, lo)
	})
}
