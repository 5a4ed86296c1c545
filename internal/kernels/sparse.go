package kernels

import (
	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// The three strategies of section 4.3 for blocks only partially covered by
// fluid cells:
//
//   - SparseConditional: a conditional statement in the innermost loop
//     executes the stream-collide update only for fluid cells. Cheap to
//     set up, but the branch defeats vectorization.
//   - SparseCellList: the coordinates of a block's fluid cells are stored
//     in an array and the kernel loops over that array. No branch, but
//     the gather access pattern still defeats vectorization.
//   - SparseInterval: for every line of lattice cells the index range of
//     fluid cells is stored, similar to the compressed storage scheme of
//     a sparse matrix, and the split (SIMD) kernel runs on each interval.
//     This strategy vectorizes and fits tubular geometries with few but
//     consecutive fluid cells per line.

// trtCellAoS applies the fused pull-stream TRT update to the single cell
// with linear index ci of an AoS field, whose row pulls with v.
func trtCellAoS(in, out []float64, ci int, v *pullVec, le, lo float64) {
	const q = lattice.Q19
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
}

// SparseConditional is strategy one: the full block is traversed and a
// conditional in the innermost loop skips non-fluid cells.
type SparseConditional struct {
	p     trtParams
	pulls pullTable
}

// NewSparseConditional constructs the conditional sparse TRT kernel for
// PDF fields stored in rows; nil rows give a kernel for fields storing
// their whole block.
func NewSparseConditional(op collide.TRT, rows *field.Rows) *SparseConditional {
	return &SparseConditional{p: trtParams{lambdaE: op.LambdaE, lambdaO: op.LambdaO}, pulls: newPullTable(rows, nil, field.AoS)}
}

// Name implements Kernel.
func (k *SparseConditional) Name() string { return "TRT Conditional" }

// Layout implements Kernel.
func (k *SparseConditional) Layout() field.Layout { return field.AoS }

// Sweep implements Kernel.
func (k *SparseConditional) Sweep(src, dst *field.PDFField, flags *field.FlagField) {
	if flags == nil {
		panic("kernels: sparse kernel requires a flag field")
	}
	checkSweep(src, dst, flags, field.AoS)
	var pulls rowPulls
	k.pulls.bind(&pulls, src, flags)
	in, out := src.Data(), dst.Data()
	fdata := flags.Data()
	_, fsy, fsz := flags.Strides()
	for z := 0; z < src.Nz; z++ {
		for y := 0; y < src.Ny; y++ {
			ci := src.CellIndex(0, y, z)
			fi := (z+flags.Ghost)*fsz + (y+flags.Ghost)*fsy + flags.Ghost
			v := pulls.at(y, z)
			for x := 0; x < src.Nx; x++ {
				// The branch the paper identifies as the vectorization
				// blocker — evaluated for every traversed cell.
				if fdata[fi] == field.Fluid {
					trtCellAoS(in, out, ci, v, k.p.lambdaE, k.p.lambdaO)
				}
				ci++
				fi++
			}
		}
	}
}

// SparseCellList is strategy two: the fluid cell indices are gathered once
// and the kernel loops over the index array, removing the branch from the
// inner loop at the cost of indexed access.
type SparseCellList struct {
	p     trtParams
	cells []fluidCell
	src   *field.FlagField
	pulls pullTable
}

// fluidCell is a cell of the list: its linear index and the pull vector of
// its row.
type fluidCell struct{ ci, v int32 }

// blockRows resolves the allocation rows a sparse kernel is built for:
// rows itself, or the whole ghosted block of flags when rows is nil.
func blockRows(flags *field.FlagField, rows *field.Rows) *field.Rows {
	if rows == nil {
		return field.FullRows(flags.Nx, flags.Ny, flags.Nz, flags.Ghost)
	}
	return rows
}

// NewSparseCellList constructs the cell-list sparse TRT kernel for the
// given block; the flag field is scanned once to build the list. rows are
// the allocation rows of the PDF fields the kernel will sweep and must
// store every fluid cell and what it pulls from; nil means the whole
// ghosted block.
func NewSparseCellList(op collide.TRT, flags *field.FlagField, rows *field.Rows) *SparseCellList {
	k := &SparseCellList{
		p:     trtParams{lambdaE: op.LambdaE, lambdaO: op.LambdaO},
		src:   flags,
		pulls: newPullTable(blockRows(flags, rows), flags, field.AoS),
	}
	for z := 0; z < flags.Nz; z++ {
		for y := 0; y < flags.Ny; y++ {
			for x := 0; x < flags.Nx; x++ {
				if flags.Get(x, y, z) == field.Fluid {
					k.cells = append(k.cells, fluidCell{int32(k.pulls.rows.CellIndex(x, y, z)), k.pulls.vec(y, z)})
				}
			}
		}
	}
	return k
}

// Name implements Kernel.
func (k *SparseCellList) Name() string { return "TRT CellList" }

// Layout implements Kernel.
func (k *SparseCellList) Layout() field.Layout { return field.AoS }

// FluidCells returns the number of cells in the list.
func (k *SparseCellList) FluidCells() int { return len(k.cells) }

// Sweep implements Kernel. The flag field must be the one the kernel was
// constructed from (the list is precomputed).
func (k *SparseCellList) Sweep(src, dst *field.PDFField, flags *field.FlagField) {
	if flags != k.src {
		panic("kernels: SparseCellList used with a different flag field")
	}
	checkSweep(src, dst, flags, field.AoS)
	var pulls rowPulls
	k.pulls.bind(&pulls, src, flags)
	in, out := src.Data(), dst.Data()
	for _, c := range k.cells {
		trtCellAoS(in, out, int(c.ci), &pulls.vecs[c.v], k.p.lambdaE, k.p.lambdaO)
	}
}

// interval is a run of consecutive fluid cells within one lattice line.
type interval struct {
	base int   // linear cell index of the first fluid cell
	n    int32 // run length
	v    int32 // the pull vector of the line
}

// SparseInterval is strategy three: per lattice line the ranges of fluid
// cells are stored like the compressed rows of a sparse matrix, and the
// split (SIMD) TRT kernel processes each range — branch-free, contiguous,
// vectorizable. It shares the fused by-direction row update with SplitTRT,
// so its results are bit-identical to the dense SoA kernel on the cells it
// covers.
type SparseInterval struct {
	p         trtParams
	intervals []interval
	src       *field.FlagField
	pulls     pullTable
	fluid     int
}

// NewSparseInterval constructs the interval sparse TRT kernel for the given
// block. rows are the allocation rows of the PDF fields the kernel will
// sweep — interval bases are their cell indices — and must store every
// fluid cell and what it pulls from; nil means the whole ghosted block.
// Unlike the paper's single [first,last] pair per line, maximal runs are
// stored, so lines with interior gaps remain exact. Every stored run is
// bounds-checked against the line it belongs to — degenerate geometries
// (no fluid at all, isolated single cells, fully fluid lines) produce
// empty, length-one, and full-width intervals respectively, all of which
// must stay inside [lineBase, lineBase+Nx).
func NewSparseInterval(op collide.TRT, flags *field.FlagField, rows *field.Rows) *SparseInterval {
	k := &SparseInterval{src: flags, pulls: newPullTable(blockRows(flags, rows), flags, field.SoA)}
	k.p = trtParams{lambdaE: op.LambdaE, lambdaO: op.LambdaO}
	for z := 0; z < flags.Nz; z++ {
		for y := 0; y < flags.Ny; y++ {
			lineBase := k.pulls.rows.CellIndex(0, y, z)
			x := 0
			for x < flags.Nx {
				for x < flags.Nx && flags.Get(x, y, z) != field.Fluid {
					x++
				}
				x0 := x
				for x < flags.Nx && flags.Get(x, y, z) == field.Fluid {
					x++
				}
				if x > x0 {
					iv := interval{base: lineBase + x0, n: int32(x - x0), v: k.pulls.vec(y, z)}
					if iv.n < 1 || int(iv.n) > flags.Nx || iv.base < lineBase || iv.base+int(iv.n) > lineBase+flags.Nx {
						panic("kernels: sparse interval escapes its lattice line")
					}
					k.intervals = append(k.intervals, iv)
					k.fluid += int(iv.n)
				}
			}
		}
	}
	return k
}

// Name implements Kernel.
func (k *SparseInterval) Name() string { return "TRT Interval" }

// Layout implements Kernel.
func (k *SparseInterval) Layout() field.Layout { return field.SoA }

// FluidCells returns the total number of cells covered by the intervals.
func (k *SparseInterval) FluidCells() int { return k.fluid }

// Intervals returns the number of stored runs, a measure of geometry
// fragmentation.
func (k *SparseInterval) Intervals() int { return len(k.intervals) }

// Sweep implements Kernel. The flag field must be the one the kernel was
// constructed from.
func (k *SparseInterval) Sweep(src, dst *field.PDFField, flags *field.FlagField) {
	if flags != k.src {
		panic("kernels: SparseInterval used with a different flag field")
	}
	checkSweep(src, dst, flags, field.SoA)
	var pulls rowPulls
	k.pulls.bind(&pulls, src, flags)
	rows := newDirRows(src, dst)
	le, lo := k.p.lambdaE, k.p.lambdaO
	for _, iv := range k.intervals {
		trtRow(&rows, &pulls.vecs[iv.v], iv.base, int(iv.n), le, lo)
	}
}
