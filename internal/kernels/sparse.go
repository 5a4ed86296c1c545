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
// with linear index ci of an AoS field.
func trtCellAoS(in, out []float64, ci int, offs *[lattice.Q19]int, le, lo float64) {
	const q = lattice.Q19
	fC := in[(ci-offs[lattice.C])*q+int(lattice.C)]
	fN := in[(ci-offs[lattice.N])*q+int(lattice.N)]
	fS := in[(ci-offs[lattice.S])*q+int(lattice.S)]
	fW := in[(ci-offs[lattice.W])*q+int(lattice.W)]
	fE := in[(ci-offs[lattice.E])*q+int(lattice.E)]
	fT := in[(ci-offs[lattice.T])*q+int(lattice.T)]
	fB := in[(ci-offs[lattice.B])*q+int(lattice.B)]
	fNE := in[(ci-offs[lattice.NE])*q+int(lattice.NE)]
	fNW := in[(ci-offs[lattice.NW])*q+int(lattice.NW)]
	fSE := in[(ci-offs[lattice.SE])*q+int(lattice.SE)]
	fSW := in[(ci-offs[lattice.SW])*q+int(lattice.SW)]
	fTN := in[(ci-offs[lattice.TN])*q+int(lattice.TN)]
	fTS := in[(ci-offs[lattice.TS])*q+int(lattice.TS)]
	fTE := in[(ci-offs[lattice.TE])*q+int(lattice.TE)]
	fTW := in[(ci-offs[lattice.TW])*q+int(lattice.TW)]
	fBN := in[(ci-offs[lattice.BN])*q+int(lattice.BN)]
	fBS := in[(ci-offs[lattice.BS])*q+int(lattice.BS)]
	fBE := in[(ci-offs[lattice.BE])*q+int(lattice.BE)]
	fBW := in[(ci-offs[lattice.BW])*q+int(lattice.BW)]

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
	base := ci * q

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
	p trtParams
}

// NewSparseConditional constructs the conditional sparse TRT kernel.
func NewSparseConditional(op collide.TRT) *SparseConditional {
	return &SparseConditional{p: trtParams{lambdaE: op.LambdaE, lambdaO: op.LambdaO}}
}

// Name implements Kernel.
func (k *SparseConditional) Name() string { return "TRT Conditional" }

// Layout implements Kernel.
func (k *SparseConditional) Layout() field.Layout { return field.AoS }

// Sweep implements Kernel.
func (k *SparseConditional) Sweep(src, dst *field.PDFField, flags *field.FlagField) {
	checkShapes(src, dst, field.AoS)
	if flags == nil {
		panic("kernels: sparse kernel requires a flag field")
	}
	offs := pullOffsets(src)
	in, out := src.Data(), dst.Data()
	fdata := flags.Data()
	fsx, fsy, fsz := flags.Strides()
	_ = fsx
	for z := 0; z < src.Nz; z++ {
		for y := 0; y < src.Ny; y++ {
			ci := src.CellIndex(0, y, z)
			fi := (z+flags.Ghost)*fsz + (y+flags.Ghost)*fsy + flags.Ghost
			for x := 0; x < src.Nx; x++ {
				// The branch the paper identifies as the vectorization
				// blocker — evaluated for every traversed cell.
				if fdata[fi] == field.Fluid {
					trtCellAoS(in, out, ci, &offs, k.p.lambdaE, k.p.lambdaO)
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
	cells []int32 // linear cell indices of fluid cells
	src   *field.FlagField
	win   field.Window
}

// blockWindow resolves the allocation window a sparse kernel is compiled
// for: win itself, or the whole ghosted block of flags when win is empty.
func blockWindow(flags *field.FlagField, win field.Window) field.Window {
	if win.Empty() {
		return field.FullWindow(flags.Nx, flags.Ny, flags.Nz, flags.Ghost)
	}
	return win
}

// checkWindow panics when a kernel with precomputed cell indices meets a
// field allocated for another window than the one it was compiled for.
func checkWindow(src *field.PDFField, win field.Window, fluid int) {
	if fluid > 0 && src.Window() != win {
		panic("kernels: sparse kernel compiled for a different allocation window")
	}
}

// NewSparseCellList constructs the cell-list sparse TRT kernel for the
// given block; the flag field is scanned once to build the list. win is the
// allocation window of the PDF fields the kernel will sweep and must hold
// every fluid cell; the zero value means the whole ghosted block.
func NewSparseCellList(op collide.TRT, flags *field.FlagField, win field.Window) *SparseCellList {
	k := &SparseCellList{
		p:   trtParams{lambdaE: op.LambdaE, lambdaO: op.LambdaO},
		src: flags,
		win: blockWindow(flags, win),
	}
	for z := 0; z < flags.Nz; z++ {
		for y := 0; y < flags.Ny; y++ {
			for x := 0; x < flags.Nx; x++ {
				if flags.Get(x, y, z) == field.Fluid {
					k.cells = append(k.cells, int32(k.win.Index(x, y, z)))
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
	checkShapes(src, dst, field.AoS)
	if flags != k.src {
		panic("kernels: SparseCellList used with a different flag field")
	}
	checkWindow(src, k.win, len(k.cells))
	offs := pullOffsets(src)
	in, out := src.Data(), dst.Data()
	for _, ci := range k.cells {
		trtCellAoS(in, out, int(ci), &offs, k.p.lambdaE, k.p.lambdaO)
	}
}

// interval is a run of consecutive fluid cells within one lattice line.
type interval struct {
	base int // linear cell index of the first fluid cell
	n    int // run length
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
	win       field.Window
	fluid     int
}

// NewSparseInterval constructs the interval sparse TRT kernel for the given
// block. win is the allocation window of the PDF fields the kernel will
// sweep — interval bases are cell indices of that window — and must hold
// every fluid cell; the zero value means the whole ghosted block. Unlike the
// paper's single [first,last] pair per line, maximal runs are stored, so
// lines with interior gaps remain exact. Every stored run is bounds-checked
// against the line it belongs to — degenerate geometries (no fluid at all,
// isolated single cells, fully fluid lines) produce empty, length-one, and
// full-width intervals respectively, all of which must stay inside
// [lineBase, lineBase+Nx).
func NewSparseInterval(op collide.TRT, flags *field.FlagField, win field.Window) *SparseInterval {
	k := &SparseInterval{src: flags, win: blockWindow(flags, win)}
	k.p = trtParams{lambdaE: op.LambdaE, lambdaO: op.LambdaO}
	for z := 0; z < flags.Nz; z++ {
		for y := 0; y < flags.Ny; y++ {
			lineBase := k.win.Index(0, y, z)
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
					iv := interval{base: lineBase + x0, n: x - x0}
					if iv.n < 1 || iv.n > flags.Nx || iv.base < lineBase || iv.base+iv.n > lineBase+flags.Nx {
						panic("kernels: sparse interval escapes its lattice line")
					}
					if !k.win.Contains(x0, y, z) || !k.win.Contains(x-1, y, z) {
						panic("kernels: fluid cells outside the allocation window")
					}
					k.intervals = append(k.intervals, iv)
					k.fluid += iv.n
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
	checkShapes(src, dst, field.SoA)
	if flags != k.src {
		panic("kernels: SparseInterval used with a different flag field")
	}
	checkWindow(src, k.win, k.fluid)
	rows := newDirRows(src, dst)
	le, lo := k.p.lambdaE, k.p.lambdaO
	for _, iv := range k.intervals {
		trtRow(&rows, iv.base, iv.n, le, lo)
	}
}
