// Package field provides the cell data containers used by the LBM kernels:
// particle distribution function (PDF) fields with ghost layers in either
// array-of-structures or structure-of-arrays memory layout, plus flag and
// scalar fields sharing the same indexing scheme.
//
// The layout choice is the node-level optimization lever of the paper: the
// SoA layout stores all PDFs of one direction contiguously, enabling the
// vectorized by-direction kernels, while AoS stores all PDFs of one cell
// together, the natural layout for the generic kernel.
package field

import (
	"fmt"

	"walberla/internal/lattice"
)

// Layout selects the memory layout of a PDF field.
type Layout int

const (
	// AoS (array of structures) stores the Q PDFs of each cell
	// consecutively.
	AoS Layout = iota
	// SoA (structure of arrays) stores the PDFs of each direction in a
	// separate contiguous array, the layout required for SIMD-style
	// by-direction updates.
	SoA
)

func (l Layout) String() string {
	switch l {
	case AoS:
		return "AoS"
	case SoA:
		return "SoA"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// PDFField holds the particle distribution functions of one block: an
// Nx x Ny x Nz interior grid surrounded by a ghost layer of the given
// width. Cell (0,0,0) is the first interior cell; ghost cells have
// coordinates down to -Ghost and up to N+Ghost-1.
//
// Storage follows the field's allocation rows (Rows): per (y, z) line of
// the ghosted block one x-span of stored cells, the whole block for
// NewPDFField. Cells of the block outside their row's span are not stored:
// they hold the field's fill value — what FillEquilibrium last wrote, zero
// before. At and PackRegion report it there, UnpackRegion, CopyRegion and
// CopyFrom leave such cells out, and the direct accessors (Get, Set, Index,
// Data) address stored cells only. A block whose fluid is a thin vessel
// thus pays for the cells around the vessel only, while x stays
// unit-stride inside every row the kernels update (docs/KERNELS.md,
// "Allocation rows").
//
// A view (View) is the field of one block inside a larger whole-block
// field, whose storage it shares: Data is that field's, AllocatedCells its
// per-direction length, and two adjacent views of one field share cells —
// the ghost layer of one is the other's boundary cells. A view owns its
// interior only: CopyFrom and FillEquilibrium write no ghost cell of it.
type PDFField struct {
	Stencil *lattice.Stencil
	Nx      int // interior cells in x
	Ny      int // interior cells in y
	Nz      int // interior cells in z
	Ghost   int // ghost layer width
	Layout  Layout

	rows  *Rows
	spans []rowSpan // rows.spans: CellIndex(x, y, z) = spans[(z+Ghost)*ry+y+Ghost].base + x
	ry    int       // rows per z-layer
	cells int       // stored cells
	// Data position of PDF (cell ci, direction a) is ci*cellStep + a*dirStep:
	// (Q, 1) for AoS, (1, cells) for SoA.
	cellStep, dirStep int
	data              []float64
	fill              []float64 // per direction, the value of cells outside the rows
}

// NewPDFField allocates a PDF field of nx x ny x nz interior cells with the
// given ghost layer width and layout, storing the whole ghosted block. All
// PDFs start at zero.
func NewPDFField(s *lattice.Stencil, nx, ny, nz, ghost int, layout Layout) *PDFField {
	return NewPDFFieldRows(s, layout, FullRows(nx, ny, nz, ghost))
}

// NewPDFFieldRows allocates a PDF field with the block shape and allocation
// rows of rows, which it shares. All PDFs, and the fill value, start at
// zero.
func NewPDFFieldRows(s *lattice.Stencil, layout Layout, rows *Rows) *PDFField {
	cells := rows.Cells()
	cellStep, dirStep := s.Q, 1
	if layout == SoA {
		cellStep, dirStep = 1, cells
	}
	return &PDFField{
		Stencil: s,
		Nx:      rows.nx, Ny: rows.ny, Nz: rows.nz,
		Ghost:    rows.ghost,
		Layout:   layout,
		rows:     rows,
		spans:    rows.spans,
		ry:       rows.ry,
		cells:    cells,
		cellStep: cellStep, dirStep: dirStep,
		data: make([]float64, cells*s.Q),
		fill: make([]float64, s.Q),
	}
}

// View returns the field of the nx x ny x nz block whose interior starts
// at interior cell lo of f, with f's ghost width, stencil and layout: its
// rows address f's storage, so it writes and reads f's cells. f must store
// its whole block and be no view itself, and the view's ghosted block must
// lie in f's. The view starts with f's fill value.
func (f *PDFField) View(lo [3]int, nx, ny, nz int) *PDFField {
	rows := f.rows.viewRows(lo, nx, ny, nz)
	return &PDFField{
		Stencil: f.Stencil,
		Nx:      nx, Ny: ny, Nz: nz,
		Ghost:    f.Ghost,
		Layout:   f.Layout,
		rows:     rows,
		spans:    rows.spans,
		ry:       rows.ry,
		cells:    f.cells,
		cellStep: f.cellStep, dirStep: f.dirStep,
		data: f.data,
		fill: append([]float64(nil), f.fill...),
	}
}

// Rows returns the field's allocation rows.
func (f *PDFField) Rows() *Rows { return f.rows }

// Window returns the bounding box of the stored cells.
func (f *PDFField) Window() Window { return f.rows.box }

// FillValue returns what cells outside the rows read as for direction dir.
func (f *PDFField) FillValue(dir lattice.Direction) float64 { return f.fill[dir] }

// SameShape reports whether g has f's extents, ghost width, stencil, layout
// and allocation rows, so that a linear index addresses the same PDF in
// both (Rows.Equal).
func (f *PDFField) SameShape(g *PDFField) bool {
	return f.Nx == g.Nx && f.Ny == g.Ny && f.Nz == g.Nz && f.Ghost == g.Ghost &&
		f.Layout == g.Layout && f.Stencil == g.Stencil && f.rows.Equal(g.rows)
}

// CellIndex converts interior-relative coordinates (ghost cells allowed,
// from -Ghost to N+Ghost-1) into the linear cell index used by Data: the
// base of the cell's row plus x. Only stored cells index storage.
func (f *PDFField) CellIndex(x, y, z int) int {
	return f.spans[(z+f.Ghost)*f.ry+y+f.Ghost].base + x
}

// Index returns the position of PDF (x,y,z,dir) within Data; the cell must
// be stored.
func (f *PDFField) Index(x, y, z int, dir lattice.Direction) int {
	return f.CellIndex(x, y, z)*f.cellStep + int(dir)*f.dirStep
}

// Get returns the stored PDF value at (x,y,z) for direction dir. Like Index
// it is the kernels' accessor and addresses storage directly: the cell must
// be stored (a span test per access costs the interpolation and
// generic-kernel loops half their speed). Code that traverses whole blocks
// reads through At.
func (f *PDFField) Get(x, y, z int, dir lattice.Direction) float64 {
	return f.data[f.Index(x, y, z, dir)]
}

// Set stores the PDF value at (x,y,z) for direction dir; the cell must be
// stored.
func (f *PDFField) Set(x, y, z int, dir lattice.Direction, v float64) {
	f.data[f.Index(x, y, z, dir)] = v
}

// At returns the PDF value at any cell of the ghosted block: the stored
// value inside the cell's row span, the fill value outside.
func (f *PDFField) At(x, y, z int, dir lattice.Direction) float64 {
	if !f.rows.Contains(x, y, z) {
		return f.fill[dir]
	}
	return f.data[f.Index(x, y, z, dir)]
}

// Data exposes the raw storage of the rows for compute kernels — a view's
// is the storage it shares. Layout-dependent; use Index or CellIndex to
// address it.
func (f *PDFField) Data() []float64 { return f.data }

// DirSlice returns the contiguous per-direction array of a SoA field. It
// panics for AoS fields, where directions are interleaved.
func (f *PDFField) DirSlice(dir lattice.Direction) []float64 {
	if f.Layout != SoA {
		panic("field: DirSlice requires SoA layout")
	}
	off := int(dir) * f.cells
	return f.data[off : off+f.cells : off+f.cells]
}

// AllocatedCells returns the number of cells the field stores: the cells
// of its rows, ghost cells included; for a view, those of the field whose
// storage it shares, the length of one direction's array.
func (f *PDFField) AllocatedCells() int { return f.cells }

// InteriorCells returns Nx*Ny*Nz.
func (f *PDFField) InteriorCells() int { return f.Nx * f.Ny * f.Nz }

// FillEquilibrium sets every cell, including ghosts, to the equilibrium
// distribution for the given density and velocity, which also becomes the
// fill value of the cells outside the rows; a view's interior cells only.
func (f *PDFField) FillEquilibrium(rho, ux, uy, uz float64) {
	f.FillEquilibriumPart(0, 1, rho, ux, uy, uz)
}

// FillEquilibriumPart is part k of n of FillEquilibrium: the parts write
// disjoint cells and only part 0 the fill value, so the n parts may run
// concurrently — how a field much larger than a block is filled.
func (f *PDFField) FillEquilibriumPart(k, n int, rho, ux, uy, uz float64) {
	q := f.Stencil.Q
	feq := make([]float64, q)
	f.Stencil.Equilibrium(feq, rho, ux, uy, uz)
	if k == 0 {
		copy(f.fill, feq)
	}
	if f.rows.view {
		for z := k * f.Nz / n; z < (k+1)*f.Nz/n; z++ {
			for y := 0; y < f.Ny; y++ {
				for a := 0; a < q; a++ {
					spread(f.data, f.Index(0, y, z, lattice.Direction(a)), f.Nx, f.cellStep, feq[a])
				}
			}
		}
		return
	}
	c0, c1 := k*f.cells/n, (k+1)*f.cells/n
	if f.Layout == SoA {
		for a := 0; a < q; a++ {
			fillFloats(f.data[a*f.cells+c0:a*f.cells+c1], feq[a])
		}
		return
	}
	if c0 == c1 {
		return
	}
	// One cell, then doubling copies of what is already written.
	part := f.data[c0*q : c1*q]
	m := copy(part, feq)
	for m < len(part) {
		m += copy(part[m:], part[:m])
	}
}

func fillFloats(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}

// shortRow is the row length below which a scalar loop beats the call into
// memmove.
const shortRow = 8

// copySteps copies n values from positions ss apart in src to positions ds
// apart in dst.
func copySteps(dst []float64, ds int, src []float64, ss, n int) {
	if ds == 1 && ss == 1 && n >= shortRow {
		copy(dst[:n], src)
		return
	}
	for j := 0; j < n; j++ {
		dst[j*ds] = src[j*ss]
	}
}

// spread sets n positions of dst, step apart from at on, to v.
func spread(dst []float64, at, n, step int, v float64) {
	for j := 0; j < n; j++ {
		dst[at+j*step] = v
	}
}

// fillCopy writes the n positions of dst, ds apart from dp on, of one row:
// positions [a, b) from src, ss apart from sp on, the others v.
func fillCopy(dst []float64, dp, ds, n, a, b int, src []float64, sp, ss int, v float64) {
	spread(dst, dp, a, ds, v)
	if b > a {
		copySteps(dst[dp+a*ds:], ds, src[sp:], ss, b-a)
	}
	spread(dst, dp+b*ds, n-b, ds, v)
}

// layer returns the spans of rows y0..y1-1 of z-layer z, rows that must
// lie in the ghosted block.
func (r *Rows) layer(y0, y1, z int) []rowSpan {
	i := r.row(y0, z)
	return r.spans[i : i+y1-y0]
}

// stored is an empty range at 0 for a >= b, [a, b) otherwise.
func stored(a, b int) (int, int) {
	if a >= b {
		return 0, 0
	}
	return a, b
}

// PackRegion serializes the PDFs of the given directions over the
// half-open cell box [lo, hi) into dst, in deterministic dir-major, then
// z, y, x order, and returns the number of values written; cells outside
// the rows contribute the fill value. dst must hold at least len(dirs) *
// volume(box) values; the write is a pure sub-slice fill, so concurrent
// PackRegion calls into disjoint sub-slices of one aggregate buffer are
// race-free. For SoA fields the stored part of each x-row is one
// contiguous copy.
//
// Pack and unpack visit the rows of the box with the same loop; they stay
// two functions because a shared body branching per row on the direction
// measured 15-30 % slower on block faces.
func (f *PDFField) PackRegion(dst []float64, lo, hi [3]int, dirs []lattice.Direction) int {
	box := Window{lo, hi}
	vol := box.Cells()
	if vol == 0 {
		return 0
	}
	c := box.Intersect(FullWindow(f.Nx, f.Ny, f.Nz, f.Ghost)) // the rows of the box in the block
	nx, ny, step := hi[0]-lo[0], hi[1]-lo[1], f.cellStep
	for di, d := range dirs {
		off := int(d) * f.dirStep
		if c != box {
			fillFloats(dst[di*vol:(di+1)*vol], f.fill[d])
		}
		for z := c.Lo[2]; z < c.Hi[2]; z++ {
			k := di*vol + ((z-lo[2])*ny+c.Lo[1]-lo[1])*nx
			for _, sp := range f.rows.layer(c.Lo[1], c.Hi[1], z) {
				a, b := stored(max(int(sp.lo), lo[0])-lo[0], min(int(sp.hi), hi[0])-lo[0])
				fillCopy(dst, k, 1, nx, a, b, f.data, (sp.base+lo[0]+a)*step+off, step, f.fill[d])
				k += nx
			}
		}
	}
	return len(dirs) * vol
}

// UnpackRegion reverses PackRegion: it reads len(dirs) * volume(box)
// values from src into the box, in the same deterministic order, and
// returns the number of values consumed; values addressed to cells outside
// the rows are skipped.
func (f *PDFField) UnpackRegion(src []float64, lo, hi [3]int, dirs []lattice.Direction) int {
	box := Window{lo, hi}
	vol := box.Cells()
	if vol == 0 {
		return 0
	}
	c := box.Intersect(FullWindow(f.Nx, f.Ny, f.Nz, f.Ghost))
	nx, ny, step := hi[0]-lo[0], hi[1]-lo[1], f.cellStep
	for di, d := range dirs {
		off := int(d) * f.dirStep
		for z := c.Lo[2]; z < c.Hi[2]; z++ {
			k := di*vol + ((z-lo[2])*ny+c.Lo[1]-lo[1])*nx
			for _, sp := range f.rows.layer(c.Lo[1], c.Hi[1], z) {
				if a, b := max(int(sp.lo), lo[0]), min(int(sp.hi), hi[0]); a < b {
					copySteps(f.data[(sp.base+a)*step+off:], step, src[k+a-lo[0]:], 1, b-a)
				}
				k += nx
			}
		}
	}
	return len(dirs) * vol
}

// CopyRegion copies the PDFs of the given directions over the half-open
// box [srcLo, srcHi) of src into the identically shaped box starting at
// dstLo of dst — the zero-staging path for ghost exchange between blocks
// of the same rank. Both fields must share stencil and layout. Source
// cells outside src's rows are read as its fill value, destination cells
// outside dst's rows are skipped.
func CopyRegion(dst *PDFField, dstLo [3]int, src *PDFField, srcLo, srcHi [3]int, dirs []lattice.Direction) {
	if dst.Stencil != src.Stencil || dst.Layout != src.Layout {
		panic("field: CopyRegion requires matching stencil and layout")
	}
	// Work in source coordinates over the rows of the box that lie in both
	// blocks; per row, [ta, tb) is the part whose destination cells are
	// stored, [a, b) the part of it whose source cells are stored too.
	shift := [3]int{dstLo[0] - srcLo[0], dstLo[1] - srcLo[1], dstLo[2] - srcLo[2]}
	box := Window{srcLo, srcHi}
	db := FullWindow(dst.Nx, dst.Ny, dst.Nz, dst.Ghost)
	for d := 0; d < 3; d++ {
		db.Lo[d], db.Hi[d] = db.Lo[d]-shift[d], db.Hi[d]-shift[d]
	}
	c := box.Intersect(FullWindow(src.Nx, src.Ny, src.Nz, src.Ghost)).Intersect(db)
	step := src.cellStep
	for _, d := range dirs {
		so, do := int(d)*src.dirStep, int(d)*dst.dirStep
		for z := c.Lo[2]; z < c.Hi[2]; z++ {
			ss := src.rows.layer(c.Lo[1], c.Hi[1], z)
			ds := dst.rows.layer(c.Lo[1]+shift[1], c.Hi[1]+shift[1], z+shift[2])
			for j := range ss {
				sp, tp := &ss[j], &ds[j]
				ta, tb := max(int(tp.lo)-shift[0], srcLo[0]), min(int(tp.hi)-shift[0], srcHi[0])
				if ta >= tb {
					continue
				}
				a, b := stored(max(int(sp.lo), ta)-ta, min(int(sp.hi), tb)-ta)
				fillCopy(dst.data, (tp.base+ta+shift[0])*step+do, step, tb-ta, a, b,
					src.data, (sp.base+ta+a)*step+so, step, src.fill[d])
			}
		}
	}
}

// CopyShape allocates a new zeroed field with identical shape, ghost width,
// stencil, layout and stored cells — the destination field of a
// stream-pull update; of a view, a field of its own storing the view's
// whole block.
func (f *PDFField) CopyShape() *PDFField {
	return NewPDFFieldRows(f.Stencil, f.Layout, f.rows.own())
}

// CopyFrom overwrites every stored cell of f — of a view, every interior
// cell — with the value g holds there (g's fill value where g does not
// store the cell). The fields must agree in extents, ghost width and
// stencil, and may differ in layout and rows — it is how a decoded
// checkpoint or a replica lands in a live block field.
func (f *PDFField) CopyFrom(g *PDFField) {
	if f.Nx != g.Nx || f.Ny != g.Ny || f.Nz != g.Nz || f.Ghost != g.Ghost || f.Stencil != g.Stencil {
		panic("field: CopyFrom requires identically sized fields")
	}
	if f.Layout == g.Layout && f.rows.Equal(g.rows) && !f.rows.view {
		copy(f.data, g.data)
		return
	}
	h := f.Ghost // the ghost cells written
	if f.rows.view {
		h = 0
	}
	for q := 0; q < f.Stencil.Q; q++ {
		fo, gOff := q*f.dirStep, q*g.dirStep
		for z := -h; z < f.Nz+h; z++ {
			gs := g.rows.layer(-h, f.Ny+h, z)
			for j, sp := range f.rows.layer(-h, f.Ny+h, z) {
				lo, hi := max(int(sp.lo), -h), min(int(sp.hi), f.Nx+h)
				if lo >= hi {
					continue
				}
				gp := &gs[j]
				a, b := stored(max(int(gp.lo), lo)-lo, min(int(gp.hi), hi)-lo)
				fillCopy(f.data, (sp.base+lo)*f.cellStep+fo, f.cellStep, hi-lo, a, b,
					g.data, (gp.base+lo+a)*g.cellStep+gOff, g.cellStep, g.fill[q])
			}
		}
	}
}

// ConvertLayout returns a copy of the field, same stored cells and fill
// value, in the requested layout — of a view, a field of its own.
func (f *PDFField) ConvertLayout(layout Layout) *PDFField {
	out := NewPDFFieldRows(f.Stencil, layout, f.rows.own())
	copy(out.fill, f.fill)
	out.CopyFrom(f)
	return out
}

// Swap exchanges the storage of two fields with identical shapes. It is the
// cheap src/dst exchange at the end of a stream-pull time step.
func Swap(a, b *PDFField) {
	if !a.SameShape(b) {
		panic("field: Swap requires identically shaped fields")
	}
	a.data, b.data = b.data, a.data
	a.fill, b.fill = b.fill, a.fill
}

// Moments computes density and velocity of the interior cell (x,y,z).
func (f *PDFField) Moments(x, y, z int) (rho, ux, uy, uz float64) {
	q := f.Stencil.Q
	tmp := make([]float64, q)
	for a := 0; a < q; a++ {
		tmp[a] = f.At(x, y, z, lattice.Direction(a))
	}
	return f.Stencil.Moments(tmp)
}

// TotalMass sums the density over all interior cells; with periodic or
// bounce-back boundaries a correct LBM step conserves it exactly (up to
// floating point rounding).
func (f *PDFField) TotalMass() float64 {
	var m float64
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			for x := 0; x < f.Nx; x++ {
				for a := 0; a < f.Stencil.Q; a++ {
					m += f.At(x, y, z, lattice.Direction(a))
				}
			}
		}
	}
	return m
}
