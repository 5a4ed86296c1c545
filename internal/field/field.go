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
// Storage covers the field's allocation window, a cell box inside the
// ghosted block (the whole block for NewPDFField). Cells of the block
// outside the window are not stored: they hold the field's fill value —
// what FillEquilibrium last wrote, zero before. At and PackRegion report it
// there, UnpackRegion, CopyRegion and CopyFrom leave such cells out, and the
// direct accessors (Get, Set, Index, Data) address stored cells only. A
// block whose fluid occupies a corner thus pays for the corner only, while
// the addressing inside the window keeps the constant strides the kernels
// depend on (docs/KERNELS.md, "Allocation windows").
type PDFField struct {
	Stencil *lattice.Stencil
	Nx      int // interior cells in x
	Ny      int // interior cells in y
	Nz      int // interior cells in z
	Ghost   int // ghost layer width
	Layout  Layout

	win        Window
	ox, oy, oz int // -win.Lo: coordinate to window-relative position
	ax, ay, az int // window extents
	cells      int // ax*ay*az
	// Data position of PDF (cell ci, direction a) is ci*cellStep + a*dirStep:
	// (Q, 1) for AoS, (1, cells) for SoA.
	cellStep, dirStep int
	data              []float64
	fill              []float64 // per direction, the value of cells outside the window
}

// NewPDFField allocates a PDF field of nx x ny x nz interior cells with the
// given ghost layer width and layout, its window the whole ghosted block.
// All PDFs start at zero.
func NewPDFField(s *lattice.Stencil, nx, ny, nz, ghost int, layout Layout) *PDFField {
	return NewPDFFieldWindow(s, nx, ny, nz, ghost, layout, FullWindow(nx, ny, nz, ghost))
}

// NewPDFFieldWindow allocates a PDF field whose storage covers only the
// window w, which must lie inside the ghosted block; an empty window
// allocates nothing. All PDFs, and the fill value, start at zero.
func NewPDFFieldWindow(s *lattice.Stencil, nx, ny, nz, ghost int, layout Layout, w Window) *PDFField {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("field: invalid extents %dx%dx%d", nx, ny, nz))
	}
	if ghost < 0 {
		panic("field: negative ghost layer width")
	}
	if w.Empty() {
		w = Window{}
	} else if full := FullWindow(nx, ny, nz, ghost); !full.Covers(w) {
		panic(fmt.Sprintf("field: window %v exceeds the ghosted block %v", w, full))
	}
	ax, ay, az := w.Hi[0]-w.Lo[0], w.Hi[1]-w.Lo[1], w.Hi[2]-w.Lo[2]
	cells := ax * ay * az
	cellStep, dirStep := s.Q, 1
	if layout == SoA {
		cellStep, dirStep = 1, cells
	}
	return &PDFField{
		Stencil: s,
		Nx:      nx, Ny: ny, Nz: nz,
		Ghost:  ghost,
		Layout: layout,
		win:    w,
		ox:     -w.Lo[0], oy: -w.Lo[1], oz: -w.Lo[2],
		ax: ax, ay: ay, az: az,
		cells:    cells,
		cellStep: cellStep, dirStep: dirStep,
		data: make([]float64, cells*s.Q),
		fill: make([]float64, s.Q),
	}
}

// Window returns the field's allocation window.
func (f *PDFField) Window() Window { return f.win }

// FillValue returns what cells outside the window read as for direction
// dir.
func (f *PDFField) FillValue(dir lattice.Direction) float64 { return f.fill[dir] }

// SameShape reports whether g has f's extents, ghost width, stencil, layout
// and window, so that a linear index addresses the same PDF in both.
func (f *PDFField) SameShape(g *PDFField) bool {
	return f.Nx == g.Nx && f.Ny == g.Ny && f.Nz == g.Nz && f.Ghost == g.Ghost &&
		f.Layout == g.Layout && f.Stencil == g.Stencil && f.win == g.win
}

// CellIndex converts interior-relative coordinates (ghost cells allowed,
// from -Ghost to N+Ghost-1) into the linear cell index used by Data. It is
// a pure linear map: only cells inside the window index storage.
func (f *PDFField) CellIndex(x, y, z int) int {
	return ((z+f.oz)*f.ay+(y+f.oy))*f.ax + (x + f.ox)
}

// Index returns the position of PDF (x,y,z,dir) within Data; the cell must
// lie inside the window.
func (f *PDFField) Index(x, y, z int, dir lattice.Direction) int {
	return f.CellIndex(x, y, z)*f.cellStep + int(dir)*f.dirStep
}

// Get returns the stored PDF value at (x,y,z) for direction dir. Like Index
// it is the kernels' accessor and addresses storage directly: the cell must
// lie inside the window (a window test per access costs the interpolation
// and generic-kernel loops half their speed). Code that traverses whole
// blocks reads through At.
func (f *PDFField) Get(x, y, z int, dir lattice.Direction) float64 {
	return f.data[f.Index(x, y, z, dir)]
}

// Set stores the PDF value at (x,y,z) for direction dir; the cell must lie
// inside the window.
func (f *PDFField) Set(x, y, z int, dir lattice.Direction, v float64) {
	f.data[f.Index(x, y, z, dir)] = v
}

// At returns the PDF value at any cell of the ghosted block: the stored
// value inside the window, the fill value outside.
func (f *PDFField) At(x, y, z int, dir lattice.Direction) float64 {
	if !f.win.Contains(x, y, z) {
		return f.fill[dir]
	}
	return f.data[f.Index(x, y, z, dir)]
}

// Data exposes the raw storage of the window for compute kernels.
// Layout-dependent; use Index or the stride accessors to address it.
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

// Strides returns the linear-index increments for a step in x, y and z,
// in units of cells (multiply by Q for AoS PDF offsets).
func (f *PDFField) Strides() (sx, sy, sz int) { return 1, f.ax, f.ax * f.ay }

// AllocatedCells returns the number of cells the field stores: the cells
// of its window, ghost cells included.
func (f *PDFField) AllocatedCells() int { return f.cells }

// InteriorCells returns Nx*Ny*Nz.
func (f *PDFField) InteriorCells() int { return f.Nx * f.Ny * f.Nz }

// FillEquilibrium sets every cell, including ghosts, to the equilibrium
// distribution for the given density and velocity, which also becomes the
// fill value of the cells outside the window.
func (f *PDFField) FillEquilibrium(rho, ux, uy, uz float64) {
	f.Stencil.Equilibrium(f.fill, rho, ux, uy, uz)
	q := f.Stencil.Q
	if f.Layout == SoA {
		for a := 0; a < q; a++ {
			fillFloats(f.data[a*f.cells:(a+1)*f.cells], f.fill[a])
		}
		return
	}
	if f.cells == 0 {
		return
	}
	// One cell, then doubling copies of what is already written.
	n := copy(f.data, f.fill)
	for n < len(f.data) {
		n += copy(f.data[n:], f.data[:n])
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

// steps returns the Data distances of one step in x, y and z.
func (f *PDFField) steps() (x, y, z int) {
	return f.cellStep, f.ax * f.cellStep, f.ay * f.ax * f.cellStep
}

// PackRegion serializes the PDFs of the given directions over the
// half-open cell box [lo, hi) into dst, in deterministic dir-major, then
// z, y, x order, and returns the number of values written; cells outside
// the window contribute the fill value. dst must hold at least len(dirs) *
// volume(box) values; the write is a pure sub-slice fill, so concurrent
// PackRegion calls into disjoint sub-slices of one aggregate buffer are
// race-free. For SoA fields each x-row is one contiguous copy.
//
// Pack and unpack visit the rows of the stored part of the box with the
// same loop; they stay two functions because a shared body branching per
// row on the direction measured 15-30 % slower on block faces.
func (f *PDFField) PackRegion(dst []float64, lo, hi [3]int, dirs []lattice.Direction) int {
	box := Window{lo, hi}
	nx, ny, vol := hi[0]-lo[0], hi[1]-lo[1], box.Cells()
	c := f.win.Intersect(box) // the stored part of the box
	n := c.Hi[0] - c.Lo[0]
	step, rowStep, layerStep := f.steps()
	for di, d := range dirs {
		if c != box {
			fillFloats(dst[di*vol:(di+1)*vol], f.fill[d])
		}
		// Buffer position and Data position of the first stored value of
		// the current z-layer.
		bufLayer := di*vol + ((c.Lo[2]-lo[2])*ny+c.Lo[1]-lo[1])*nx + c.Lo[0] - lo[0]
		layer := f.Index(c.Lo[0], c.Lo[1], c.Lo[2], d)
		for z := c.Lo[2]; n > 0 && z < c.Hi[2]; z++ {
			k, i := bufLayer, layer
			bufLayer, layer = bufLayer+ny*nx, layer+layerStep
			for y := c.Lo[1]; y < c.Hi[1]; y++ {
				copySteps(dst[k:], 1, f.data[i:], step, n)
				k += nx
				i += rowStep
			}
		}
	}
	return len(dirs) * vol
}

// UnpackRegion reverses PackRegion: it reads len(dirs) * volume(box)
// values from src into the box, in the same deterministic order, and
// returns the number of values consumed; values addressed to cells outside
// the window are skipped.
func (f *PDFField) UnpackRegion(src []float64, lo, hi [3]int, dirs []lattice.Direction) int {
	box := Window{lo, hi}
	nx, ny, vol := hi[0]-lo[0], hi[1]-lo[1], box.Cells()
	c := f.win.Intersect(box) // the stored part of the box
	n := c.Hi[0] - c.Lo[0]
	step, rowStep, layerStep := f.steps()
	for di, d := range dirs {
		// Buffer position and Data position of the first stored value of
		// the current z-layer.
		bufLayer := di*vol + ((c.Lo[2]-lo[2])*ny+c.Lo[1]-lo[1])*nx + c.Lo[0] - lo[0]
		layer := f.Index(c.Lo[0], c.Lo[1], c.Lo[2], d)
		for z := c.Lo[2]; n > 0 && z < c.Hi[2]; z++ {
			k, i := bufLayer, layer
			bufLayer, layer = bufLayer+ny*nx, layer+layerStep
			for y := c.Lo[1]; y < c.Hi[1]; y++ {
				copySteps(f.data[i:], step, src[k:], 1, n)
				k += nx
				i += rowStep
			}
		}
	}
	return len(dirs) * vol
}

// CopyRegion copies the PDFs of the given directions over the half-open
// box [srcLo, srcHi) of src into the identically shaped box starting at
// dstLo of dst — the zero-staging path for ghost exchange between blocks
// of the same rank. Both fields must share stencil and layout. Source
// cells outside src's window are read as its fill value, destination cells
// outside dst's window are skipped.
func CopyRegion(dst *PDFField, dstLo [3]int, src *PDFField, srcLo, srcHi [3]int, dirs []lattice.Direction) {
	if dst.Stencil != src.Stencil || dst.Layout != src.Layout {
		panic("field: CopyRegion requires matching stencil and layout")
	}
	// In source coordinates, shift taking them to destination coordinates:
	// t is the part of the box whose destination cells are stored, c the
	// part of t whose source cells are stored too.
	shift := [3]int{dstLo[0] - srcLo[0], dstLo[1] - srcLo[1], dstLo[2] - srcLo[2]}
	t := Window{srcLo, srcHi}
	for d := 0; d < 3; d++ {
		t.Lo[d] = max(t.Lo[d], dst.win.Lo[d]-shift[d])
		t.Hi[d] = max(min(t.Hi[d], dst.win.Hi[d]-shift[d]), t.Lo[d])
	}
	c := src.win.Intersect(t)
	n := c.Hi[0] - c.Lo[0]
	step, srcRow, srcLayer := src.steps()
	_, dstRow, dstLayer := dst.steps()
	for _, d := range dirs {
		if c != t {
			for z := t.Lo[2]; z < t.Hi[2]; z++ {
				for y := t.Lo[1]; y < t.Hi[1]; y++ {
					spread(dst.data, dst.Index(t.Lo[0]+shift[0], y+shift[1], z+shift[2], d), t.Hi[0]-t.Lo[0], step, src.fill[d])
				}
			}
		}
		sl := src.Index(c.Lo[0], c.Lo[1], c.Lo[2], d)
		dl := dst.Index(c.Lo[0]+shift[0], c.Lo[1]+shift[1], c.Lo[2]+shift[2], d)
		for z := c.Lo[2]; n > 0 && z < c.Hi[2]; z++ {
			si, di := sl, dl
			sl, dl = sl+srcLayer, dl+dstLayer
			for y := c.Lo[1]; y < c.Hi[1]; y++ {
				copySteps(dst.data[di:], step, src.data[si:], step, n)
				si += srcRow
				di += dstRow
			}
		}
	}
}

// CopyShape allocates a new zeroed field with identical shape, ghost width,
// stencil, layout and window — the destination field of a stream-pull
// update.
func (f *PDFField) CopyShape() *PDFField {
	return NewPDFFieldWindow(f.Stencil, f.Nx, f.Ny, f.Nz, f.Ghost, f.Layout, f.win)
}

// CopyFrom overwrites every cell of f's window with the value g holds
// there (g's fill value outside g's window). The fields must agree in
// extents, ghost width and stencil, and may differ in layout and window —
// it is how a decoded checkpoint or a replica lands in a live block field.
func (f *PDFField) CopyFrom(g *PDFField) {
	if f.Nx != g.Nx || f.Ny != g.Ny || f.Nz != g.Nz || f.Ghost != g.Ghost || f.Stencil != g.Stencil {
		panic("field: CopyFrom requires identically sized fields")
	}
	if f.Layout == g.Layout && f.win == g.win {
		copy(f.data, g.data)
		return
	}
	c := g.win.Intersect(f.win) // the cells both fields store
	for a := 0; a < f.Stencil.Q; a++ {
		d := lattice.Direction(a)
		for z := f.win.Lo[2]; z < f.win.Hi[2]; z++ {
			for y := f.win.Lo[1]; y < f.win.Hi[1]; y++ {
				spread(f.data, f.Index(f.win.Lo[0], y, z, d), f.ax, f.cellStep, g.fill[a])
			}
		}
		for z := c.Lo[2]; !c.Empty() && z < c.Hi[2]; z++ {
			for y := c.Lo[1]; y < c.Hi[1]; y++ {
				copySteps(f.data[f.Index(c.Lo[0], y, z, d):], f.cellStep, g.data[g.Index(c.Lo[0], y, z, d):], g.cellStep, c.Hi[0]-c.Lo[0])
			}
		}
	}
}

// ConvertLayout returns a copy of the field, same window and fill value,
// in the requested layout.
func (f *PDFField) ConvertLayout(layout Layout) *PDFField {
	out := NewPDFFieldWindow(f.Stencil, f.Nx, f.Ny, f.Nz, f.Ghost, layout, f.win)
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
