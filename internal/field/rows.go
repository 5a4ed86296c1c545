package field

import (
	"fmt"
	"math"
)

// Rows is the storage layout of a PDF field, its allocation rows: for every
// (y, z) line of the ghosted block one x-span [lo, hi) of stored cells, the
// spans packed back to back in (z, y) order. Cell (x, y, z) of a non-empty
// row has the linear cell index CellIndex(x, y, z) = base(y, z) + x, so x
// steps by one inside a row while rows start wherever the packing put them.
//
// A box is the layout whose rows all span the box's x-range over its
// (y, z) rectangle and are empty elsewhere; packing then reproduces the
// row-major box formula, and a field storing its whole block indexes
// exactly as a plain three-dimensional array. Rows are immutable
// once built: the two fields of a block share one.
//
// Rows storing the whole block carry the strides of that array: row (y, z)
// starts sy*(y+ghost) + sz*(z+ghost) after row (-ghost, -ghost). A view's
// rows (PDFField.View) are such rows inside a larger whole-block field:
// they address its storage, with its strides and from the view's origin in
// it, and cells is its per-direction length.
type Rows struct {
	nx, ny, nz, ghost int
	ry                int       // rows per z-layer: ny + 2*ghost
	spans             []rowSpan // per row of the ghosted block, (z, y) order
	cells             int
	box               Window // bounding box of the stored cells
	full              bool   // the stored cells are the ghosted block
	sy, sz            int    // whole-block rows: the row and z-layer strides
	view              bool   // the rows address a larger field's storage
}

// rowSpan is one allocation row: its x-span [lo, hi), lo == hi for an
// empty row, and the base of its cell indices.
type rowSpan struct {
	lo, hi int32
	base   int // CellIndex(x, y, z) = base + x
}

// emptyRowBase is the base of a row that stores nothing: any cell index
// derived from it is hugely negative, so an access through it panics and a
// pull offset toward it is far out of range, while offsets and positions
// computed from it (scaled by at most Q = 27) cannot overflow.
const emptyRowBase = math.MinInt64 / 64

// NewRows builds the layout of an nx x ny x nz block with the given ghost
// width whose row (y, z) spans span(y, z) = [lo, hi). The span function is
// called once per row of the ghosted block; a span with hi <= lo stores
// nothing, and a non-empty span must lie inside the ghosted block.
func NewRows(nx, ny, nz, ghost int, span func(y, z int) (lo, hi int)) *Rows {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("field: invalid extents %dx%dx%d", nx, ny, nz))
	}
	if ghost < 0 {
		panic("field: negative ghost layer width")
	}
	ry, rz := ny+2*ghost, nz+2*ghost
	r := &Rows{
		nx: nx, ny: ny, nz: nz, ghost: ghost, ry: ry,
		spans: make([]rowSpan, ry*rz),
		box:   Window{Lo: [3]int{nx + ghost, ny + ghost, nz + ghost}, Hi: [3]int{-ghost, -ghost, -ghost}},
	}
	for z := -ghost; z < nz+ghost; z++ {
		for y := -ghost; y < ny+ghost; y++ {
			sp := &r.spans[r.row(y, z)]
			lo, hi := span(y, z)
			if hi <= lo {
				sp.base = emptyRowBase
				continue
			}
			if lo < -ghost || hi > nx+ghost {
				panic(fmt.Sprintf("field: row (y=%d,z=%d) span [%d,%d) exceeds the ghosted block [%d,%d)", y, z, lo, hi, -ghost, nx+ghost))
			}
			*sp = rowSpan{lo: int32(lo), hi: int32(hi), base: r.cells - lo}
			r.cells += hi - lo
			r.box.Lo = [3]int{min(r.box.Lo[0], lo), min(r.box.Lo[1], y), min(r.box.Lo[2], z)}
			r.box.Hi = [3]int{max(r.box.Hi[0], hi), max(r.box.Hi[1], y+1), max(r.box.Hi[2], z+1)}
		}
	}
	if r.cells == 0 {
		r.box = Window{}
	}
	r.full = r.cells == FullWindow(nx, ny, nz, ghost).Cells()
	if r.full {
		r.sy, r.sz = nx+2*ghost, (nx+2*ghost)*ry
	}
	return r
}

// viewRows are the rows of the nx x ny x nz block, ghost width r's, whose
// interior starts at cell lo of r, rows storing their whole block: the
// block and its ghost layer must lie in r's ghosted block.
func (r *Rows) viewRows(lo [3]int, nx, ny, nz int) *Rows {
	g := r.ghost
	if !r.full || r.view || min(lo[0], lo[1], lo[2]) < 0 || lo[0]+nx > r.nx || lo[1]+ny > r.ny || lo[2]+nz > r.nz {
		panic(fmt.Sprintf("field: a view of %dx%dx%d cells at %v does not fit a whole-block field of %dx%dx%d", nx, ny, nz, lo, r.nx, r.ny, r.nz))
	}
	v := &Rows{
		nx: nx, ny: ny, nz: nz, ghost: g, ry: ny + 2*g,
		spans: make([]rowSpan, (ny+2*g)*(nz+2*g)),
		cells: r.cells, box: FullWindow(nx, ny, nz, g),
		full: true, sy: r.sy, sz: r.sz, view: true,
	}
	for z := -g; z < nz+g; z++ {
		for y := -g; y < ny+g; y++ {
			v.spans[v.row(y, z)] = rowSpan{lo: int32(-g), hi: int32(nx + g), base: r.CellIndex(lo[0], lo[1]+y, lo[2]+z)}
		}
	}
	return v
}

// own returns rows storing the cells of r in a field of its own: r, or
// for a view the whole block.
func (r *Rows) own() *Rows {
	if r.view {
		return FullRows(r.nx, r.ny, r.nz, r.ghost)
	}
	return r
}

// FullRows is the layout storing the whole ghosted block.
func FullRows(nx, ny, nz, ghost int) *Rows {
	return NewRows(nx, ny, nz, ghost, func(int, int) (int, int) { return -ghost, nx + ghost })
}

// row is the table position of row (y, z).
func (r *Rows) row(y, z int) int { return (z+r.ghost)*r.ry + y + r.ghost }

// inBlock reports whether row (y, z) belongs to the ghosted block.
func (r *Rows) inBlock(y, z int) bool {
	return y >= -r.ghost && y < r.ny+r.ghost && z >= -r.ghost && z < r.nz+r.ghost
}

// Span returns the x-span [lo, hi) row (y, z) stores; lo == hi when it
// stores nothing, as every row outside the ghosted block.
func (r *Rows) Span(y, z int) (lo, hi int) {
	if !r.inBlock(y, z) {
		return 0, 0
	}
	sp := &r.spans[r.row(y, z)]
	return int(sp.lo), int(sp.hi)
}

// Contains reports whether cell (x, y, z) is stored.
func (r *Rows) Contains(x, y, z int) bool {
	if !r.inBlock(y, z) {
		return false
	}
	sp := &r.spans[r.row(y, z)]
	return x >= int(sp.lo) && x < int(sp.hi)
}

// CellIndex returns the linear cell index of (x, y, z), a stored cell. The
// index is linear in x along the whole row, stored or not, which lets a
// caller step across a span edge and test the cells it keeps; a cell of an
// empty row has a hugely negative index that no storage accepts.
func (r *Rows) CellIndex(x, y, z int) int { return r.spans[r.row(y, z)].base + x }

// Cells returns the number of stored cells.
func (r *Rows) Cells() int { return r.cells }

// Window returns the bounding box of the stored cells.
func (r *Rows) Window() Window { return r.box }

// Full reports whether the layout stores the whole ghosted block.
func (r *Rows) Full() bool { return r.full }

// Strides returns the row and z-layer strides of rows storing the whole
// block (Full), in cells: CellIndex(x, y+1, z) = CellIndex(x, y, z) + row
// and CellIndex(x, y, z+1) = CellIndex(x, y, z) + layer.
func (r *Rows) Strides() (row, layer int) { return r.sy, r.sz }

// View reports whether the rows address a larger field's storage
// (PDFField.View).
func (r *Rows) View() bool { return r.view }

// Extents returns the block shape the layout was built for.
func (r *Rows) Extents() (nx, ny, nz, ghost int) { return r.nx, r.ny, r.nz, r.ghost }

// Equal reports whether o stores the cells of r (SameCells) at the same
// cell indices, so that a cell index addresses the same cell in both.
func (r *Rows) Equal(o *Rows) bool {
	return r.SameCells(o) && r.cells == o.cells && r.sy == o.sy && r.sz == o.sz && r.spans[0].base == o.spans[0].base
}

// SameCells reports whether o describes the same block shape and spans,
// wherever it stores them.
func (r *Rows) SameCells(o *Rows) bool {
	if r == o {
		return true
	}
	if r.nx != o.nx || r.ny != o.ny || r.nz != o.nz || r.ghost != o.ghost {
		return false
	}
	if r.full || o.full {
		return r.full == o.full
	}
	for i, sp := range r.spans {
		if sp.lo != o.spans[i].lo || sp.hi != o.spans[i].hi {
			return false
		}
	}
	return true
}
