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
type Rows struct {
	nx, ny, nz, ghost int
	ry                int       // rows per z-layer: ny + 2*ghost
	spans             []rowSpan // per row of the ghosted block, (z, y) order
	cells             int
	box               Window // bounding box of the stored cells
	full              bool   // the stored cells are the ghosted block
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

// Extents returns the block shape the layout was built for.
func (r *Rows) Extents() (nx, ny, nz, ghost int) { return r.nx, r.ny, r.nz, r.ghost }

// Equal reports whether o describes the same block shape and spans, so
// that a cell index addresses the same cell in both.
func (r *Rows) Equal(o *Rows) bool {
	if r == o {
		return true
	}
	if r.nx != o.nx || r.ny != o.ny || r.nz != o.nz || r.ghost != o.ghost || r.cells != o.cells {
		return false
	}
	if r.full && o.full {
		return true
	}
	for i, sp := range r.spans {
		if sp.lo != o.spans[i].lo || sp.hi != o.spans[i].hi {
			return false
		}
	}
	return true
}
