package kernels

import (
	"math"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Per-row pull addressing. The stream-pull update of cell (x, y, z) reads
// direction a from its upstream neighbor (x−cx, y−cy, z−cz). A field's
// allocation rows (field.Rows) place row (y, z) at its own base, so the
// neighbor's linear cell index is ci − offs[a] with
//
//	offs[a] = base(y, z) − base(y−cy, z−cz) + cx,
//
// a constant of the row rather than of the block. A kernel built for a
// row layout computes these offsets once per interior row, turns them into
// Data() offsets for its layout and keeps each distinct vector once; a
// whole block, whose rows are equidistant, has one vector that all its
// rows share. A kernel built for no layout (the constructors New* without
// rows, kernels.New with a zero Spec.Rows) sweeps fields storing their
// whole block, of any shape, with that one vector, computed per sweep.

// pullVec addresses the pulls of one row: the value direction a pulls into
// the cell at Data() position p (ci for SoA, ci*Q for AoS) is at
// p + ioff[a] — a·cells − offs[a] for SoA, a − offs[a]·Q for AoS.
type pullVec struct {
	ioff [lattice.Q19]int
	// SoA: every pull of the row [base, base+n) lies in its direction's
	// array exactly when lo <= base and base+n <= hi.
	lo, hi int
}

// unsweepable is the vector of a row no fluid cell may occupy — one that
// stores nothing or pulls from a row that stores nothing: every access
// through it is out of range.
var unsweepable = func() pullVec {
	v := pullVec{lo: math.MaxInt, hi: math.MinInt}
	for a := range v.ioff {
		v.ioff[a] = math.MinInt64 / 4
	}
	return v
}()

// newPullVec turns the pull offsets of a row, in cells, into its vector for
// a field of the given layout storing cells cells.
func newPullVec(offs *[lattice.Q19]int, layout field.Layout, cells int) pullVec {
	v := pullVec{hi: cells}
	for a, o := range offs {
		if layout == field.SoA {
			v.ioff[a] = a*cells - o
		} else {
			v.ioff[a] = a - o*lattice.Q19
		}
		v.lo, v.hi = max(v.lo, o), min(v.hi, cells+o)
	}
	return v
}

// blockPulls is the one vector of fields storing their whole block in the
// given layout, the one place whole-block addressing is derived: rows
// whose strides (Rows.Strides) are those of the block itself or, for a
// view, of the field whose storage it shares.
func blockPulls(rows *field.Rows, layout field.Layout) pullVec {
	if !rows.Full() {
		panic("kernels: a kernel built for whole blocks sweeps whole-block fields only")
	}
	sy, sz := rows.Strides()
	s := lattice.D3Q19()
	var offs [lattice.Q19]int
	for a := range offs {
		offs[a] = s.Cx[a] + s.Cy[a]*sy + s.Cz[a]*sz
	}
	return newPullVec(&offs, layout, rows.Cells())
}

// pullTable is a kernel's addressing of the row layout it was built for:
// its distinct pull vectors and, per interior row z*Ny+y, the one the row
// uses — or, for rows storing the whole block, the one vector and no
// index. The zero table belongs to a kernel built for whole blocks.
type pullTable struct {
	rows  *field.Rows
	flags *field.FlagField // the fluid checked against rows; nil: none
	vecs  []pullVec
	of    []int32
}

// newPullTable builds the table of the D3Q19 pulls of rows for fields of
// the given layout; nil rows give the zero table. With flags, it panics
// unless the rows store every cell a fluid cell pulls from — the guarantee
// the sweeps' addressing rests on.
func newPullTable(rows *field.Rows, flags *field.FlagField, layout field.Layout) pullTable {
	if rows == nil {
		return pullTable{}
	}
	t := pullTable{rows: rows, flags: flags}
	if rows.Full() {
		t.vecs = []pullVec{blockPulls(rows, layout)}
		return t
	}
	nx, ny, nz, _ := rows.Extents()
	t.of = make([]int32, ny*nz)
	index := make(map[[lattice.Q19]int]int32)
	none := int32(-1)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			offs, ok := rowOffsets(rows, y, z)
			i, seen := index[offs]
			switch {
			case !ok:
				if none < 0 {
					none = int32(len(t.vecs))
					t.vecs = append(t.vecs, unsweepable)
				}
				i = none
			case !seen:
				i = int32(len(t.vecs))
				index[offs] = i
				t.vecs = append(t.vecs, newPullVec(&offs, layout, rows.Cells()))
			}
			t.of[z*ny+y] = i
			if flags != nil {
				checkFluidStored(rows, flags, nx, y, z)
			}
		}
	}
	return t
}

// rowOffsets returns the pull offsets of row (y, z), in cells; false when
// the row or a row it pulls from stores nothing.
func rowOffsets(rows *field.Rows, y, z int) (offs [lattice.Q19]int, ok bool) {
	s := lattice.D3Q19()
	for a := range offs {
		if lo, hi := rows.Span(y-s.Cy[a], z-s.Cz[a]); lo == hi {
			return offs, false
		}
		offs[a] = rows.CellIndex(0, y, z) - rows.CellIndex(0, y-s.Cy[a], z-s.Cz[a]) + s.Cx[a]
	}
	return offs, true
}

// checkFluidStored panics unless rows store the fluid cells of row (y, z)
// of flags and every cell they pull from.
func checkFluidStored(rows *field.Rows, flags *field.FlagField, nx, y, z int) {
	x0, x1 := nx, 0 // the hull of the row's fluid
	for x := 0; x < nx; x++ {
		if flags.Get(x, y, z) == field.Fluid {
			x0, x1 = min(x0, x), x+1
		}
	}
	s := lattice.D3Q19()
	for a := 0; x0 < x1 && a < s.Q; a++ {
		if lo, hi := rows.Span(y-s.Cy[a], z-s.Cz[a]); x0-s.Cx[a] < lo || x1-s.Cx[a] > hi {
			panic("kernels: fluid cells pull from outside the allocation rows")
		}
	}
}

// bind prepares p for a sweep of src with the given flags: the table's
// vectors when the kernel was built for src's rows, the vector of src's
// block for a kernel built for whole blocks. A table checked against a flag
// field sweeps with that one only; what it was not checked against, the
// per-row bounds checks of the sweep keep in memory.
func (t *pullTable) bind(p *rowPulls, src *field.PDFField, flags *field.FlagField) {
	if t.rows == nil {
		p.shared, p.vecs, p.of = blockPulls(src.Rows(), src.Layout), nil, nil
		return
	}
	if !src.Rows().Equal(t.rows) {
		panic("kernels: kernel built for other allocation rows")
	}
	if flags != nil && t.flags != nil && flags != t.flags {
		panic("kernels: kernel built for another flag field")
	}
	p.vecs, p.of, p.ny = t.vecs, t.of, src.Ny
	if t.of == nil {
		p.shared = t.vecs[0]
	}
}

// vec returns the index in vecs of the vector of interior row (y, z).
func (t *pullTable) vec(y, z int) int32 {
	if t.of == nil {
		return 0
	}
	_, ny, _, _ := t.rows.Extents()
	return t.of[z*ny+y]
}

// rowPulls resolves the pull vector of each row of one sweep.
type rowPulls struct {
	shared pullVec // every row's vector, when of is nil
	vecs   []pullVec
	of     []int32
	ny     int
}

// at returns the vector of interior row (y, z).
func (p *rowPulls) at(y, z int) *pullVec {
	if p.of == nil {
		return &p.shared
	}
	return &p.vecs[p.of[z*p.ny+y]]
}
