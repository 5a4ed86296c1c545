package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// grown is the non-empty box w of an nx x ny x nz block grown by one cell
// a side, clipped to the ghost layer of width 1.
func grown(w field.Window, nx, ny, nz int) field.Window {
	for d := 0; d < 3; d++ {
		w.Lo[d], w.Hi[d] = w.Lo[d]-1, w.Hi[d]+1
	}
	return w.Intersect(field.FullWindow(nx, ny, nz, 1))
}

// boxRows is the layout of an nx x ny x nz block with ghost width 1 storing
// the box w.
func boxRows(nx, ny, nz int, w field.Window) *field.Rows {
	return field.NewRows(nx, ny, nz, 1, func(y, z int) (int, int) {
		if y < w.Lo[1] || y >= w.Hi[1] || z < w.Lo[2] || z >= w.Hi[2] {
			return 0, 0
		}
		return w.Lo[0], w.Hi[0]
	})
}

// fluidRows returns allocation rows for the fluid of flags: per row the
// hull of the cells some velocity of st (rest included) links to an
// interior fluid cell, each non-empty span widened by up to widen random
// cells a side and clipped to the ghosted block. With widen 0 it is the
// rule the simulation stores blocks with.
func fluidRows(r *rand.Rand, flags *field.FlagField, st *lattice.Stencil, widen int) *field.Rows {
	nx, g := flags.Nx, flags.Ghost
	return field.NewRows(nx, flags.Ny, flags.Nz, g, func(y, z int) (int, int) {
		lo, hi := nx+g, -g
		for a := 0; a < st.Q; a++ {
			fy, fz := y+st.Cy[a], z+st.Cz[a]
			if fy < 0 || fy >= flags.Ny || fz < 0 || fz >= flags.Nz {
				continue
			}
			for x := 0; x < nx; x++ {
				if flags.Get(x, fy, fz) == field.Fluid {
					lo, hi = min(lo, x-st.Cx[a]), max(hi, x-st.Cx[a]+1)
				}
			}
		}
		if lo >= hi {
			return 0, 0
		}
		if widen > 0 {
			lo, hi = lo-r.Intn(widen+1), hi+r.Intn(widen+1)
		}
		return max(lo, -g), min(hi, nx+g)
	})
}

// randomPDFs returns a whole-block field of random near-equilibrium PDFs,
// ghost layer included.
func randomPDFs(r *rand.Rand, st *lattice.Stencil, layout field.Layout, nx, ny, nz int) *field.PDFField {
	f := field.NewPDFField(st, nx, ny, nz, 1, layout)
	feq := make([]float64, st.Q)
	for z := -1; z <= nz; z++ {
		for y := -1; y <= ny; y++ {
			for x := -1; x <= nx; x++ {
				st.Equilibrium(feq, 0.9+0.2*r.Float64(), 0.08*(r.Float64()-0.5), 0.08*(r.Float64()-0.5), 0.08*(r.Float64()-0.5))
				for a, v := range feq {
					f.Set(x, y, z, lattice.Direction(a), v*(1+0.1*(r.Float64()-0.5)))
				}
			}
		}
	}
	return f
}

// rowKernel is one kernel family of the row-storage tests: build makes it
// for fields stored in rows, or for whole blocks when rows is nil.
type rowKernel struct {
	name  string
	st    *lattice.Stencil
	build func(flags *field.FlagField, rows *field.Rows) Kernel
}

func rowKernels() []rowKernel {
	trt := collide.NewTRT(0.8, collide.MagicParameter)
	fromSpec := func(c Choice) func(*field.FlagField, *field.Rows) Kernel {
		return func(flags *field.FlagField, rows *field.Rows) Kernel {
			k, err := New(Spec{Choice: c, Tau: 0.8, Flags: flags, Rows: rows})
			if err != nil {
				panic(err)
			}
			return k
		}
	}
	return []rowKernel{
		{"split trt", lattice.D3Q19(), fromSpec(ChoiceSplitTRT)},
		{"split srt", lattice.D3Q19(), fromSpec(ChoiceSplitSRT)},
		{"d3q19 trt", lattice.D3Q19(), fromSpec(ChoiceD3Q19TRT)},
		{"d3q19 srt", lattice.D3Q19(), fromSpec(ChoiceD3Q19SRT)},
		{"interval", lattice.D3Q19(), fromSpec(ChoiceSparse)},
		{"cell list", lattice.D3Q19(), func(fl *field.FlagField, rows *field.Rows) Kernel { return NewSparseCellList(trt, fl, rows) }},
		{"conditional", lattice.D3Q19(), func(_ *field.FlagField, rows *field.Rows) Kernel { return NewSparseConditional(trt, rows) }},
		{"generic d3q19", lattice.D3Q19(), fromSpec(ChoiceGenericTRT)},
		{"generic d3q27", lattice.D3Q27(), func(*field.FlagField, *field.Rows) Kernel { return NewGeneric(lattice.D3Q27(), trt) }},
	}
}

// sweepRowStorage sweeps k, built for rows, over a field stored in rows and
// the whole-block kernel over a whole-block field of the same content, and
// requires the same bits on every fluid cell and untouched stored non-fluid
// cells.
func sweepRowStorage(t *testing.T, label string, rk rowKernel, flags *field.FlagField, rows *field.Rows, full *field.PDFField) {
	t.Helper()
	k := rk.build(flags, rows)
	full = full.ConvertLayout(k.Layout())
	compact := field.NewPDFFieldRows(full.Stencil, k.Layout(), rows)
	compact.CopyFrom(full)
	want, got := full.CopyShape(), compact.CopyShape()
	want.FillEquilibrium(7, 0, 0, 0)
	got.FillEquilibrium(7, 0, 0, 0)
	rk.build(flags, nil).Sweep(full, want, flags)
	k.Sweep(compact, got, flags)
	for z := -1; z <= flags.Nz; z++ {
		for y := -1; y <= flags.Ny; y++ {
			for x := -1; x <= flags.Nx; x++ {
				if !rows.Contains(x, y, z) {
					continue
				}
				for a := 0; a < full.Stencil.Q; a++ {
					d := lattice.Direction(a)
					w := got.FillValue(d)
					if interior := x >= 0 && x < flags.Nx && y >= 0 && y < flags.Ny && z >= 0 && z < flags.Nz; interior && flags.Get(x, y, z) == field.Fluid {
						w = want.Get(x, y, z, d)
					}
					if g := got.Get(x, y, z, d); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: %s cell (%d,%d,%d) dir %d = %x, want %x", label, rk.name, x, y, z, a, math.Float64bits(g), math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestKernelsOnRowStorage: every kernel family swept over fields stored in
// allocation rows around random fluid masks — the rows of the storage rule
// and randomly widened ones — computes on every fluid cell the bits it
// computes over whole-block fields and leaves every other stored cell
// alone.
func TestKernelsOnRowStorage(t *testing.T) {
	const nx, ny, nz = 9, 7, 6
	for seed := int64(0); seed < 4; seed++ {
		for _, fill := range []float64{0.05, 0.3, 0.7, 0.97} {
			r := rand.New(rand.NewSource(seed))
			flags := sparseFlags(r, nx, ny, nz, fill)
			for _, rk := range rowKernels() {
				full := randomPDFs(r, rk.st, field.AoS, nx, ny, nz)
				for widen := 0; widen < 3; widen += 2 {
					rows := fluidRows(r, flags, rk.st, widen)
					if rows.Full() {
						continue
					}
					sweepRowStorage(t, fmt.Sprintf("seed %d fill %.2f widen %d", seed, fill, widen), rk, flags, rows, full)
				}
			}
		}
	}
}

// TestRowCheckIsLive: rows guard the pulls of their kernels. A kernel whose
// fluid would pull from a cell its rows do not store refuses to be built;
// a row whose pulls leave the stored rows panics in the sweep rather than
// read another row's memory, or none; and a kernel meets only fields of
// its own rows.
func TestRowCheckIsLive(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected a panic", name)
			}
		}()
		fn()
	}
	const nx, ny, nz = 6, 4, 4
	flags := field.NewFlagField(nx, ny, nz, 1)
	flags.Fill(field.NoSlip)
	for x := 1; x < 5; x++ {
		flags.Set(x, 1, 1, field.Fluid)
	}
	good := fluidRows(nil, flags, lattice.D3Q19(), 0)
	// The line below the fluid, which direction N pulls from, stores nothing.
	short := field.NewRows(nx, ny, nz, 1, func(y, z int) (int, int) {
		if y == 0 && z == 1 {
			return 0, 0
		}
		return good.Span(y, z)
	})
	for _, rk := range rowKernels()[:6] {
		mustPanic(rk.name+" built for rows missing a pulled line", func() { rk.build(flags, short) })
		rk.build(flags, good) // the rule's rows hold every pull
	}

	trt := collide.NewTRT(0.8, collide.MagicParameter)
	soa := field.NewPDFFieldRows(lattice.D3Q19(), field.SoA, short)
	tab := newPullTable(short, nil, field.SoA)
	rows := newDirRows(soa, soa.CopyShape())
	var pulls rowPulls
	tab.bind(&pulls, soa, nil)
	v := pulls.at(1, 1)
	mustPanic("trt row pulling from an empty line", func() { trtRow(&rows, v, soa.CellIndex(1, 1, 1), 4, -1, -1) })
	mustPanic("srt row pulling from an empty line", func() { srtRow(&rows, v, soa.CellIndex(1, 1, 1), 4, 1, 0) })
	aos := field.NewPDFFieldRows(lattice.D3Q19(), field.AoS, short)
	mustPanic("AoS cell pulling from an empty line", func() { NewSparseConditional(trt, short).Sweep(aos, aos.CopyShape(), flags) })

	compact := field.NewPDFFieldRows(lattice.D3Q19(), field.SoA, good)
	mustPanic("whole-block kernel over row storage", func() { NewSplitTRT(trt).Sweep(compact, compact.CopyShape(), flags) })
	other := field.NewPDFFieldRows(lattice.D3Q19(), field.SoA, fluidRows(rand.New(rand.NewSource(1)), flags, lattice.D3Q19(), 2))
	mustPanic("kernel over fields of other rows", func() { NewSparseInterval(trt, flags, good).Sweep(other, other.CopyShape(), flags) })
	mustPanic("dense sweep over row storage", func() { NewGeneric(lattice.D3Q19(), trt).Sweep(compact, compact.CopyShape(), nil) })
}
