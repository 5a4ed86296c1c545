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

// fuzzFlags decodes an arbitrary byte string into a flag field: bit i of
// the pattern decides whether interior cell i (in x-fastest order) is
// fluid. Bytes beyond the pattern leave cells solid, so short inputs are
// mostly-solid geometries and empty inputs have zero fluid cells.
func fuzzFlags(nx, ny, nz int, pattern []byte) *field.FlagField {
	flags := field.NewFlagField(nx, ny, nz, 1)
	flags.Fill(field.NoSlip)
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if i/8 < len(pattern) && pattern[i/8]&(1<<(i%8)) != 0 {
					flags.Set(x, y, z, field.Fluid)
				}
				i++
			}
		}
	}
	return flags
}

// FuzzSparseIntervals drives the interval-list builder with arbitrary
// fluid/solid patterns — degenerate ones included: zero fluid cells,
// isolated single-cell intervals, full-width lines — and checks its
// invariants: the builder must not panic (its own bounds check guards
// every stored run against escaping its lattice line), it must account
// exactly the scanned fluid-cell and run counts, and its sweep must be
// bit-identical to the flag-aware dense split kernel, leaving every
// non-fluid cell untouched — over whole-block fields and over fields
// stored in allocation rows around the fluid.
func FuzzSparseIntervals(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), []byte{})                       // zero fluid cells
	f.Add(uint8(8), uint8(2), uint8(2), []byte{0xff, 0xff, 0xff, 0xff}) // full-width intervals
	f.Add(uint8(5), uint8(3), uint8(2), []byte{0xaa, 0xaa, 0xaa, 0xaa}) // alternating single cells
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0x01})                   // single-cell block
	f.Add(uint8(6), uint8(2), uint8(1), []byte{0x9e, 0x71})             // interior gaps
	f.Add(uint8(7), uint8(1), uint8(3), []byte{0x00, 0xff, 0x10})       // mixed lines

	f.Fuzz(func(t *testing.T, bx, by, bz uint8, pattern []byte) {
		nx := 1 + int(bx)%8
		ny := 1 + int(by)%8
		nz := 1 + int(bz)%8
		flags := fuzzFlags(nx, ny, nz, pattern)

		op := collide.NewTRT(0.8, 3.0/16.0)
		k := NewSparseInterval(op, flags, nil) // must not panic on any geometry

		// Reference scan: fluid cells and maximal runs per lattice line.
		fluid, runs := 0, 0
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				in := false
				for x := 0; x < nx; x++ {
					if flags.Get(x, y, z) == field.Fluid {
						fluid++
						if !in {
							runs++
							in = true
						}
					} else {
						in = false
					}
				}
			}
		}
		if k.FluidCells() != fluid {
			t.Fatalf("FluidCells() = %d, scan counts %d", k.FluidCells(), fluid)
		}
		if k.Intervals() != runs {
			t.Fatalf("Intervals() = %d, scan counts %d maximal runs", k.Intervals(), runs)
		}

		// Sweep equivalence: the interval kernel and the flag-aware dense
		// split kernel must produce bit-identical fields. Both dst fields
		// start from the same sentinel state, so any write outside the
		// fluid cells diverges too.
		src := field.NewPDFField(lattice.D3Q19(), nx, ny, nz, 1, field.SoA)
		src.FillEquilibrium(1, 0.02, -0.01, 0.005)
		i := 0
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					b := byte(0x5b)
					if i < len(pattern) {
						b = pattern[i]
					}
					src.Set(x, y, z, lattice.E, 1.0/18.0+float64(b)/4096.0)
					i++
				}
			}
		}
		got := field.NewPDFField(lattice.D3Q19(), nx, ny, nz, 1, field.SoA)
		want := field.NewPDFField(lattice.D3Q19(), nx, ny, nz, 1, field.SoA)
		got.FillEquilibrium(7, 0, 0, 0)
		want.FillEquilibrium(7, 0, 0, 0)

		k.Sweep(src, got, flags)
		NewSplitTRT(op).Sweep(src, want, flags)

		gd, wd := got.Data(), want.Data()
		for j := range wd {
			if math.Float64bits(gd[j]) != math.Float64bits(wd[j]) {
				t.Fatal(diffReport(nx, ny, nz, j, gd[j], wd[j]))
			}
		}

		// Row storage: the same sweep over fields that store, per row, the
		// cells around the fluid — the storage rule's rows, or wider ones —
		// gives the same bits on every stored cell.
		rows := fluidRows(rand.New(rand.NewSource(int64(len(pattern)))), flags, lattice.D3Q19(), int(bx)%3)
		compact := field.NewPDFFieldRows(lattice.D3Q19(), field.SoA, rows)
		compact.CopyFrom(src)
		gotRows := compact.CopyShape()
		gotRows.FillEquilibrium(7, 0, 0, 0)
		NewSparseInterval(op, flags, rows).Sweep(compact, gotRows, flags)
		for z := -1; z <= nz; z++ {
			for y := -1; y <= ny; y++ {
				for x := -1; x <= nx; x++ {
					for a := 0; rows.Contains(x, y, z) && a < lattice.Q19; a++ {
						d := lattice.Direction(a)
						if g, w := gotRows.Get(x, y, z, d), want.Get(x, y, z, d); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%dx%dx%d row storage: cell (%d,%d,%d) dir %d = %x, split kernel computes %x",
								nx, ny, nz, x, y, z, a, math.Float64bits(g), math.Float64bits(w))
						}
					}
				}
			}
		}
	})
}

func diffReport(nx, ny, nz, idx int, got, want float64) string {
	return fmt.Sprintf("%dx%dx%d: data[%d] = %x, split kernel computes %x",
		nx, ny, nz, idx, math.Float64bits(got), math.Float64bits(want))
}
