package field_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/output"
)

// Allocation rows must be invisible: a field storing one x-span per row
// behaves, on every cell it stores, exactly like a twin storing the whole
// block, reports (At) the fill value everywhere else, encodes to the twin's
// checkpoint bytes, and every operation that moves values — pack, unpack,
// region copies in all four stored/unstored combinations, CopyFrom,
// FillEquilibrium, Swap — agrees with the twin.

// randomRows draws a row table for an nx x ny x nz block with ghost width
// 1: empty rows, single cells, full rows and random spans, in runs of
// equal rows and with gaps of empty rows between them.
func randomRows(r *rand.Rand, nx, ny, nz int) *field.Rows {
	kind := r.Intn(4)
	return field.NewRows(nx, ny, nz, 1, func(y, z int) (int, int) {
		if r.Intn(3) == 0 {
			kind = r.Intn(4) // else the row repeats the previous kind
		}
		switch kind {
		case 0:
			return 0, 0
		case 1:
			x := r.Intn(nx+2) - 1
			return x, x + 1
		case 2:
			return -1, nx + 1
		}
		a, b := r.Intn(nx+2)-1, r.Intn(nx+2)-1
		return min(a, b), max(a, b) + 1
	})
}

// randomBlockBox draws a non-empty box inside the ghosted block.
func randomBlockBox(r *rand.Rand, n [3]int) (lo, hi [3]int) {
	for d := 0; d < 3; d++ {
		a, b := r.Intn(n[d]+2), r.Intn(n[d]+2)
		lo[d], hi[d] = min(a, b)-1, max(a, b)
	}
	return lo, hi
}

// sameValues requires two fields to read alike (At) on every cell.
func sameValues(t *testing.T, what string, got, want *field.PDFField) {
	t.Helper()
	forBlock(want, func(x, y, z int) {
		for a := 0; a < want.Stencil.Q; a++ {
			d := lattice.Direction(a)
			if g, w := got.At(x, y, z, d), want.At(x, y, z, d); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: At(%d,%d,%d) dir %d = %v, want %v", what, x, y, z, a, g, w)
			}
		}
	})
}

// pair is a field under test and its whole-block oracle.
type pair struct{ f, oracle *field.PDFField }

func FuzzRowLayout(f *testing.F) {
	f.Add(int64(1), uint8(0x55), uint8(0)) // 6x5x4, AoS D3Q19
	f.Add(int64(2), uint8(0x23), uint8(1)) // SoA D3Q19
	f.Add(int64(3), uint8(0x00), uint8(2)) // single-cell block, AoS D3Q27
	f.Add(int64(4), uint8(0xff), uint8(3)) // SoA D3Q27
	f.Add(int64(5), uint8(0x71), uint8(0)) // thin slab
	f.Add(int64(6), uint8(0x1a), uint8(1)) // a long single row
	f.Add(int64(7), uint8(0x9c), uint8(3)) // mixed
	f.Add(int64(8), uint8(0x44), uint8(2)) // cube
	f.Fuzz(func(t *testing.T, seed int64, shape, model uint8) {
		r := rand.New(rand.NewSource(seed))
		n := [3]int{1 + int(shape)%7, 1 + int(shape/7)%5, 1 + int(shape/35)%4}
		layout := field.Layout(model & 1)
		st := lattice.D3Q19()
		if model&2 != 0 {
			st = lattice.D3Q27()
		}
		rows := randomRows(r, n[0], n[1], n[2])
		other := field.AoS
		if layout == field.AoS {
			other = field.SoA
		}

		// Shape: spans, cell count, bounding box and a bijective index
		// that steps by one along each row.
		win, full := rowTwins(st, layout, rows, seed)
		stored, box := 0, field.Window{Lo: [3]int{99, 99, 99}, Hi: [3]int{-99, -99, -99}}
		seen := make(map[int]bool)
		forBlock(full, func(x, y, z int) {
			lo, hi := rows.Span(y, z)
			if in := x >= lo && x < hi; in != rows.Contains(x, y, z) {
				t.Fatalf("Contains(%d,%d,%d) = %v, span [%d,%d)", x, y, z, !in, lo, hi)
			} else if !in {
				return
			}
			stored++
			box.Lo = [3]int{min(box.Lo[0], x), min(box.Lo[1], y), min(box.Lo[2], z)}
			box.Hi = [3]int{max(box.Hi[0], x+1), max(box.Hi[1], y+1), max(box.Hi[2], z+1)}
			ci := win.CellIndex(x, y, z)
			if ci < 0 || ci >= win.AllocatedCells() || seen[ci] || ci-win.CellIndex(lo, y, z) != x-lo {
				t.Fatalf("CellIndex(%d,%d,%d) = %d: out of range, duplicate or not linear in its row", x, y, z, ci)
			}
			seen[ci] = true
		})
		if stored != win.AllocatedCells() || stored != rows.Cells() || len(win.Data()) != stored*st.Q {
			t.Fatalf("stores %d cells, %d values; the rows hold %d", win.AllocatedCells(), len(win.Data()), stored)
		}
		if stored == 0 {
			box = field.Window{}
		}
		if win.Window() != box || rows.Full() != (stored == field.FullWindow(n[0], n[1], n[2], 1).Cells()) {
			t.Fatalf("Window() = %v full=%v, stored cells span %v", win.Window(), rows.Full(), box)
		}
		checkTwin(t, "Set/Get", win, full)
		var gotFile, wantFile bytes.Buffer
		if err := output.SaveCheckpoint(&gotFile, win); err != nil {
			t.Fatal(err)
		}
		if err := output.SaveCheckpoint(&wantFile, full); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotFile.Bytes(), wantFile.Bytes()) {
			t.Fatal("the field and its whole-block twin encode differently")
		}

		// Pack and unpack over random boxes.
		dirs := allDirs(st)[1 : 1+r.Intn(st.Q-1)]
		for rep := 0; rep < 4; rep++ {
			win, full := rowTwins(st, layout, rows, seed+int64(rep))
			lo, hi := randomBlockBox(r, n)
			vol := len(dirs) * (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])
			got, want := make([]float64, vol), make([]float64, vol)
			if a, b := win.PackRegion(got, lo, hi, dirs), full.PackRegion(want, lo, hi, dirs); a != vol || b != vol {
				t.Fatalf("PackRegion wrote %d and %d of %d values", a, b, vol)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("PackRegion box %v-%v: value %d = %v, twin %v", lo, hi, i, got[i], want[i])
				}
			}
			for i := range got {
				got[i] = r.Float64()
			}
			if a, b := win.UnpackRegion(got, lo, hi, dirs), full.UnpackRegion(got, lo, hi, dirs); a != vol || b != vol {
				t.Fatalf("UnpackRegion consumed %d and %d of %d values", a, b, vol)
			}
			checkTwin(t, fmt.Sprintf("UnpackRegion box %v-%v", lo, hi), win, full)
		}

		// Region copies: row-compact and whole-block source and destination,
		// so that every combination of a stored and an unstored source cell
		// with a stored and an unstored destination cell occurs.
		for rep := 0; rep < 4; rep++ {
			sides := func(rows *field.Rows, seed int64) []pair {
				c, co := rowTwins(st, layout, rows, seed)
				w, wo := rowTwins(st, layout, field.FullRows(n[0], n[1], n[2], 1), seed)
				return []pair{{c, co}, {w, wo}}
			}
			lo, hi := randomBlockBox(r, n)
			var dstLo [3]int
			for d := 0; d < 3; d++ {
				dstLo[d] = -1 + r.Intn(n[d]+2-(hi[d]-lo[d])+1)
			}
			for si, src := range sides(randomRows(r, n[0], n[1], n[2]), 100+int64(rep)) {
				for di, dst := range sides(rows, 200+int64(rep)) {
					field.CopyRegion(dst.f, dstLo, src.f, lo, hi, dirs)
					field.CopyRegion(dst.oracle, dstLo, src.oracle, lo, hi, dirs)
					checkTwin(t, fmt.Sprintf("CopyRegion %d->%d box %v-%v to %v", si, di, lo, hi, dstLo), dst.f, dst.oracle)
				}
			}
		}

		// CopyFrom another layout and another row table, and from a whole
		// block; ConvertLayout; FillEquilibrium; Swap.
		for _, src := range []pair{
			func() pair { s, o := rowTwins(st, other, randomRows(r, n[0], n[1], n[2]), 7); return pair{s, o} }(),
			func() pair { s, o := rowTwins(st, layout, randomRows(r, n[0], n[1], n[2]), 8); return pair{s, o} }(),
			{full.ConvertLayout(other), full},
		} {
			dst := win.CopyShape()
			dst.FillEquilibrium(1.03, 0.02, -0.01, 0.03)
			dst.CopyFrom(src.f)
			oracle := field.NewPDFField(st, n[0], n[1], n[2], 1, layout)
			oracle.FillEquilibrium(1.03, 0.02, -0.01, 0.03)
			oracle.CopyFrom(src.f)
			checkTwin(t, "CopyFrom", dst, oracle)
		}
		conv := win.ConvertLayout(other)
		if conv.Rows() != win.Rows() {
			t.Error("ConvertLayout did not keep the rows")
		}
		checkTwin(t, "ConvertLayout", conv, full.ConvertLayout(other))
		eq, eqFull := win.CopyShape(), full.CopyShape()
		eq.FillEquilibrium(0.97, -0.01, 0.02, 0)
		eqFull.FillEquilibrium(0.97, -0.01, 0.02, 0)
		sameValues(t, "FillEquilibrium", eq, eqFull)
		if !eq.SameShape(win) {
			t.Fatal("CopyShape changed the shape")
		}
		field.Swap(win, eq)
		sameValues(t, "Swap", win, eqFull)
		checkTwin(t, "Swap", eq, full)
	})
}

// TestRowsOfAWindowAreTheBoxFormula: the rows of every test window, a box,
// index exactly as the row-major box formula.
func TestRowsOfAWindowAreTheBoxFormula(t *testing.T) {
	for name, w := range testWindows() {
		rows := boxRows(winCells[0], winCells[1], winCells[2], w)
		if rows.Cells() != w.Cells() {
			t.Errorf("%s: stores %d cells, window has %d", name, rows.Cells(), w.Cells())
		}
		for z := w.Lo[2]; z < w.Hi[2]; z++ {
			for y := w.Lo[1]; y < w.Hi[1]; y++ {
				for x := w.Lo[0]; x < w.Hi[0]; x++ {
					if got, want := rows.CellIndex(x, y, z), boxIndex(w, x, y, z); got != want {
						t.Fatalf("%s: CellIndex(%d,%d,%d) = %d, box formula %d", name, x, y, z, got, want)
					}
				}
			}
		}
	}
}
