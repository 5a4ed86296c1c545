package field_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/output"
)

// The allocation window must be invisible: a field storing only a window
// of its block behaves, on every cell of the window, exactly like a twin
// storing the whole block, and reports (At) the fill value everywhere else.

var winCells = [3]int{6, 5, 4}

// testWindows are the window shapes of the differential tests: the whole
// block, a single cell, a slab hugging the +x face, a window that holds
// nothing but a ghost corner, no cell at all, and seeded random boxes.
func testWindows() map[string]field.Window {
	nx, ny, nz := winCells[0], winCells[1], winCells[2]
	full := field.FullWindow(nx, ny, nz, 1)
	ws := map[string]field.Window{
		"full":         full,
		"single-cell":  {Lo: [3]int{2, 3, 1}, Hi: [3]int{3, 4, 2}},
		"face-slab":    {Lo: [3]int{nx - 2, -1, -1}, Hi: [3]int{nx + 1, ny + 1, nz + 1}},
		"ghost-corner": {Lo: [3]int{-1, -1, -1}, Hi: [3]int{0, 0, 0}},
		"empty":        {},
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 6; i++ {
		var w field.Window
		for d := 0; d < 3; d++ {
			span := full.Hi[d] - full.Lo[d]
			a, b := r.Intn(span), r.Intn(span)
			w.Lo[d], w.Hi[d] = full.Lo[d]+min(a, b), full.Lo[d]+max(a, b)+1
		}
		ws[fmt.Sprintf("random%d", i)] = w
	}
	return ws
}

var winModels = []struct {
	name    string
	stencil *lattice.Stencil
}{{"d3q19", lattice.D3Q19()}, {"d3q27", lattice.D3Q27()}}

// forEachWindowCase runs fn for every window × layout × stencil.
func forEachWindowCase(t *testing.T, fn func(t *testing.T, st *lattice.Stencil, layout field.Layout, w field.Window)) {
	for name, w := range testWindows() {
		for _, layout := range []field.Layout{field.AoS, field.SoA} {
			for _, m := range winModels {
				t.Run(fmt.Sprintf("%s/%v/%s", name, layout, m.name), func(t *testing.T) {
					fn(t, m.stencil, layout, w)
				})
			}
		}
	}
}

// boxRows is the layout of an nx x ny x nz block with ghost width 1 storing
// the box w.
func boxRows(nx, ny, nz int, w field.Window) *field.Rows {
	return field.NewRows(nx, ny, nz, 1, func(y, z int) (int, int) {
		if w.Empty() || y < w.Lo[1] || y >= w.Hi[1] || z < w.Lo[2] || z >= w.Hi[2] {
			return 0, 0
		}
		return w.Lo[0], w.Hi[0]
	})
}

// twins returns a field allocated for the window w and a whole-block twin
// with the same logical content: both at the same equilibrium, then the
// same random values on the cells of w.
func twins(st *lattice.Stencil, layout field.Layout, w field.Window, seed int64) (win, full *field.PDFField) {
	return rowTwins(st, layout, boxRows(winCells[0], winCells[1], winCells[2], w), seed)
}

// rowTwins is twins for any allocation rows.
func rowTwins(st *lattice.Stencil, layout field.Layout, rows *field.Rows, seed int64) (win, full *field.PDFField) {
	nx, ny, nz, ghost := rows.Extents()
	win = field.NewPDFFieldRows(st, layout, rows)
	full = field.NewPDFField(st, nx, ny, nz, ghost, layout)
	win.FillEquilibrium(1.03, 0.02, -0.01, 0.03)
	full.FillEquilibrium(1.03, 0.02, -0.01, 0.03)
	r := rand.New(rand.NewSource(seed))
	forBlock(full, func(x, y, z int) {
		for a := 0; a < st.Q; a++ {
			v := r.Float64()
			if rows.Contains(x, y, z) {
				win.Set(x, y, z, lattice.Direction(a), v)
				full.Set(x, y, z, lattice.Direction(a), v)
			}
		}
	})
	return win, full
}

// boxIndex is the row-major (x fastest) index of cell (x,y,z) within the
// box w.
func boxIndex(w field.Window, x, y, z int) int {
	return ((z-w.Lo[2])*(w.Hi[1]-w.Lo[1])+(y-w.Lo[1]))*(w.Hi[0]-w.Lo[0]) + x - w.Lo[0]
}

// forBlock visits every cell of the ghosted block in (z, y, x) order.
func forBlock(f *field.PDFField, fn func(x, y, z int)) {
	for z := -f.Ghost; z < f.Nz+f.Ghost; z++ {
		for y := -f.Ghost; y < f.Ny+f.Ghost; y++ {
			for x := -f.Ghost; x < f.Nx+f.Ghost; x++ {
				fn(x, y, z)
			}
		}
	}
}

// checkTwin requires win to equal its whole-block twin on every cell it
// stores and to report its fill value on every other cell of the block.
func checkTwin(t *testing.T, what string, win, full *field.PDFField) {
	t.Helper()
	w := win.Rows()
	forBlock(full, func(x, y, z int) {
		for a := 0; a < win.Stencil.Q; a++ {
			d := lattice.Direction(a)
			want := full.Get(x, y, z, d)
			if !w.Contains(x, y, z) {
				want = win.FillValue(d)
			} else if got := win.Get(x, y, z, d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Get(%d,%d,%d) dir %d = %v, want %v", what, x, y, z, a, got, want)
			}
			if got := win.At(x, y, z, d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: At(%d,%d,%d) dir %d = %v, want %v (stored: %v)", what, x, y, z, a, got, want, w.Contains(x, y, z))
			}
		}
	})
}

func allDirs(st *lattice.Stencil) []lattice.Direction {
	dirs := make([]lattice.Direction, st.Q)
	for a := range dirs {
		dirs[a] = lattice.Direction(a)
	}
	return dirs
}

// randomBox draws a non-empty box inside the ghosted block.
func randomBox(r *rand.Rand) (lo, hi [3]int) {
	for d := 0; d < 3; d++ {
		span := winCells[d] + 2
		a, b := r.Intn(span), r.Intn(span)
		lo[d], hi[d] = min(a, b)-1, max(a, b)
	}
	return lo, hi
}

func TestWindowShapeAndAccess(t *testing.T) {
	forEachWindowCase(t, func(t *testing.T, st *lattice.Stencil, layout field.Layout, w field.Window) {
		win, full := twins(st, layout, w, 1)
		if win.AllocatedCells() != w.Cells() || len(win.Data()) != w.Cells()*st.Q {
			t.Fatalf("stores %d cells / %d values, window has %d cells", win.AllocatedCells(), len(win.Data()), w.Cells())
		}
		if got := win.Window(); got != w && !(w.Empty() && got.Empty()) {
			t.Fatalf("Window() = %v, want %v", got, w)
		}
		if full := field.FullWindow(winCells[0], winCells[1], winCells[2], 1); win.Rows().Full() != (w == full) {
			t.Errorf("window %v: Full() = %v", w, win.Rows().Full())
		}
		checkTwin(t, "after Set", win, full)
		if win.TotalMass() != full.TotalMass() {
			t.Errorf("TotalMass %v, twin %v", win.TotalMass(), full.TotalMass())
		}
		// Index maps the window's cells bijectively onto the storage.
		seen := make(map[int]bool)
		forBlock(full, func(x, y, z int) {
			if !win.Rows().Contains(x, y, z) {
				return
			}
			if ci, wi := win.CellIndex(x, y, z), boxIndex(w, x, y, z); ci != wi {
				t.Fatalf("CellIndex(%d,%d,%d) = %d, box formula %d", x, y, z, ci, wi)
			}
			for a := 0; a < st.Q; a++ {
				i := win.Index(x, y, z, lattice.Direction(a))
				if i < 0 || i >= len(win.Data()) || seen[i] {
					t.Fatalf("Index(%d,%d,%d,%d) = %d out of range or duplicate", x, y, z, a, i)
				}
				seen[i] = true
			}
		})
		// A new equilibrium replaces values and fill alike.
		win.FillEquilibrium(0.97, -0.01, 0.02, 0)
		full.FillEquilibrium(0.97, -0.01, 0.02, 0)
		checkTwin(t, "after FillEquilibrium", win, full)
		forBlock(full, func(x, y, z int) {
			for a := 0; a < st.Q; a++ {
				if d := lattice.Direction(a); win.At(x, y, z, d) != full.Get(x, y, z, d) {
					t.Fatalf("FillEquilibrium: (%d,%d,%d) dir %d differs from the whole-block field", x, y, z, a)
				}
			}
		})
	})
}

func TestWindowPackUnpackCopy(t *testing.T) {
	forEachWindowCase(t, func(t *testing.T, st *lattice.Stencil, layout field.Layout, w field.Window) {
		r := rand.New(rand.NewSource(5))
		dirs := allDirs(st)[1:6]
		for rep := 0; rep < 5; rep++ {
			win, full := twins(st, layout, w, int64(rep))
			lo, hi := randomBox(r)
			n := len(dirs) * (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])
			got, want := make([]float64, n), make([]float64, n)
			if a, b := win.PackRegion(got, lo, hi, dirs), full.PackRegion(want, lo, hi, dirs); a != n || b != n {
				t.Fatalf("PackRegion wrote %d and %d of %d values", a, b, n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("PackRegion box %v-%v: value %d = %v, twin %v", lo, hi, i, got[i], want[i])
				}
			}
			for i := range got {
				got[i] = r.Float64()
			}
			if a, b := win.UnpackRegion(got, lo, hi, dirs), full.UnpackRegion(got, lo, hi, dirs); a != n || b != n {
				t.Fatalf("UnpackRegion consumed %d and %d of %d values", a, b, n)
			}
			checkTwin(t, fmt.Sprintf("UnpackRegion box %v-%v", lo, hi), win, full)

			// Copy between two windowed fields against their twins; the
			// source window is another of the test windows.
			for name, sw := range testWindows() {
				src, srcFull := twins(st, layout, sw, int64(100+rep))
				var dstLo [3]int
				for d := 0; d < 3; d++ {
					dstLo[d] = -1 + r.Intn(winCells[d]+2-(hi[d]-lo[d])+1)
				}
				field.CopyRegion(win, dstLo, src, lo, hi, dirs)
				field.CopyRegion(full, dstLo, srcFull, lo, hi, dirs)
				checkTwin(t, fmt.Sprintf("CopyRegion from %s box %v-%v to %v", name, lo, hi, dstLo), win, full)
			}
		}
	})
}

func TestWindowConvertAndCopyFrom(t *testing.T) {
	forEachWindowCase(t, func(t *testing.T, st *lattice.Stencil, layout field.Layout, w field.Window) {
		win, full := twins(st, layout, w, 3)
		other := field.SoA
		if layout == field.SoA {
			other = field.AoS
		}
		conv := win.ConvertLayout(other)
		if conv.Layout != other || conv.Window() != win.Window() {
			t.Fatalf("ConvertLayout gave layout %v window %v", conv.Layout, conv.Window())
		}
		checkTwin(t, "ConvertLayout", conv, full.ConvertLayout(other))
		if back := conv.ConvertLayout(layout); !slices.Equal(back.Data(), win.Data()) {
			t.Error("layout round trip changed the storage")
		}
		shape := win.CopyShape()
		if !shape.SameShape(win) {
			t.Error("CopyShape changed the shape")
		}
		// CopyFrom crops a whole-block field of either layout to the window.
		for _, src := range []*field.PDFField{full, full.ConvertLayout(other)} {
			dst := win.CopyShape()
			dst.FillEquilibrium(1.03, 0.02, -0.01, 0.03)
			dst.CopyFrom(src)
			checkTwin(t, "CopyFrom", dst, full)
		}
		// ... and a field of any other window to the cells both store, the
		// source's fill elsewhere.
		for name, sw := range testWindows() {
			src, srcFull := twins(st, other, sw, 4)
			dst := win.CopyShape()
			dst.FillEquilibrium(1.03, 0.02, -0.01, 0.03)
			dst.CopyFrom(src)
			checkTwin(t, "CopyFrom "+name, dst, srcFull.ConvertLayout(layout))
		}
		field.Swap(win, shape)
		checkTwin(t, "Swap", shape, full)
	})
}

// TestWindowCheckpointRoundTrip: the codecs stay dense-canonical. A
// windowed field encodes to the very bytes of its whole-block twin — alone
// (WBC2) and inside a rank file (WBK2) — and restoring the file into a
// fresh windowed field reproduces it.
func TestWindowCheckpointRoundTrip(t *testing.T) {
	forEachWindowCase(t, func(t *testing.T, st *lattice.Stencil, layout field.Layout, w field.Window) {
		win, full := twins(st, layout, w, 9)
		var gotFile, wantFile bytes.Buffer
		if err := output.SaveCheckpoint(&gotFile, win); err != nil {
			t.Fatal(err)
		}
		if err := output.SaveCheckpoint(&wantFile, full); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotFile.Bytes(), wantFile.Bytes()) {
			t.Fatal("windowed field and whole-block twin encode differently")
		}
		if want := output.CheckpointSize(st.Q, winCells[0], winCells[1], winCells[2], 1); int64(gotFile.Len()) != want {
			t.Errorf("checkpoint is %d bytes, CheckpointSize says %d", gotFile.Len(), want)
		}
		fresh := win.CopyShape()
		fresh.FillEquilibrium(1.03, 0.02, -0.01, 0.03)
		loaded, err := output.LoadCheckpoint(bytes.NewReader(gotFile.Bytes()), st)
		if err != nil {
			t.Fatal(err)
		}
		fresh.CopyFrom(loaded)
		checkTwin(t, "LoadCheckpoint", fresh, full)

		gotRank := output.AppendLeafFile(nil, []output.LeafSnapshot{{Coord: [3]int{1, 2, 3}, Src: win, Dst: win}})
		wantRank := output.AppendLeafFile(nil, []output.LeafSnapshot{{Coord: [3]int{1, 2, 3}, Src: full, Dst: full}})
		if !bytes.Equal(gotRank, wantRank) {
			t.Fatal("rank files of the windowed field and its twin differ")
		}
		snaps, _, err := output.ReadLeafFile(bytes.NewReader(gotRank), st)
		if err != nil {
			t.Fatal(err)
		}
		fresh = win.CopyShape()
		fresh.FillEquilibrium(1.03, 0.02, -0.01, 0.03)
		fresh.CopyFrom(snaps[0].Dst)
		checkTwin(t, "rank file round trip", fresh, full)
	})
}

// BenchmarkFillEquilibrium times the initialization of one 32^3 block's
// field, whole and cropped to an 8^3 corner window.
func BenchmarkFillEquilibrium(b *testing.B) {
	for _, c := range []struct {
		name string
		w    field.Window
	}{
		{"full", field.FullWindow(32, 32, 32, 1)},
		{"window", field.Window{Lo: [3]int{-1, -1, -1}, Hi: [3]int{9, 9, 9}}},
	} {
		for _, layout := range []field.Layout{field.SoA, field.AoS} {
			b.Run(fmt.Sprintf("%s/%v", c.name, layout), func(b *testing.B) {
				f := field.NewPDFFieldRows(lattice.D3Q19(), layout, boxRows(32, 32, 32, c.w))
				b.SetBytes(int64(len(f.Data()) * 8))
				for i := 0; i < b.N; i++ {
					f.FillEquilibrium(1, 0.01, 0, 0)
				}
			})
		}
	}
}
