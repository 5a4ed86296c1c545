package output

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

func testLeafSnapshot(t *testing.T, s *lattice.Stencil, tree uint32, path uint64, level uint8, coord [3]int, seed float64) LeafSnapshot {
	t.Helper()
	mk := func(off float64) *field.PDFField {
		f := field.NewPDFField(s, 4, 2, 2, 1, field.SoA)
		d := f.Data()
		for i := range d {
			d[i] = seed + off + float64(i)*0.125
		}
		return f
	}
	return LeafSnapshot{Tree: tree, Path: path, Level: level, Coord: coord, Src: mk(0), Dst: mk(1000)}
}

func TestLeafFileRoundTrip(t *testing.T) {
	s := lattice.D3Q19()
	leaves := []LeafSnapshot{
		testLeafSnapshot(t, s, 0, 0, 0, [3]int{0, 0, 0}, 1),
		testLeafSnapshot(t, s, 3, 0b1_011, 1, [3]int{1, 0, 2}, 2),
		testLeafSnapshot(t, s, 7, 0b1_101_110, 2, [3]int{3, 1, 1}, 3),
		testLeafSnapshot(t, s, 9, 0, 0, [3]int{-1, 3, 0}, 4), // a uniform block
	}
	var buf bytes.Buffer
	size, crc, err := WriteLeafFile(&buf, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(buf.Len()) {
		t.Fatalf("reported size %d, wrote %d bytes", size, buf.Len())
	}
	got, gotCRC, err := ReadLeafFile(bytes.NewReader(buf.Bytes()), s)
	if err != nil {
		t.Fatal(err)
	}
	if gotCRC != crc {
		t.Fatalf("read CRC %08x, write CRC %08x", gotCRC, crc)
	}
	if len(got) != len(leaves) {
		t.Fatalf("got %d leaves, want %d", len(got), len(leaves))
	}
	for i, l := range got {
		w := leaves[i]
		if l.Tree != w.Tree || l.Path != w.Path || l.Level != w.Level || l.Coord != w.Coord {
			t.Fatalf("leaf %d identity (%d,%#o,%d,%v), want (%d,%#o,%d,%v)",
				i, l.Tree, l.Path, l.Level, l.Coord, w.Tree, w.Path, w.Level, w.Coord)
		}
		for fi, pair := range [][2]*field.PDFField{{l.Src, w.Src}, {l.Dst, w.Dst}} {
			g, want := pair[0], pair[1]
			if g.Layout != want.Layout {
				t.Fatalf("leaf %d field %d: stored layout not preserved", i, fi)
			}
			gd, wd := g.Data(), want.Data()
			if len(gd) != len(wd) {
				t.Fatalf("leaf %d field %d: %d values, want %d", i, fi, len(gd), len(wd))
			}
			for j := range wd {
				if gd[j] != wd[j] {
					t.Fatalf("leaf %d field %d value %d: got %v want %v", i, fi, j, gd[j], wd[j])
				}
			}
		}
	}
}

// TestLeafFileCrossLayout: restoring into the opposite layout permutes
// storage but preserves every cell value.
func TestLeafFileCrossLayout(t *testing.T) {
	s := lattice.D3Q19()
	orig := testLeafSnapshot(t, s, 1, 0b1_010, 1, [3]int{1, 1, 0}, 5)
	var buf bytes.Buffer
	if _, _, err := WriteLeafFile(&buf, []LeafSnapshot{orig}); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadLeafFile(bytes.NewReader(buf.Bytes()), s)
	if err != nil {
		t.Fatal(err)
	}
	o := orig.Src
	g := field.NewPDFField(s, o.Nx, o.Ny, o.Nz, o.Ghost, field.AoS)
	g.CopyFrom(got[0].Src)
	gl := g.Ghost
	for z := -gl; z < g.Nz+gl; z++ {
		for y := -gl; y < g.Ny+gl; y++ {
			for x := -gl; x < g.Nx+gl; x++ {
				for a := 0; a < s.Q; a++ {
					if gv, wv := g.Get(x, y, z, lattice.Direction(a)), orig.Src.Get(x, y, z, lattice.Direction(a)); gv != wv {
						t.Fatalf("cell (%d,%d,%d,%d): got %v want %v", x, y, z, a, gv, wv)
					}
				}
			}
		}
	}
}

func TestLeafFileDetectsBitFlips(t *testing.T) {
	s := lattice.D3Q19()
	var buf bytes.Buffer
	if _, _, err := WriteLeafFile(&buf, []LeafSnapshot{testLeafSnapshot(t, s, 2, 0b1_100, 1, [3]int{0, 1, 0}, 1)}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// One flipped bit anywhere — identity header, field payload, record
	// CRC — must surface as a typed corruption error.
	for _, off := range []int{9, 20, 60, 300, len(raw) / 2, len(raw) - 2} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x08
		_, _, err := ReadLeafFile(bytes.NewReader(mut), s)
		if err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("bit flip at offset %d: error %v is not a *CorruptError", off, err)
		}
	}
}

func TestLeafFileRejectsGarbageWithoutAllocating(t *testing.T) {
	s := lattice.D3Q19()
	// Claims 2^31 leaves in an 8-byte file: rejected by the plausibility
	// bound, not attempted.
	garbage := append([]byte(leafFileMagic), 0, 0, 0, 0x80)
	if _, _, err := ReadLeafFile(bytes.NewReader(garbage), s); err == nil {
		t.Fatal("implausible leaf count accepted")
	}
	// Truncated mid-record.
	var buf bytes.Buffer
	if _, _, err := WriteLeafFile(&buf, []LeafSnapshot{testLeafSnapshot(t, s, 0, 0, 0, [3]int{0, 0, 0}, 1)}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, _, err := ReadLeafFile(bytes.NewReader(trunc), s); err == nil {
		t.Fatal("truncated leaf file accepted")
	}
}

// TestLeafFileSize: LeafFileSize is the byte count WriteLeafFile writes
// and reports, and AppendLeafFile appends the same bytes WriteLeafFile
// writes (whose CRC32C it reports), for random leaf sets of whole-block,
// cropped and row-compact fields in both layouts.
func TestLeafFileSize(t *testing.T) {
	s := lattice.D3Q19()
	r := rand.New(rand.NewSource(3))
	mk := func() *field.PDFField {
		n := [3]int{1 + r.Intn(6), 1 + r.Intn(5), 1 + r.Intn(4)}
		layout := field.Layout(r.Intn(2))
		var rows *field.Rows
		switch r.Intn(3) {
		case 0:
			rows = field.FullRows(n[0], n[1], n[2], 1)
		case 1: // the interior only
			rows = field.NewRows(n[0], n[1], n[2], 1, func(y, z int) (int, int) {
				if y < 0 || y >= n[1] || z < 0 || z >= n[2] {
					return 0, 0
				}
				return 0, n[0]
			})
		default:
			rows = field.NewRows(n[0], n[1], n[2], 1, func(y, z int) (int, int) {
				a, b := r.Intn(n[0]+2)-1, r.Intn(n[0]+2)-1
				return min(a, b), max(a, b)
			})
		}
		f := field.NewPDFFieldRows(s, layout, rows)
		f.FillEquilibrium(1, 0.01, 0, 0)
		return f
	}
	for rep := 0; rep < 20; rep++ {
		leaves := make([]LeafSnapshot, r.Intn(5))
		for i := range leaves {
			leaves[i] = LeafSnapshot{Tree: uint32(i), Path: uint64(r.Intn(64)), Level: uint8(r.Intn(3)), Coord: [3]int{i, -i, 2 * i}, Src: mk()}
			leaves[i].Dst = leaves[i].Src.CopyShape()
		}
		var buf bytes.Buffer
		size, crc, err := WriteLeafFile(&buf, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if want := LeafFileSize(leaves); size != want || int64(buf.Len()) != want {
			t.Fatalf("%d leaves: WriteLeafFile wrote %d bytes and reports %d, LeafFileSize says %d", len(leaves), buf.Len(), size, want)
		}
		if crc != CRC32C(buf.Bytes()) {
			t.Fatalf("%d leaves: WriteLeafFile reports CRC %08x of bytes whose CRC is %08x", len(leaves), crc, CRC32C(buf.Bytes()))
		}
		if got := AppendLeafFile([]byte("head"), leaves); !bytes.Equal(got, append([]byte("head"), buf.Bytes()...)) {
			t.Fatalf("%d leaves: AppendLeafFile appends %d bytes that differ from WriteLeafFile's %d", len(leaves), len(got)-4, buf.Len())
		}
	}
}

// TestCopyLeavesOfViews: a generation kept in memory copies a block whose
// fields are views of a larger field (a rank arena) into fields of its own,
// shaped like the block and holding its cells, and reuses them for the next
// generation.
func TestCopyLeavesOfViews(t *testing.T) {
	st := lattice.D3Q19()
	arena := [2]*field.PDFField{field.NewPDFField(st, 8, 4, 4, 1, field.SoA), field.NewPDFField(st, 8, 4, 4, 1, field.SoA)}
	for k, f := range arena {
		for i := range f.Data() {
			f.Data()[i] = float64(k*len(f.Data()) + i)
		}
	}
	var views []LeafSnapshot
	for b := 0; b < 2; b++ {
		lo := [3]int{4 * b, 0, 0}
		views = append(views, LeafSnapshot{Tree: uint32(b), Coord: [3]int{b, 0, 0},
			Src: arena[0].View(lo, 4, 4, 4), Dst: arena[1].View(lo, 4, 4, 4)})
	}
	gen := slices.Clone(views)
	CopyLeaves(gen, nil)
	for i, l := range gen {
		for j, f := range [2]*field.PDFField{l.Src, l.Dst} {
			v := [2]*field.PDFField{views[i].Src, views[i].Dst}[j]
			if f.Rows().View() || !f.Rows().Full() || f.AllocatedCells() != 6*6*6 || len(f.Data()) != 6*6*6*st.Q {
				t.Fatalf("leaf %d field %d: a copy storing %d cells, view %v, want a block of its own", i, j, f.AllocatedCells(), f.Rows().View())
			}
			for z := -1; z <= 4; z++ {
				for y := -1; y <= 4; y++ {
					for x := -1; x <= 4; x++ {
						for a := 0; a < st.Q; a++ {
							if got, want := f.At(x, y, z, lattice.Direction(a)), v.At(x, y, z, lattice.Direction(a)); got != want {
								t.Fatalf("leaf %d field %d cell (%d,%d,%d) dir %d: %v, view holds %v", i, j, x, y, z, a, got, want)
							}
						}
					}
				}
			}
		}
	}
	next := slices.Clone(views)
	CopyLeaves(next, gen)
	for i := range next {
		if next[i].Src != gen[i].Src || next[i].Dst != gen[i].Dst {
			t.Errorf("leaf %d: the next generation did not reuse the last one's fields", i)
		}
	}
}
