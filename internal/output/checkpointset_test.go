package output

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

func testSnapshot(t *testing.T, s *lattice.Stencil, coord [3]int, seed float64) LeafSnapshot {
	t.Helper()
	mk := func(off float64) *field.PDFField {
		f := field.NewPDFField(s, 3, 2, 2, 1, field.SoA)
		d := f.Data()
		for i := range d {
			d[i] = seed + off + float64(i)*0.25
		}
		return f
	}
	return LeafSnapshot{Coord: coord, Src: mk(0), Dst: mk(1000)}
}

func writeTestSet(t *testing.T, root string, step int, blocks []LeafSnapshot) string {
	t.Helper()
	dir := filepath.Join(root, SetDirName(step))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	size, crc, err := WriteLeafFile(&buf, blocks)
	if err != nil {
		t.Fatal(err)
	}
	name := RankFileName(0)
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Create(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	m := &SetManifest{Step: int64(step), Ranks: 1,
		Entries: []ManifestEntry{{Name: name, Size: size, CRC: crc}}}
	if err := WriteManifest(mf, m); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestManifestRoundTripAndCorruption(t *testing.T) {
	m := &SetManifest{Step: 40, Ranks: 4, Entries: []ManifestEntry{
		{Name: RankFileName(0), Size: 123, CRC: 0xdeadbeef},
		{Name: RankFileName(1), Size: 456, CRC: 0x01020304},
	}}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != m.Step || got.Ranks != m.Ranks || len(got.Entries) != len(m.Entries) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	for i := range m.Entries {
		if got.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, got.Entries[i], m.Entries[i])
		}
	}
	// Any single-byte flip must fail the self-CRC.
	for _, off := range []int{0, 5, 20, buf.Len() - 2} {
		mut := append([]byte(nil), buf.Bytes()...)
		mut[off] ^= 0x01
		if _, err := ReadManifest(bytes.NewReader(mut)); err == nil {
			t.Fatalf("manifest bit flip at offset %d went undetected", off)
		}
	}
}

func TestListValidSetsOrderingAndSkipping(t *testing.T) {
	s := lattice.D3Q19()
	root := t.TempDir()
	blocks := []LeafSnapshot{testSnapshot(t, s, [3]int{0, 0, 0}, 1)}
	writeTestSet(t, root, 10, blocks)
	writeTestSet(t, root, 40, blocks)
	dir20 := writeTestSet(t, root, 20, blocks)

	// A transient tmp dir and a non-set dir must be ignored.
	if err := os.MkdirAll(filepath.Join(root, TmpSetDirName(30)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "unrelated"), 0o755); err != nil {
		t.Fatal(err)
	}

	got := ListValidSets(root)
	want := []int64{40, 20, 10}
	if len(got) != len(want) {
		t.Fatalf("ListValidSets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ListValidSets = %v, want %v", got, want)
		}
	}

	// Corrupt set-20's manifest: it must drop out of the valid list.
	mf := filepath.Join(dir20, ManifestName)
	raw, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	raw[6] ^= 0xff
	if err := os.WriteFile(mf, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got = ListValidSets(root)
	want = []int64{40, 10}
	if len(got) != 2 || got[0] != 40 || got[1] != 10 {
		t.Fatalf("after manifest corruption ListValidSets = %v, want %v", got, want)
	}

	// Truncate set-40's rank file: size mismatch vs manifest drops it too.
	rf := filepath.Join(root, SetDirName(40), RankFileName(0))
	raw, err = os.ReadFile(rf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rf, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	got = ListValidSets(root)
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("after truncation ListValidSets = %v, want [10]", got)
	}

	// Missing root directory: empty, not an error.
	if got := ListValidSets(filepath.Join(root, "nope")); len(got) != 0 {
		t.Fatalf("missing root: got %v", got)
	}
}

func TestValidateSetDirRejectsPathEscape(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, SetDirName(5))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Create(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	m := &SetManifest{Step: 5, Ranks: 1,
		Entries: []ManifestEntry{{Name: "../evil", Size: 1, CRC: 0}}}
	if err := WriteManifest(mf, m); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	if _, err := ValidateSetDir(dir); err == nil {
		t.Fatal("manifest entry escaping the set directory accepted")
	}
}
