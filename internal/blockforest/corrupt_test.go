package blockforest

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// Corrupted block-structure files must produce errors, never panics: the
// loader is the single point where external data enters the simulation.
func TestLoadCorruptedInputs(t *testing.T) {
	f := NewSetupForest(
		NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{4, 4, 4}, [3]int{8, 8, 8}, [3]bool{})
	f.BalanceMorton(8)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	check := func(name string, data []byte) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s: Load panicked: %v", name, p)
			}
		}()
		// Errors are fine; panics and silent success with broken trailers
		// are not. (Truncations inside the last block record may pass or
		// fail depending on cut position; we only require no panic.)
		_, _ = Load(bytes.NewReader(data))
	}

	check("empty", nil)
	check("magic only", good[:4])
	check("bad magic", append([]byte("XXXX"), good[4:]...))
	for _, cut := range []int{5, 20, 50, len(good) / 2, len(good) - 3} {
		check("truncated", good[:cut])
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		corrupted := append([]byte(nil), good...)
		for i := 0; i < 5; i++ {
			corrupted[4+r.Intn(len(corrupted)-4)] ^= byte(1 << r.Intn(8))
		}
		check("bitflips", corrupted)
	}

	// Files with a valid CRC that no forest can mean: a block outside the
	// grid, and one coordinate stored twice (the header counts two blocks,
	// a forest would hold one).
	small := NewSetupForest(NewAABB([3]float64{0, 0, 0}, [3]float64{2, 1, 1}),
		[3]int{2, 1, 1}, [3]int{8, 8, 8}, [3]bool{})
	small.BalanceMorton(1)
	var sb bytes.Buffer
	if err := small.Save(&sb); err != nil {
		t.Fatal(err)
	}
	second := int(headerSize()) - 4 + 6 // records: 3 coordinate bytes, rank, 2 workload bytes
	for _, c := range []struct {
		name, want string
		x          byte
	}{
		{"block at (5,0,0) of a 2x1x1 grid", "outside", 5},
		{"(0,0,0) stored twice", "twice", 0},
	} {
		mut := append([]byte(nil), sb.Bytes()...)
		mut[second] = c.x
		restamp(mut)
		if _, err := Load(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load returned %v, want an error saying %q", c.name, err, c.want)
		}
	}
}

// restamp rewrites the CRC32C trailer of a file whose body was edited.
func restamp(file []byte) {
	body := len(file) - 4
	crc := crc32.Checksum(file[:body], castagnoli)
	for i := 0; i < 4; i++ {
		file[body+i] = byte(crc >> (8 * i))
	}
}

// FuzzLoadForest feeds Load arbitrary bytes: it must never panic, and a
// forest it accepts must re-save to exactly the bytes it was read from.
func FuzzLoadForest(f *testing.F) {
	forest := NewSetupForest(NewAABB([3]float64{0, 0, 0}, [3]float64{1, 2, 1}),
		[3]int{3, 2, 1}, [3]int{8, 4, 8}, [3]bool{true, false, true})
	forest.RemoveBlock([3]int{1, 1, 0})
	forest.BalanceMorton(3)
	var buf bytes.Buffer
	if err := forest.Save(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, cut := range []int{0, 4, 60, 90, len(good) - 10, len(good) - 1} {
		f.Add(good[:cut])
	}
	// Each input is tried as given and, so that edited bodies get past the
	// CRC to the field checks, with its last four bytes restamped.
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			stamped := append([]byte(nil), data...)
			restamp(stamped)
			inputs = append(inputs, stamped)
		}
		for _, in := range inputs {
			r := bytes.NewReader(in)
			got, err := Load(r)
			if err != nil {
				continue
			}
			var again bytes.Buffer
			if err := got.Save(&again); err != nil {
				t.Fatal(err)
			}
			if read := in[:len(in)-r.Len()]; !bytes.Equal(again.Bytes(), read) {
				t.Fatalf("accepted %d bytes re-save to %d different ones", len(read), again.Len())
			}
		}
	})
}

// With the WBF3 CRC32C trailer, every single-bit flip anywhere in the
// file — header, block records, or the trailer itself — must be detected
// as an error, not merely avoid a panic.
func TestLoadDetectsEveryBitFlip(t *testing.T) {
	f := NewSetupForest(
		NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 2, 2}, [3]int{8, 8, 8}, [3]bool{})
	f.BalanceMorton(4)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	for off := 0; off < len(good); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[off] ^= byte(1 << bit)
			if _, err := Load(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit %d at offset %d went undetected", bit, off)
			}
		}
	}
}

// Legacy WBF1 files (no integrity trailer) must be rejected with a clear
// error instead of being trusted.
func TestLoadRejectsLegacyVersion(t *testing.T) {
	f := NewSetupForest(
		NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 2, 2}, [3]int{8, 8, 8}, [3]bool{})
	f.BalanceMorton(2)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte("WBF1"), buf.Bytes()[4:]...)
	if _, err := Load(bytes.NewReader(legacy)); err == nil {
		t.Fatal("legacy WBF1 magic accepted")
	}
}

// Truncations that cut whole block records still decode the header and
// must report an error rather than returning a short forest silently.
func TestLoadTruncatedBlocksErrors(t *testing.T) {
	f := NewSetupForest(
		NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{4, 4, 4}, [3]int{8, 8, 8}, [3]bool{})
	f.BalanceMorton(8)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Remove exactly the last two block records.
	perBlock := (len(good) - int(headerSize())) / f.NumBlocks()
	short := good[:len(good)-2*perBlock]
	if _, err := Load(bytes.NewReader(short)); err == nil {
		t.Error("truncated block list accepted")
	}
}
