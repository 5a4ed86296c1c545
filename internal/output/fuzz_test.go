package output

import (
	"bytes"
	"errors"
	"testing"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Fuzz harness for the external-data readers: whatever bytes arrive —
// truncated, bit-flipped, adversarial — the readers must either decode or
// return an error, never panic and never allocate proportionally to an
// unvalidated header. Run the full fuzzer with e.g.
//
//	go test -fuzz FuzzReadLeafFile -fuzztime 30s ./internal/output/
//
// The seed corpus below (valid encodings plus systematic corruptions) also
// runs as ordinary tests, which is the smoke mode `make verify` uses.

// validManifestBytes encodes a representative manifest.
func validManifestBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	m := &SetManifest{Step: 40, Ranks: 2, Entries: []ManifestEntry{
		{Name: RankFileName(0), Size: 128, CRC: 0xdeadbeef},
		{Name: RankFileName(1), Size: 256, CRC: 0x01020304},
	}}
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	return buf.Bytes()
}

// validUniformFileBytes encodes the rank file of a uniform world: two
// blocks, each a level-0 leaf of its own root.
func validUniformFileBytes(t testing.TB) []byte {
	t.Helper()
	src := field.NewPDFField(lattice.D3Q19(), 2, 2, 2, 1, field.SoA)
	src.FillEquilibrium(1.0, 0.01, 0, 0)
	dst := src.CopyShape()
	dst.FillEquilibrium(1.0, 0, 0.01, 0)
	var buf bytes.Buffer
	if _, _, err := WriteLeafFile(&buf, []LeafSnapshot{
		{Tree: 5, Coord: [3]int{1, 2, 3}, Src: src, Dst: dst},
		{Tree: 6, Coord: [3]int{2, 2, 3}, Src: dst, Dst: src},
	}); err != nil {
		t.Fatalf("WriteLeafFile: %v", err)
	}
	return buf.Bytes()
}

// corruptions derives a systematic corruption set from a valid encoding:
// truncations, bit flips across the stream, and an implausible count in
// the header region.
func corruptions(valid []byte) [][]byte {
	var out [][]byte
	for _, n := range []int{0, 1, 4, len(valid) / 2, len(valid) - 1} {
		if n <= len(valid) {
			out = append(out, valid[:n])
		}
	}
	for _, pos := range []int{0, 4, 5, len(valid) / 3, len(valid) / 2, len(valid) - 2} {
		if pos < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 0x40
			out = append(out, mut)
		}
	}
	if len(valid) > 8 {
		mut := append([]byte(nil), valid...)
		mut[4], mut[5], mut[6], mut[7] = 0xff, 0xff, 0xff, 0xff // saturate the count field
		out = append(out, mut)
	}
	out = append(out, append(valid[:len(valid):len(valid)], 0xAA)) // trailing garbage
	return out
}

func FuzzReadManifest(f *testing.F) {
	valid := validManifestBytes(f)
	f.Add(valid)
	for _, c := range corruptions(valid) {
		f.Add(c)
	}
	f.Add([]byte(manifestMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("non-typed manifest error: %v", err)
			}
			return
		}
		// A successful decode must round-trip bit-identically up to the
		// decoded prefix — re-encoding recomputes the same CRC-closed form.
		var buf bytes.Buffer
		if werr := WriteManifest(&buf, m); werr != nil {
			t.Fatalf("re-encoding decoded manifest: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("manifest round-trip mismatch")
		}
	})
}

// validLeafFileBytes encodes a two-leaf WBK2 file of a refined world: what
// arrives from a peer during migration and buddy replication, and from
// disk.
func validLeafFileBytes(t testing.TB) []byte {
	t.Helper()
	src := field.NewPDFField(lattice.D3Q19(), 2, 2, 2, 1, field.SoA)
	src.FillEquilibrium(1.0, 0.01, 0, 0)
	dst := src.CopyShape()
	dst.FillEquilibrium(1.0, 0, 0.01, 0)
	var buf bytes.Buffer
	if _, _, err := WriteLeafFile(&buf, []LeafSnapshot{
		{Tree: 3, Path: 0o52, Level: 2, Coord: [3]int{1, 2, 3}, Src: src, Dst: dst},
		{Tree: 4, Coord: [3]int{2, 2, 3}, Src: dst, Dst: src},
	}); err != nil {
		t.Fatalf("WriteLeafFile: %v", err)
	}
	return buf.Bytes()
}

func FuzzReadLeafFile(f *testing.F) {
	valid := validLeafFileBytes(f)
	f.Add(valid)
	for _, c := range corruptions(valid) {
		f.Add(c)
	}
	f.Add([]byte(leafFileMagic))
	uniform := validUniformFileBytes(f) // the other runtime's records
	f.Add(uniform)
	for _, c := range corruptions(uniform) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		leaves, _, err := ReadLeafFile(bytes.NewReader(data), lattice.D3Q19())
		if err != nil {
			// These bytes come from disk and from peers: every failure must
			// be the typed error recovery votes on.
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("non-typed leaf file error: %v", err)
			}
			return
		}
		for _, l := range leaves {
			if l.Src == nil || l.Dst == nil || l.Level > 20 {
				t.Fatalf("decoded an unusable leaf %+v", l)
			}
		}
	})
}

func FuzzLoadCheckpoint(f *testing.F) {
	src := field.NewPDFField(lattice.D3Q19(), 2, 2, 2, 1, field.SoA)
	src.FillEquilibrium(1.0, 0, 0, 0.01)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		f.Fatalf("SaveCheckpoint: %v", err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, c := range corruptions(valid) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := LoadCheckpoint(bytes.NewReader(data), lattice.D3Q19())
		if err == nil && pf == nil {
			t.Fatal("nil field without error")
		}
	})
}

// TestReadersRejectSeedCorpusCorruptions pins the stronger property the
// fuzz invariant alone cannot assert: every systematic corruption of a
// valid encoding is rejected with an error (the CRC discipline leaves no
// silently-accepted mutations).
func TestReadersRejectSeedCorpusCorruptions(t *testing.T) {
	for i, c := range corruptions(validManifestBytes(t)) {
		if _, err := ReadManifest(bytes.NewReader(c)); err == nil {
			t.Errorf("manifest corruption %d accepted", i)
		}
	}
	for _, valid := range [][]byte{validLeafFileBytes(t), validUniformFileBytes(t)} {
		_, validCRC, err := ReadLeafFile(bytes.NewReader(valid), lattice.D3Q19())
		if err != nil {
			t.Fatalf("valid rank file rejected: %v", err)
		}
		for i, c := range corruptions(valid) {
			// Trailing garbage is legitimately tolerated by the record-level
			// checks; it must then surface in the whole-stream CRC, which the
			// manifest cross-check rejects.
			if _, crc, err := ReadLeafFile(bytes.NewReader(c), lattice.D3Q19()); err == nil && crc == validCRC {
				t.Errorf("rank file corruption %d accepted with unchanged CRC", i)
			}
		}
	}
}
