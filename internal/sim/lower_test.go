package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

// randomLowerRows draws allocation rows for an n-cell block with one ghost
// layer: per row an empty span one time in five, else a random x-span of
// the ghosted row.
func randomLowerRows(rng *rand.Rand, n [3]int) *field.Rows {
	return field.NewRows(n[0], n[1], n[2], 1, func(int, int) (int, int) {
		if rng.Intn(5) == 0 {
			return 0, 0
		}
		lo := -1 + rng.Intn(n[0]+2)
		return lo, lo + 1 + rng.Intn(n[0]+1-lo)
	})
}

// randomBox draws a box of extent ext inside the ghosted block of n cells.
func randomBox(rng *rand.Rand, n, ext [3]int) (lo, hi [3]int) {
	for d := range lo {
		lo[d] = -1 + rng.Intn(n[d]+3-ext[d])
		hi[d] = lo[d] + ext[d]
	}
	return lo, hi
}

// TestLowerSlabMatchesPackUnpack holds the lowering of remote slabs to the
// whole-slab format: for random allocation rows on both sides, random
// boxes, direction subsets and masks, packing a slab through the sender's
// runs (plus the fill slots) and unpacking that aggregate through the
// receiver's runs stores, on every slot the mask keeps, what PackRegion
// followed by UnpackRegion stores there, and leaves every other value of
// the receiving field untouched. The window holds the kept slots of the
// packed slab, in order, and every position of it is written.
func TestLowerSlabMatchesPackUnpack(t *testing.T) {
	models := []struct {
		name    string
		stencil *lattice.Stencil
		layout  field.Layout
	}{
		{"d3q19-soa", lattice.D3Q19(), field.SoA},
		{"d3q19-aos", lattice.D3Q19(), field.AoS},
		{"d3q27-aos", lattice.D3Q27(), field.AoS},
		{"d3q27-soa", lattice.D3Q27(), field.SoA},
	}
	masks := []string{"all", "ones", "random", "rows", "none"}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for trial := 0; trial < 300; trial++ {
				kind := masks[trial%len(masks)]
				label := fmt.Sprintf("trial %d mask %s", trial, kind)
				st := m.stencil
				n := [3]int{1 + rng.Intn(6), 1 + rng.Intn(5), 1 + rng.Intn(4)}
				ext := [3]int{1 + rng.Intn(n[0]+2), 1 + rng.Intn(n[1]+2), 1 + rng.Intn(n[2]+2)}
				sLo, sHi := randomBox(rng, n, ext)
				dLo, dHi := randomBox(rng, n, ext)
				if trial%7 == 0 {
					rows := field.FullRows(n[0], n[1], n[2], 1)
					checkLowering(t, label, st, m.layout, rows, rows, sLo, sHi, dLo, dHi, rng, kind)
					continue
				}
				checkLowering(t, label, st, m.layout, randomLowerRows(rng, n), randomLowerRows(rng, n), sLo, sHi, dLo, dHi, rng, kind)
			}
		})
	}
}

func checkLowering(t *testing.T, label string, st *lattice.Stencil, layout field.Layout, sRows, dRows *field.Rows,
	sLo, sHi, dLo, dHi [3]int, rng *rand.Rand, kind string) {
	t.Helper()
	var dirs []lattice.Direction
	for a := 1; a < st.Q; a++ {
		if rng.Intn(3) == 0 {
			dirs = append(dirs, lattice.Direction(a))
		}
	}
	if len(dirs) == 0 {
		dirs = append(dirs, lattice.Direction(1+rng.Intn(st.Q-1)))
	}
	src := field.NewPDFFieldRows(st, layout, sRows)
	src.FillEquilibrium(1+0.1*rng.Float64(), 0.01, -0.02, 0.03)
	for i := range src.Data() {
		src.Data()[i] = rng.Float64()
	}
	dst := field.NewPDFFieldRows(st, layout, dRows)
	for i := range dst.Data() {
		dst.Data()[i] = -float64(i + 1)
	}
	before := append([]float64(nil), dst.Data()...)

	ext := [3]int{sHi[0] - sLo[0], sHi[1] - sLo[1], sHi[2] - sLo[2]}
	nx := ext[0]
	slots := len(dirs) * ext[0] * ext[1] * ext[2]
	var m slotMask
	switch kind {
	case "ones", "random", "rows", "none":
		m = slotMask{bits: make([]byte, (slots+3+7)/8), off: 3}
		for k := 0; k < slots; k++ {
			keep := kind == "ones" || kind == "random" && rng.Intn(3) == 0 || kind == "rows" && (k/nx)%2 == 0
			if keep {
				setBits(m.bits, m.off+k, 1)
			}
		}
	}
	want := 0
	for k := 0; k < slots; k++ {
		if m.has(k) {
			want++
		}
	}

	const off = 5 // the slab's window starts inside the aggregate
	var fills []fillSlot
	var sink runSink
	sRuns, kept, _ := sink.lower(end{f: src, lo: sLo}, end{at: off}, ext, dirs, m, &fills)
	rRuns, rKept, _ := sink.lower(end{at: off}, end{f: dst, lo: dLo}, ext, dirs, m, nil)
	if kept != want || rKept != want {
		t.Fatalf("%s: windows of %d and %d slots, the mask keeps %d", label, kept, rKept, want)
	}
	buf := make([]float64, off+kept)
	for i := range buf {
		buf[i] = math.NaN()
	}
	for _, f := range fills {
		buf[f.pos] = f.v
	}
	execRuns(buf, src.Data(), sRuns)
	execRuns(dst.Data(), buf, rRuns)

	// The reference: the whole slab packed and unpacked.
	dense := make([]float64, slots)
	src.PackRegion(dense, sLo, sHi, dirs)
	ref := field.NewPDFFieldRows(st, layout, dRows)
	copy(ref.Data(), before)
	ref.UnpackRegion(dense, dLo, dHi, dirs)

	expect := append([]float64(nil), before...)
	w, k := 0, 0
	for _, d := range dirs {
		for z := 0; z < ext[2]; z++ {
			for y := 0; y < ext[1]; y++ {
				for x := 0; x < ext[0]; x, k = x+1, k+1 {
					if !m.has(k) {
						continue
					}
					if got := buf[off+w]; math.Float64bits(got) != math.Float64bits(dense[k]) {
						t.Fatalf("%s: window slot %d holds %v, the packed slab %v", label, w, got, dense[k])
					}
					w++
					gx, gy, gz := dLo[0]+x, dLo[1]+y, dLo[2]+z
					if dRows.Contains(gx, gy, gz) {
						i := dst.Index(gx, gy, gz, d)
						expect[i] = ref.Data()[i]
					}
				}
			}
		}
	}
	for i, v := range dst.Data() {
		if math.Float64bits(v) != math.Float64bits(expect[i]) {
			t.Fatalf("%s: value %d of the receiving field is %v, want %v (before %v)", label, i, v, expect[i], before[i])
		}
	}
}
