package kernels

import (
	"math"
	"math/rand"
	"testing"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// tubePattern is a fuzzFlags pattern of a fragmented tube: the cells of an
// nx x ny x nz block within radius of an oblique axis through its centre,
// each kept with probability 7/8, so that the x-runs of fluid take many
// lengths, short ones and every n%4 included.
func tubePattern(r *rand.Rand, nx, ny, nz int, radius float64) []byte {
	p := make([]byte, (nx*ny*nz+7)/8)
	ax, ay, az := 1.0, 0.5, 0.25
	norm := math.Sqrt(ax*ax + ay*ay + az*az)
	ax, ay, az = ax/norm, ay/norm, az/norm
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				px, py, pz := float64(x)-float64(nx-1)/2, float64(y)-float64(ny-1)/2, float64(z)-float64(nz-1)/2
				along := px*ax + py*ay + pz*az
				if px*px+py*py+pz*pz-along*along <= radius*radius && r.Intn(8) != 0 {
					p[i/8] |= 1 << (i % 8)
				}
				i++
			}
		}
	}
	return p
}

// TestIntervalSweepMatchesGoRows sweeps a fragmented tube stored in compact
// allocation rows with the interval kernel and with the flag-aware split
// kernels, once on the AVX2 rows and once on the Go rows, and requires the
// same bits on every stored value: whole sweeps, every run length and
// every tail among them, hold the AVX2 rows to the reference.
func TestIntervalSweepMatchesGoRows(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer func(detected bool) { useAVX2 = detected }(useAVX2)
	const nx, ny, nz = 21, 13, 11
	r := rand.New(rand.NewSource(29))
	flags := fuzzFlags(nx, ny, nz, tubePattern(r, nx, ny, nz, 4))
	rows := fluidRows(r, flags, lattice.D3Q19(), 0)
	src := field.NewPDFFieldRows(lattice.D3Q19(), field.SoA, rows)
	src.CopyFrom(randomPDFs(r, lattice.D3Q19(), field.SoA, nx, ny, nz))

	var tails [4]int
	for _, iv := range NewSparseInterval(collide.NewTRT(0.8, collide.MagicParameter), flags, rows).intervals {
		tails[iv.n%4]++
	}
	for k, c := range tails {
		if c == 0 {
			t.Fatalf("no run of length %d mod 4 in the tube (runs by n%%4: %v)", k, tails)
		}
	}

	sweep := func(c Choice, avx2 bool) []float64 {
		useAVX2 = avx2
		k, err := New(Spec{Choice: c, Tau: 0.8, Flags: flags, Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		dst := src.CopyShape()
		dst.FillEquilibrium(7, 0, 0, 0)
		k.Sweep(src, dst, flags)
		return dst.Data()
	}
	want := map[Choice][]float64{}
	for _, c := range []Choice{ChoiceSparse, ChoiceSplitTRT, ChoiceSplitSRT} {
		got, ref := sweep(c, true), sweep(c, false)
		for j, w := range ref {
			if math.Float64bits(got[j]) != math.Float64bits(w) {
				t.Fatalf("%s: data[%d] = %x on the AVX2 rows, %x on the Go rows", c, j, math.Float64bits(got[j]), math.Float64bits(w))
			}
		}
		want[c] = ref
	}
	for j, w := range want[ChoiceSplitTRT] {
		if g := want[ChoiceSparse][j]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("data[%d] = %x from the interval kernel, %x from the split kernel", j, math.Float64bits(g), math.Float64bits(w))
		}
	}
}
