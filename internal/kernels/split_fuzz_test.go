package kernels

import (
	"math"
	"math/rand"
	"testing"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// fuzzPDF draws a finite PDF value of any sign and of magnitudes from
// subnormal to 1e300, so that sums overflow and quotients underflow.
func fuzzPDF(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return -r.Float64()
	case 1:
		return r.Float64() * 1e-310
	case 2:
		return (r.Float64() - 0.5) * 1e300
	default:
		return 1.0/19.0 + 0.01*(r.Float64()-0.5)
	}
}

// FuzzSplitRows checks the AVX2 rows against the Go rows bit for bit, for
// TRT and SRT: on fields cropped to an allocation window around a random
// fluid box, for every line of that box (row lengths 1-67, so every tail
// length n%4 occurs) and for the runs of a SparseInterval built over it. It
// calls both paths directly; on a CPU without AVX2 there is nothing to
// compare.
func FuzzSplitRows(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(255), uint8(0))   // one-cell rows
	f.Add(int64(2), uint8(3), uint8(255), uint8(5))   // a 4-cell row: no tail
	f.Add(int64(3), uint8(66), uint8(255), uint8(21)) // 67-cell rows: tail 3
	f.Add(int64(4), uint8(40), uint8(150), uint8(42)) // fragmented intervals
	f.Add(int64(5), uint8(17), uint8(30), uint8(63))  // sparse fluid
	f.Fuzz(func(t *testing.T, seed int64, length, fill, shape uint8) {
		if !useAVX2 {
			t.Skip("no AVX2 on this CPU")
		}
		r := rand.New(rand.NewSource(seed))
		nx := 1 + int(length)%67
		ny, nz := 1+int(shape)%4, 1+int(shape/4)%4
		flags := field.NewFlagField(nx, ny, nz, 1)
		flags.Fill(field.NoSlip)
		var box field.Window // where fluid may sit: a random sub-box
		for d, n := range [3]int{nx, ny, nz} {
			box.Lo[d] = r.Intn(n)
			box.Hi[d] = box.Lo[d] + 1 + r.Intn(n-box.Lo[d])
		}
		for z := box.Lo[2]; z < box.Hi[2]; z++ {
			for y := box.Lo[1]; y < box.Hi[1]; y++ {
				for x := box.Lo[0]; x < box.Hi[0]; x++ {
					if r.Intn(256) < int(fill) {
						flags.Set(x, y, z, field.Fluid)
					}
				}
			}
		}
		fluid := flags.Bounds(field.Fluid)
		if fluid.Empty() {
			return
		}
		win := fluid.Grow(1, field.FullWindow(nx, ny, nz, 1))
		src := field.NewPDFFieldWindow(lattice.D3Q19(), nx, ny, nz, 1, field.SoA, win)
		for i := range src.Data() {
			src.Data()[i] = fuzzPDF(r)
		}
		type row struct{ base, n int }
		var rows []row
		for z := fluid.Lo[2]; z < fluid.Hi[2]; z++ {
			for y := fluid.Lo[1]; y < fluid.Hi[1]; y++ {
				rows = append(rows, row{src.CellIndex(fluid.Lo[0], y, z), fluid.Hi[0] - fluid.Lo[0]})
			}
		}
		tau := 0.5 + 1.5*r.Float64()
		trt := collide.NewTRT(tau, collide.MagicParameter)
		for _, iv := range NewSparseInterval(trt, flags, win).intervals {
			rows = append(rows, row{iv.base, iv.n})
		}

		omega := collide.NewSRT(tau).Omega()
		for _, c := range []struct {
			name     string
			vec, ref func(d *dirRows, base, n int, p, q float64)
			p, q     float64
		}{
			{"trt", trtRowVec, trtRowSoA, trt.LambdaE, trt.LambdaO},
			{"srt", srtRowVec, srtRowSoA, omega, 1 - omega},
		} {
			for _, rw := range rows {
				got, want := src.CopyShape(), src.CopyShape()
				gr, wr := newDirRows(src, got), newDirRows(src, want)
				c.vec(&gr, rw.base, rw.n, c.p, c.q)
				c.ref(&wr, rw.base, rw.n, c.p, c.q)
				for j, w := range want.Data() {
					if g := got.Data()[j]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s row %d+%d of %dx%dx%d, window %v: data[%d] = %x, Go row %x",
							c.name, rw.base, rw.n, nx, ny, nz, win, j, math.Float64bits(g), math.Float64bits(w))
					}
				}
			}
		}
	})
}
