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
// TRT and SRT: on a field cropped to the box around a random fluid region,
// for every line of that box (row lengths 1-67, so every tail length n%4
// occurs), and for the runs of SparseIntervals built over it and over a
// field stored in allocation rows around the fluid. It calls the checked
// row, which takes the AVX2 path, and the Go row directly; on a CPU
// without AVX2 there is nothing to compare.
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
		win := grown(fluid, nx, ny, nz)
		cropped := field.NewPDFFieldRows(lattice.D3Q19(), field.SoA, boxRows(nx, ny, nz, win))
		compact := field.NewPDFFieldRows(lattice.D3Q19(), field.SoA, fluidRows(r, flags, lattice.D3Q19(), int(shape)%3))
		for _, src := range []*field.PDFField{cropped, compact} {
			for i := range src.Data() {
				src.Data()[i] = fuzzPDF(r)
			}
		}
		// A row to update: the field, the pulls it sweeps with and either
		// its (y, z) in the field's box or its vector in those pulls.
		type row struct {
			src        *field.PDFField
			pulls      *pullTable
			y, z, v    int
			base, n    int
			ofInterval bool
		}
		var rows []row
		croppedPulls := newPullTable(cropped.Rows(), nil, field.SoA)
		for z := fluid.Lo[2]; z < fluid.Hi[2]; z++ {
			for y := fluid.Lo[1]; y < fluid.Hi[1]; y++ {
				rows = append(rows, row{cropped, &croppedPulls, y, z, 0, cropped.CellIndex(fluid.Lo[0], y, z), fluid.Hi[0] - fluid.Lo[0], false})
			}
		}
		tau := 0.5 + 1.5*r.Float64()
		trt := collide.NewTRT(tau, collide.MagicParameter)
		for _, src := range []*field.PDFField{cropped, compact} {
			k := NewSparseInterval(trt, flags, src.Rows())
			for _, iv := range k.intervals {
				rows = append(rows, row{src, &k.pulls, 0, 0, int(iv.v), iv.base, int(iv.n), true})
			}
		}

		omega := collide.NewSRT(tau).Omega()
		for _, c := range []struct {
			name     string
			row, ref func(d *dirRows, v *pullVec, base, n int, p, q float64)
			p, q     float64
		}{
			{"trt", trtRow, trtRowSoA, trt.LambdaE, trt.LambdaO},
			{"srt", srtRow, srtRowSoA, omega, 1 - omega},
		} {
			for _, rw := range rows {
				got, want := rw.src.CopyShape(), rw.src.CopyShape()
				gr, wr := newDirRows(rw.src, got), newDirRows(rw.src, want)
				var pulls rowPulls
				rw.pulls.bind(&pulls, rw.src, nil)
				v := pulls.at(rw.y, rw.z)
				if rw.ofInterval {
					v = &pulls.vecs[rw.v]
				}
				c.row(&gr, v, rw.base, rw.n, c.p, c.q)
				c.ref(&wr, v, rw.base, rw.n, c.p, c.q)
				for j, w := range want.Data() {
					if g := got.Data()[j]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s row %d+%d of %dx%dx%d, window %v: data[%d] = %x, Go row %x",
							c.name, rw.base, rw.n, nx, ny, nz, rw.src.Window(), j, math.Float64bits(g), math.Float64bits(w))
					}
				}
			}
		}
	})
}
