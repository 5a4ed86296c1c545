package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Property: for arbitrary block shapes and arbitrary (valid) PDF states,
// every optimized kernel agrees with the generic reference. This catches
// indexing bugs that only appear at particular extents (e.g. stride
// confusion between axes on non-cubic blocks).
func TestKernelEquivalenceRandomShapes(t *testing.T) {
	trt := collide.NewTRT(0.9, collide.MagicParameter)
	srt := collide.NewSRT(0.9)
	prop := func(sx, sy, sz uint8, seed int64) bool {
		nx := int(sx%6) + 2
		ny := int(sy%6) + 2
		nz := int(sz%6) + 2
		r := rand.New(rand.NewSource(seed))
		src := field.NewPDFField(lattice.D3Q19(), nx, ny, nz, 1, field.AoS)
		feq := make([]float64, 19)
		for z := -1; z < nz+1; z++ {
			for y := -1; y < ny+1; y++ {
				for x := -1; x < nx+1; x++ {
					src.Stencil.Equilibrium(feq, 0.9+0.2*r.Float64(),
						0.06*(r.Float64()-0.5), 0.06*(r.Float64()-0.5), 0.06*(r.Float64()-0.5))
					for a := 0; a < 19; a++ {
						src.Set(x, y, z, lattice.Direction(a), feq[a]*(1+0.05*(r.Float64()-0.5)))
					}
				}
			}
		}
		refTRT := src.CopyShape()
		NewGeneric(lattice.D3Q19(), trt).Sweep(src, refTRT, nil)
		refSRT := src.CopyShape()
		NewGeneric(lattice.D3Q19(), srt).Sweep(src, refSRT, nil)

		kernelsUnderTest := []struct {
			k   Kernel
			ref *field.PDFField
		}{
			{NewD3Q19TRT(trt), refTRT},
			{NewSplitTRT(trt), refTRT},
			{NewD3Q19SRT(srt), refSRT},
			{NewSplitSRT(srt), refSRT},
		}
		for _, tc := range kernelsUnderTest {
			s2 := src.ConvertLayout(tc.k.Layout())
			d2 := s2.CopyShape()
			tc.k.Sweep(s2, d2, nil)
			got := d2.ConvertLayout(field.AoS)
			for z := 0; z < nz; z++ {
				for y := 0; y < ny; y++ {
					for x := 0; x < nx; x++ {
						for a := 0; a < 19; a++ {
							d := lattice.Direction(a)
							if math.Abs(got.Get(x, y, z, d)-tc.ref.Get(x, y, z, d)) > 1e-13 {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: sparse kernels on random fluid patterns agree with the
// reference restricted to fluid cells, for arbitrary shapes.
func TestSparseEquivalenceRandomPatterns(t *testing.T) {
	trt := collide.NewTRT(0.8, collide.MagicParameter)
	prop := func(sx, sy uint8, seed int64) bool {
		nx := int(sx%5) + 3
		ny := int(sy%5) + 3
		nz := 4
		r := rand.New(rand.NewSource(seed))
		flags := field.NewFlagField(nx, ny, nz, 1)
		flags.Fill(field.NoSlip)
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					if r.Float64() < 0.5 {
						flags.Set(x, y, z, field.Fluid)
					}
				}
			}
		}
		src := field.NewPDFField(lattice.D3Q19(), nx, ny, nz, 1, field.AoS)
		for i := range src.Data() {
			src.Data()[i] = 0.02 + 0.1*r.Float64()
		}
		ref := src.CopyShape()
		NewGeneric(lattice.D3Q19(), trt).Sweep(src, ref, flags)
		for _, k := range []Kernel{
			NewSparseConditional(trt, nil),
			NewSparseCellList(trt, flags, nil),
			NewSparseInterval(trt, flags, nil),
		} {
			s2 := src.ConvertLayout(k.Layout())
			d2 := s2.CopyShape()
			k.Sweep(s2, d2, flags)
			got := d2.ConvertLayout(field.AoS)
			for z := 0; z < nz; z++ {
				for y := 0; y < ny; y++ {
					for x := 0; x < nx; x++ {
						if flags.Get(x, y, z) != field.Fluid {
							continue
						}
						for a := 0; a < 19; a++ {
							d := lattice.Direction(a)
							if math.Abs(got.Get(x, y, z, d)-ref.Get(x, y, z, d)) > 1e-13 {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
