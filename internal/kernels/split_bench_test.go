package kernels

import (
	"fmt"
	"testing"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// BenchmarkRows times the TRT row update of one run of n cells, the AVX2
// row (as trtRow dispatches it) against the Go row, and reports ns/cell:
// the per-cell cost the interval kernel pays for the run lengths of a
// sparse block.
func BenchmarkRows(b *testing.B) {
	const nx = 32
	src := field.NewPDFField(lattice.D3Q19(), nx, 3, 3, 1, field.SoA)
	src.FillEquilibrium(1, 0.02, -0.01, 0.005)
	dst := src.CopyShape()
	rows := newDirRows(src, dst)
	v := blockPulls(src.Rows(), field.SoA)
	base := src.CellIndex(0, 1, 1)
	trt := collide.NewTRT(0.8, collide.MagicParameter)
	le, lo := trt.LambdaE, trt.LambdaO
	for _, isa := range []string{"avx2", "go"} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/n=%d", isa, n), func(b *testing.B) {
				avx2 := isa == "avx2"
				if avx2 && !useAVX2 {
					b.Skip("no AVX2 on this CPU")
				}
				for i := 0; i < b.N; i++ {
					if avx2 {
						trtRow(&rows, &v, base, n, le, lo)
					} else {
						checkRow(&v, base, n)
						trtRowSoA(&rows, &v, base, n, le, lo)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
			})
		}
	}
}
