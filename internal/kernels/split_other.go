//go:build !amd64

package kernels

import "walberla/internal/lattice"

// useAVX2 is false off amd64: the Go rows are the only rows.
const useAVX2 = false

func trtRowAVX2(in, out *float64, ioff, ooff *[lattice.Q19]int, n int, le, lo float64) {
	panic("kernels: AVX2 rows exist on amd64 only")
}

func srtRowAVX2(in, out *float64, ioff, ooff *[lattice.Q19]int, n int, omega, om1 float64) {
	panic("kernels: AVX2 rows exist on amd64 only")
}
