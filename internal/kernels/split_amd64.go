package kernels

import "walberla/internal/lattice"

// useAVX2 selects the AVX2 rows: the CPU executes AVX2 and the operating
// system saves the YMM registers across context switches (OSXSAVE set and
// XCR0 enabling the XMM and YMM state).
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// trtRowAVX2 updates n cells, any n >= 0, with the TRT row: the pulled
// value of direction a for the i-th cell is in[ioff[a]+i], its update goes
// to out[ooff[a]+i]. It reads and writes no other element, not even in the
// masked pass over the last n%4 cells. The caller guarantees every such
// element lies in its direction's array.
//
//go:noescape
func trtRowAVX2(in, out *float64, ioff, ooff *[lattice.Q19]int, n int, le, lo float64)

// srtRowAVX2 is trtRowAVX2 with the SRT collision.
//
//go:noescape
func srtRowAVX2(in, out *float64, ioff, ooff *[lattice.Q19]int, n int, omega, om1 float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
