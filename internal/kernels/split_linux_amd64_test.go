//go:build linux && amd64

package kernels

import (
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// guarded returns n float64s whose last one is the last before a page the
// process may neither read nor write.
func guarded(t *testing.T, n int) []float64 {
	t.Helper()
	page := os.Getpagesize()
	size := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-n*8])), n)
}

// TestRowsStopAtGuardPage runs the AVX2 rows over the last n cells, n = 1
// to 7, of SoA arrays that end right before a guard page, so that the last
// cell of the last direction is the last float64 the process may touch
// (pulled and stored alike). An access past the row, such as a full-width
// load or store in the masked pass, faults; the rows must not fault, must
// give the Go row's bits and must leave every other element alone.
func TestRowsStopAtGuardPage(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const cells = 16
	r := rand.New(rand.NewSource(7))
	in, out := guarded(t, lattice.Q19*cells), guarded(t, lattice.Q19*cells)
	for i := range in {
		in[i] = fuzzPDF(r)
	}
	ref := make([]float64, len(out))
	var offs [lattice.Q19]int // every cell pulls from itself: the rows do not care
	v := newPullVec(&offs, field.SoA, cells)
	dirs := func(dst []float64) dirRows {
		d := dirRows{src: in, dst: dst}
		for a := range d.out {
			d.out[a], d.ooff[a] = dst[a*cells:(a+1)*cells], a*cells
		}
		return d
	}
	trt := collide.NewTRT(0.8, collide.MagicParameter)
	omega := collide.NewSRT(0.8).Omega()
	for _, c := range []struct {
		name     string
		row, ref func(d *dirRows, v *pullVec, base, n int, p, q float64)
		p, q     float64
	}{
		{"trt", trtRow, trtRowSoA, trt.LambdaE, trt.LambdaO},
		{"srt", srtRow, srtRowSoA, omega, 1 - omega},
	} {
		for n := 1; n <= 7; n++ {
			for i := range out {
				out[i], ref[i] = -1, -1
			}
			got, want := dirs(out), dirs(ref)
			func() {
				defer func() {
					if e := recover(); e != nil {
						t.Fatalf("%s row of %d cells at the guard page: %v", c.name, n, e)
					}
				}()
				c.row(&got, &v, cells-n, n, c.p, c.q)
			}()
			c.ref(&want, &v, cells-n, n, c.p, c.q)
			for j, w := range ref {
				if math.Float64bits(out[j]) != math.Float64bits(w) {
					t.Fatalf("%s row of %d cells: element %d = %x, Go row %x", c.name, n, j, math.Float64bits(out[j]), math.Float64bits(w))
				}
			}
		}
	}
}
