package kernels

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// randomField fills a field (including ghost layers) with valid random
// PDF-like values so that streaming from ghosts is well-defined.
func randomField(r *rand.Rand, layout field.Layout, nx, ny, nz int) *field.PDFField {
	s := lattice.D3Q19()
	f := field.NewPDFField(s, nx, ny, nz, 1, layout)
	feq := make([]float64, s.Q)
	for z := -1; z < nz+1; z++ {
		for y := -1; y < ny+1; y++ {
			for x := -1; x < nx+1; x++ {
				rho := 0.9 + 0.2*r.Float64()
				ux := 0.08 * (r.Float64() - 0.5)
				uy := 0.08 * (r.Float64() - 0.5)
				uz := 0.08 * (r.Float64() - 0.5)
				s.Equilibrium(feq, rho, ux, uy, uz)
				for a := 0; a < s.Q; a++ {
					// Perturb away from equilibrium to exercise the full
					// collision, keeping PDFs positive.
					v := feq[a] * (1.0 + 0.1*(r.Float64()-0.5))
					f.Set(x, y, z, lattice.Direction(a), v)
				}
			}
		}
	}
	return f
}

// sparseFlags builds a flag field with a random fluid pattern at roughly
// the given fill fraction; non-fluid interior cells are NoSlip so fluid
// cells never pull from Outside.
func sparseFlags(r *rand.Rand, nx, ny, nz int, fill float64) *field.FlagField {
	fl := field.NewFlagField(nx, ny, nz, 1)
	fl.Fill(field.NoSlip)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if r.Float64() < fill {
					fl.Set(x, y, z, field.Fluid)
				}
			}
		}
	}
	return fl
}

func maxDiff(t *testing.T, a, b *field.PDFField, flags *field.FlagField) float64 {
	t.Helper()
	var m float64
	for z := 0; z < a.Nz; z++ {
		for y := 0; y < a.Ny; y++ {
			for x := 0; x < a.Nx; x++ {
				if flags != nil && flags.Get(x, y, z) != field.Fluid {
					continue
				}
				for q := 0; q < a.Stencil.Q; q++ {
					d := math.Abs(a.Get(x, y, z, lattice.Direction(q)) - b.Get(x, y, z, lattice.Direction(q)))
					if d > m {
						m = d
					}
				}
			}
		}
	}
	return m
}

const nx, ny, nz = 12, 10, 8

// Every optimized kernel must agree with the generic reference kernel to
// floating point accuracy on dense blocks.
func TestDenseKernelsMatchGeneric(t *testing.T) {
	srt := collide.NewSRT(0.83)
	trt := collide.NewTRT(0.83, collide.MagicParameter)

	cases := []struct {
		name string
		ref  Kernel
		opt  Kernel
	}{
		{"SRT D3Q19", NewGeneric(lattice.D3Q19(), srt), NewD3Q19SRT(srt)},
		{"TRT D3Q19", NewGeneric(lattice.D3Q19(), trt), NewD3Q19TRT(trt)},
		{"SRT SIMD", NewGeneric(lattice.D3Q19(), srt), NewSplitSRT(srt)},
		{"TRT SIMD", NewGeneric(lattice.D3Q19(), trt), NewSplitTRT(trt)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			srcA := randomField(r, field.AoS, nx, ny, nz)
			dstA := srcA.CopyShape()
			tc.ref.Sweep(srcA, dstA, nil)

			src := srcA.ConvertLayout(tc.opt.Layout())
			dst := src.CopyShape()
			tc.opt.Sweep(src, dst, nil)

			got := dst.ConvertLayout(field.AoS)
			if d := maxDiff(t, got, dstA, nil); d > 1e-13 {
				t.Errorf("max deviation from generic kernel: %g", d)
			}
		})
	}
}

// The sparse strategies must agree with the generic reference restricted
// to fluid cells, for several fill fractions.
func TestSparseKernelsMatchGeneric(t *testing.T) {
	trt := collide.NewTRT(0.77, collide.MagicParameter)
	for _, fill := range []float64{0.05, 0.3, 0.85, 1.0} {
		r := rand.New(rand.NewSource(int64(fill * 100)))
		flags := sparseFlags(r, nx, ny, nz, fill)
		srcA := randomField(r, field.AoS, nx, ny, nz)
		ref := srcA.CopyShape()
		NewGeneric(lattice.D3Q19(), trt).Sweep(srcA, ref, flags)

		kernelsUnderTest := []Kernel{
			NewSparseConditional(trt, nil),
			NewSparseCellList(trt, flags, nil),
			NewSparseInterval(trt, flags, nil),
			NewD3Q19TRT(trt), // dense kernel with flags
			NewSplitTRT(trt), // split kernel with flags
		}
		for _, k := range kernelsUnderTest {
			src := srcA.ConvertLayout(k.Layout())
			dst := src.CopyShape()
			k.Sweep(src, dst, flags)
			got := dst.ConvertLayout(field.AoS)
			if d := maxDiff(t, got, ref, flags); d > 1e-13 {
				t.Errorf("fill %.2f, %s: max deviation %g", fill, k.Name(), d)
			}
		}
	}
}

// Sparse kernels must not write to non-fluid cells.
func TestSparseKernelsLeaveNonFluidUntouched(t *testing.T) {
	trt := collide.NewTRT(0.9, collide.MagicParameter)
	r := rand.New(rand.NewSource(7))
	flags := sparseFlags(r, nx, ny, nz, 0.4)
	for _, mk := range []func() Kernel{
		func() Kernel { return NewSparseConditional(trt, nil) },
		func() Kernel { return NewSparseCellList(trt, flags, nil) },
		func() Kernel { return NewSparseInterval(trt, flags, nil) },
	} {
		k := mk()
		src := randomField(r, k.Layout(), nx, ny, nz)
		dst := src.CopyShape()
		sentinel := -123.0
		for i := range dst.Data() {
			dst.Data()[i] = sentinel
		}
		k.Sweep(src, dst, flags)
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					touched := dst.Get(x, y, z, lattice.C) != sentinel
					if touched != (flags.Get(x, y, z) == field.Fluid) {
						t.Fatalf("%s: cell (%d,%d,%d) fluid=%v touched=%v",
							k.Name(), x, y, z, flags.Get(x, y, z) == field.Fluid, touched)
					}
				}
			}
		}
	}
}

func TestSparseIntervalStats(t *testing.T) {
	trt := collide.NewTRT(0.9, collide.MagicParameter)
	fl := field.NewFlagField(10, 1, 1, 1)
	fl.Fill(field.NoSlip)
	// Two runs: [1,3] and [6,8].
	for _, x := range []int{1, 2, 3, 6, 7, 8} {
		fl.Set(x, 0, 0, field.Fluid)
	}
	k := NewSparseInterval(trt, fl, nil)
	if k.Intervals() != 2 {
		t.Errorf("Intervals = %d, want 2", k.Intervals())
	}
	if k.FluidCells() != 6 {
		t.Errorf("FluidCells = %d, want 6", k.FluidCells())
	}
	kl := NewSparseCellList(trt, fl, nil)
	if kl.FluidCells() != 6 {
		t.Errorf("cell list FluidCells = %d, want 6", kl.FluidCells())
	}
}

// A uniform equilibrium state is a fixed point of the full stream-collide
// update (with periodic-like ghost data).
func TestKernelFixedPoint(t *testing.T) {
	srt := collide.NewSRT(0.7)
	trt := collide.NewTRT(0.7, collide.MagicParameter)
	for _, k := range []Kernel{
		NewGeneric(lattice.D3Q19(), srt),
		NewD3Q19SRT(srt), NewD3Q19TRT(trt), NewSplitSRT(srt), NewSplitTRT(trt),
	} {
		src := field.NewPDFField(lattice.D3Q19(), 6, 6, 6, 1, k.Layout())
		src.FillEquilibrium(1.0, 0.04, 0.01, -0.02)
		dst := src.CopyShape()
		k.Sweep(src, dst, nil)
		for z := 0; z < 6; z++ {
			for y := 0; y < 6; y++ {
				for x := 0; x < 6; x++ {
					for a := 0; a < 19; a++ {
						want := src.Get(x, y, z, lattice.Direction(a))
						got := dst.Get(x, y, z, lattice.Direction(a))
						if math.Abs(got-want) > 1e-14 {
							t.Fatalf("%s: uniform equilibrium not a fixed point at (%d,%d,%d,%d): %v vs %v",
								k.Name(), x, y, z, a, got, want)
						}
					}
				}
			}
		}
	}
}

// Mass must be conserved by the collision part of the update: the sum over
// dst of cell densities equals the sum over the pulled values, which for a
// fully periodic ghost setup equals total interior mass.
func TestKernelMassConservation(t *testing.T) {
	trt := collide.NewTRT(1.1, collide.MagicParameter)
	for _, k := range []Kernel{NewD3Q19TRT(trt), NewSplitTRT(trt)} {
		// Periodic ghost fill: copy opposite interior layers into ghosts so
		// that every pulled PDF originates from an interior cell.
		src := field.NewPDFField(lattice.D3Q19(), 8, 8, 8, 1, k.Layout())
		r := rand.New(rand.NewSource(11))
		feq := make([]float64, 19)
		for z := 0; z < 8; z++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					src.Stencil.Equilibrium(feq, 0.9+0.2*r.Float64(),
						0.05*(r.Float64()-0.5), 0.05*(r.Float64()-0.5), 0.05*(r.Float64()-0.5))
					for a := 0; a < 19; a++ {
						src.Set(x, y, z, lattice.Direction(a), feq[a])
					}
				}
			}
		}
		fillPeriodicGhosts(src)
		dst := src.CopyShape()
		k.Sweep(src, dst, nil)
		before := src.TotalMass()
		after := dst.TotalMass()
		if math.Abs(after-before) > 1e-9 {
			t.Errorf("%s: mass %v -> %v", k.Name(), before, after)
		}
	}
}

// fillPeriodicGhosts copies the interior boundary layers into the opposite
// ghost layers, emulating a fully periodic single block.
func fillPeriodicGhosts(f *field.PDFField) {
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	for z := -1; z < nz+1; z++ {
		for y := -1; y < ny+1; y++ {
			for x := -1; x < nx+1; x++ {
				if x >= 0 && x < nx && y >= 0 && y < ny && z >= 0 && z < nz {
					continue
				}
				sx, sy, sz := wrap(x, nx), wrap(y, ny), wrap(z, nz)
				for a := 0; a < f.Stencil.Q; a++ {
					f.Set(x, y, z, lattice.Direction(a), f.Get(sx, sy, sz, lattice.Direction(a)))
				}
			}
		}
	}
}

func TestKernelNamesAndLayouts(t *testing.T) {
	srt := collide.NewSRT(0.8)
	trt := collide.NewTRT(0.8, collide.MagicParameter)
	flags := field.NewFlagField(2, 2, 2, 1)
	cases := []struct {
		k      Kernel
		name   string
		layout field.Layout
	}{
		{NewGeneric(lattice.D3Q19(), srt), "SRT Generic", field.AoS},
		{NewGeneric(lattice.D3Q19(), trt), "TRT Generic", field.AoS},
		{NewD3Q19SRT(srt), "SRT D3Q19", field.AoS},
		{NewD3Q19TRT(trt), "TRT D3Q19", field.AoS},
		{NewSplitSRT(srt), "SRT SIMD", field.SoA},
		{NewSplitTRT(trt), "TRT SIMD", field.SoA},
		{NewSparseConditional(trt, nil), "TRT Conditional", field.AoS},
		{NewSparseCellList(trt, flags, nil), "TRT CellList", field.AoS},
		{NewSparseInterval(trt, flags, nil), "TRT Interval", field.SoA},
	}
	for _, c := range cases {
		if c.k.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.k.Name(), c.name)
		}
		if c.k.Layout() != c.layout {
			t.Errorf("%s: Layout = %v, want %v", c.name, c.k.Layout(), c.layout)
		}
	}
}

func TestFluidCellsHelper(t *testing.T) {
	if FluidCells(4, 5, 6, nil) != 120 {
		t.Error("dense FluidCells wrong")
	}
	fl := field.NewFlagField(4, 5, 6, 1)
	fl.FillInterior(field.Fluid)
	fl.Set(0, 0, 0, field.NoSlip)
	if FluidCells(4, 5, 6, fl) != 119 {
		t.Error("sparse FluidCells wrong")
	}
}

func TestKernelShapeChecks(t *testing.T) {
	srt := collide.NewSRT(0.8)
	k := NewD3Q19SRT(srt)
	src := field.NewPDFField(lattice.D3Q19(), 4, 4, 4, 1, field.AoS)
	wrongLayout := field.NewPDFField(lattice.D3Q19(), 4, 4, 4, 1, field.SoA)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("layout mismatch", func() { k.Sweep(src, wrongLayout, nil) })
	noGhost := field.NewPDFField(lattice.D3Q19(), 4, 4, 4, 0, field.AoS)
	mustPanic("no ghost layer", func() { k.Sweep(noGhost, noGhost.CopyShape(), nil) })
	shapeMismatch := field.NewPDFField(lattice.D3Q19(), 4, 4, 5, 1, field.AoS)
	mustPanic("shape mismatch", func() { k.Sweep(src, shapeMismatch, nil) })
	mustPanic("sparse without flags", func() {
		trt := collide.NewTRT(0.8, collide.MagicParameter)
		NewSparseConditional(trt, nil).Sweep(src, src.CopyShape(), nil)
	})
	// A row pulling from outside its direction's array panics before any
	// update: the AVX2 rows would read a neighboring direction's array, or
	// past the allocation, without complaint.
	soa := field.NewPDFField(lattice.D3Q19(), 8, 4, 4, 1, field.SoA)
	rows := newDirRows(soa, soa.CopyShape())
	var pulls rowPulls
	(&pullTable{}).bind(&pulls, soa, nil)
	v := pulls.at(0, 0)
	for _, rw := range []struct {
		name    string
		base, n int
	}{
		{"row from the first stored cell", 0, 8},
		{"row past the last line", soa.CellIndex(0, 3, 3), 16},
		{"row past the allocation", soa.CellIndex(0, 3, 3), 80},
	} {
		mustPanic("trt "+rw.name, func() { trtRow(&rows, v, rw.base, rw.n, -1, -1) })
		mustPanic("srt "+rw.name, func() { srtRow(&rows, v, rw.base, rw.n, 1, 0) })
	}
}

// TestSplitKernelSharedAcrossGoroutines sweeps ONE kernel value from two
// goroutines at once, on fields of different shapes — what the refined
// runtime does with the kernel of a level. Under the race detector it fails
// on any kernel state written during Sweep; without it, it still checks
// that the concurrent sweeps computed what a private kernel computes.
func TestSplitKernelSharedAcrossGoroutines(t *testing.T) {
	trt := collide.NewTRT(0.8, collide.MagicParameter)
	srt := collide.NewSRT(0.8)
	for _, c := range []struct {
		name string
		new  func() Kernel
	}{
		{"trt", func() Kernel { return NewSplitTRT(trt) }},
		{"srt", func() Kernel { return NewSplitSRT(srt) }},
	} {
		shared := c.new()
		// Fields are prepared first and the sweeps released together: the
		// race detector only sees accesses that are close in its history.
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g, n := range [][3]int{{6, 7, 8}, {9, 5, 4}} {
			r := rand.New(rand.NewSource(int64(g)))
			src := randomField(r, field.SoA, n[0], n[1], n[2])
			want, got := src.CopyShape(), src.CopyShape()
			c.new().Sweep(src, want, nil)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					shared.Sweep(src, got, nil)
				}
				if d := maxDiff(t, want, got, nil); d != 0 {
					t.Errorf("%s shape %v: shared kernel differs from a private one by %g", c.name, n, d)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestKernelsOnCroppedWindows: on fields that store only the bounding box
// of the fluid grown by one cell, every kernel built for that box computes
// bit for bit what it computes on whole-block fields, and meets fields of
// that box only.
func TestKernelsOnCroppedWindows(t *testing.T) {
	const nx, ny, nz = 9, 8, 7
	r := rand.New(rand.NewSource(23))
	trt := collide.NewTRT(0.8, collide.MagicParameter)
	flags := field.NewFlagField(nx, ny, nz, 1)
	flags.Fill(field.NoSlip)
	for z := 2; z < 5; z++ {
		for y := 4; y < ny; y++ { // up to the +y face: the window reaches into the ghost layer
			for x := 1; x < 4; x++ {
				if r.Float64() < 0.7 {
					flags.Set(x, y, z, field.Fluid)
				}
			}
		}
	}
	win := grown(flags.Bounds(field.Fluid), nx, ny, nz)
	if win.Cells() == 0 || win.Cells() >= field.FullWindow(nx, ny, nz, 1).Cells() {
		t.Fatalf("window %v does not crop the block", win)
	}
	rows := boxRows(nx, ny, nz, win)
	for _, rk := range rowKernels() {
		sweepRowStorage(t, "cropped window", rk, flags, rows, randomPDFs(r, rk.st, field.AoS, nx, ny, nz))
	}
	k := NewSparseCellList(trt, flags, rows)
	full := randomField(r, k.Layout(), nx, ny, nz)
	defer func() {
		if recover() == nil {
			t.Errorf("%s: swept a field of another window without complaint", k.Name())
		}
	}()
	k.Sweep(full, full.CopyShape(), flags)
}
