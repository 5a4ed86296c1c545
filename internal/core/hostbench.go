package core

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/kernels"
	"walberla/internal/lattice"
	"walberla/internal/sim"
)

// Host-machine kernel measurements: the counterpart of the paper's
// single-node study (Figure 3) executed on whatever machine this code
// runs on. Absolute numbers depend on the host; the claims under test are
// the *ranking* of the optimization stages and the saturation behavior
// with thread count, which the petascale projections then anchor to the
// published machine parameters.

// KernelBenchResult is one measured point of the host kernel study.
type KernelBenchResult struct {
	Kernel  string
	Threads int
	Cells   int
	Steps   int
	MLUPS   float64
}

// MeasureKernelMLUPS runs the given kernel on `threads` goroutines, each
// sweeping its own dense edge^3 block for `steps` iterations, and returns
// the aggregate million lattice cell updates per second. Communication is
// excluded, matching the paper's kernel-only measurement.
func MeasureKernelMLUPS(choice sim.KernelChoice, edge, threads, steps int) KernelBenchResult {
	if threads < 1 {
		threads = 1
	}
	if steps < 1 {
		steps = 1
	}
	type worker struct {
		k        kernels.Kernel
		src, dst *field.PDFField
	}
	workers := make([]worker, threads)
	for i := range workers {
		k, err := kernels.New(kernels.Spec{Choice: choice, Tau: 0.9})
		if err != nil {
			panic(err)
		}
		src := field.NewPDFField(lattice.D3Q19(), edge, edge, edge, 1, k.Layout())
		src.FillEquilibrium(1.0, 0.02, 0.01, -0.01)
		workers[i] = worker{k: k, src: src, dst: src.CopyShape()}
	}
	// Warm up once (page faults, cache fill).
	var wg sync.WaitGroup
	run := func(iters int) time.Duration {
		start := time.Now()
		for i := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					w.k.Sweep(w.src, w.dst, nil)
					field.Swap(w.src, w.dst)
				}
			}(&workers[i])
		}
		wg.Wait()
		return time.Since(start)
	}
	run(1)
	elapsed := run(steps)
	cells := edge * edge * edge
	mlups := float64(threads) * float64(cells) * float64(steps) / elapsed.Seconds() / 1e6
	return KernelBenchResult{
		Kernel:  string(choice),
		Threads: threads,
		Cells:   cells,
		Steps:   steps,
		MLUPS:   mlups,
	}
}

// SparseBenchResult is one measured point of the sparse-strategy ablation.
type SparseBenchResult struct {
	Strategy      string
	FluidFraction float64
	MFLUPS        float64
	MLUPS         float64 // counting all traversed cells
}

// MeasureSparseStrategies benchmarks the three sparse-block strategies of
// section 4.3 on a block with a synthetic tubular fluid pattern of
// approximately the given fill fraction, returning MFLUPS per strategy.
func MeasureSparseStrategies(edge int, fill float64, steps int, seed int64) []SparseBenchResult {
	flags := tubularFlags(edge, fill, seed)
	trt := collide.NewTRT(0.9, collide.MagicParameter)
	fluid := flags.Count(field.Fluid)
	strategies := []struct {
		name string
		k    kernels.Kernel
	}{
		{"conditional", kernels.NewSparseConditional(trt, nil)},
		{"celllist", kernels.NewSparseCellList(trt, flags, nil)},
		{"interval", kernels.NewSparseInterval(trt, flags, nil)},
	}
	var out []SparseBenchResult
	for _, s := range strategies {
		k := s.k
		src := field.NewPDFField(lattice.D3Q19(), edge, edge, edge, 1, k.Layout())
		src.FillEquilibrium(1.0, 0.01, 0, 0)
		dst := src.CopyShape()
		k.Sweep(src, dst, flags) // warm up
		start := time.Now()
		for it := 0; it < steps; it++ {
			k.Sweep(src, dst, flags)
			field.Swap(src, dst)
		}
		elapsed := time.Since(start).Seconds()
		out = append(out, SparseBenchResult{
			Strategy:      s.name,
			FluidFraction: flags.FluidFraction(),
			MFLUPS:        float64(fluid) * float64(steps) / elapsed / 1e6,
			MLUPS:         float64(edge*edge*edge) * float64(steps) / elapsed / 1e6,
		})
	}
	return out
}

// tubularFlags builds a flag pattern of axis-aligned tubes filling roughly
// the requested fraction — "few but consecutive fluid lattice cells" per
// line, the structure the interval strategy is designed for. Non-fluid
// cells are NoSlip where they border fluid (handled by the kernels'
// correctness tests; for throughput measurement the type only matters as
// not-Fluid).
func tubularFlags(edge int, fill float64, seed int64) *field.FlagField {
	flags := field.NewFlagField(edge, edge, edge, 1)
	flags.Fill(field.NoSlip)
	if fill >= 1 {
		flags.FillInterior(field.Fluid)
		return flags
	}
	r := rand.New(rand.NewSource(seed))
	target := int(fill * float64(edge*edge*edge))
	placed := 0
	for placed < target {
		// A random tube along x of random radius and length.
		radius := 1 + r.Intn(edge/6+1)
		cy := r.Intn(edge)
		cz := r.Intn(edge)
		x0 := r.Intn(edge)
		length := edge/2 + r.Intn(edge/2)
		for x := x0; x < x0+length && x < edge; x++ {
			for dy := -radius; dy <= radius; dy++ {
				for dz := -radius; dz <= radius; dz++ {
					if dy*dy+dz*dz > radius*radius {
						continue
					}
					y, z := cy+dy, cz+dz
					if y < 0 || y >= edge || z < 0 || z >= edge {
						continue
					}
					if flags.Get(x, y, z) != field.Fluid {
						flags.Set(x, y, z, field.Fluid)
						placed++
					}
				}
			}
		}
	}
	return flags
}

// MaxThreads returns the host parallelism used by the benchmark sweeps.
func MaxThreads() int { return runtime.GOMAXPROCS(0) }

// MeasureStreamBandwidth measures the host's sustainable memory bandwidth
// with a copy kernel over arrays far beyond cache size, in GiB/s — the
// paper's STREAM measurement, from which its roofline bound follows
// (attainable bandwidth divided by 456 B per cell update).
func MeasureStreamBandwidth(mib int, iters int) float64 {
	if mib < 8 {
		mib = 8
	}
	if iters < 1 {
		iters = 3
	}
	n := mib * 1024 * 1024 / 8
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
	}
	copy(b, a) // warm up and fault in
	best := 0.0
	for it := 0; it < iters; it++ {
		start := time.Now()
		copy(b, a)
		elapsed := time.Since(start).Seconds()
		// copy moves 2n*8 bytes (read + write), 3x with write-allocate;
		// STREAM convention counts read + write = 16 bytes per element.
		if bw := float64(16*n) / elapsed / (1 << 30); bw > best {
			best = bw
		}
	}
	return best
}

// HostRooflineMLUPS converts a measured host bandwidth into the LBM
// roofline bound, mirroring the paper's arithmetic for the local machine.
func HostRooflineMLUPS(bandwidthGiBs float64) float64 {
	return bandwidthGiBs * (1 << 30) / 456.0 / 1e6
}
