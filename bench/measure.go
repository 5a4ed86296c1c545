package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference host. Every rate the benchmark gates is quoted for a
// machine on which the two frozen reference kernels below run at exactly
// these speeds; a run measures what its own host delivers in a slice
// before and after every epoch and rescales the epoch by the ratio.
const (
	refCopyGBs  = 10.0 // copy kernel, computed bytes
	refLBMMLUPS = 5.0  // lattice kernel, all threads together
)

// Work of one reference slice. With 64 MiB of copy arrays a slice moves
// 256 MiB (computed), about 15 ms at 17 GB/s; two sweeps over a 32^3
// block per thread take about as long. Frozen together with the kernels.
const (
	refCopyMiB    = 64
	refCopyPasses = 4
	refLBMSweeps  = 2
	refLBMEdge    = 32
)

// refKernel holds the two frozen reference kernels that measure what the
// host delivers right now: the copy kernel follows the memory system, the
// lattice kernel the mix of arithmetic and strided streams a
// stream-collide sweep has. The host index is their geometric mean, the
// same for every workload (README.md, "Host baseline", has the
// measurements). They must never be optimised: every normalised rate is a
// ratio against them.
type refKernel struct {
	a, b    []float64
	threads int
	edge    int
	// src and dst are one D3Q19 block per thread, direction-major, with a
	// ghost layer that is never refreshed.
	src, dst [][19][]float64
}

func newRefKernel(copyMiB, lbmEdge, threads int) *refKernel {
	n := copyMiB << 20 / 16
	k := &refKernel{a: make([]float64, n), b: make([]float64, n), threads: threads, edge: lbmEdge}
	for i := range k.b {
		k.a[i], k.b[i] = 1, float64(i&1023)
	}
	side := lbmEdge + 2
	for t := 0; t < threads; t++ {
		var src, dst [19][]float64
		for q := range src {
			src[q] = make([]float64, side*side*side)
			dst[q] = make([]float64, side*side*side)
			for i := range src[q] {
				src[q][i], dst[q][i] = refWeights[q], refWeights[q]
			}
		}
		k.src, k.dst = append(k.src, src), append(k.dst, dst)
	}
	return k
}

// hostSample is one reference slice: what each kernel delivered, and the
// host's speed relative to the reference host that follows from it.
type hostSample struct {
	copyGBs  float64
	lbmMLUPS float64
	index    float64
}

// hostIndex is the geometric mean of the two kernels' speeds relative to
// the reference host.
func hostIndex(copyGBs, lbmMLUPS float64) float64 {
	return math.Sqrt(copyGBs / refCopyGBs * lbmMLUPS / refLBMMLUPS)
}

// slice runs one reference slice: the copy kernel, then the lattice
// kernel, each on all threads at once.
func (k *refKernel) slice() hostSample {
	n := len(k.a)
	t0 := time.Now()
	k.onThreads(func(t int) {
		a, b := k.a[n*t/k.threads:n*(t+1)/k.threads], k.b[n*t/k.threads:n*(t+1)/k.threads]
		for p := 0; p < refCopyPasses; p++ {
			s, c := 1.0000001, float64(p)
			for i := range a {
				a[i] = s*b[i] + c
			}
		}
	})
	t1 := time.Now()
	k.onThreads(func(t int) { refLBMSweep(&k.src[t], &k.dst[t], k.edge, refLBMSweeps) })
	// 16 computed bytes per element and pass: one load, one store.
	copyGBs := float64(n) * 16 * refCopyPasses / t1.Sub(t0).Seconds() / 1e9
	lbmMLUPS := float64(k.threads*k.edge*k.edge*k.edge*refLBMSweeps) / time.Since(t1).Seconds() / 1e6
	return hostSample{copyGBs, lbmMLUPS, hostIndex(copyGBs, lbmMLUPS)}
}

func (k *refKernel) onThreads(fn func(t int)) {
	var wg sync.WaitGroup
	for t := 0; t < k.threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			fn(t)
		}(t)
	}
	wg.Wait()
}

// The frozen lattice kernel: a textbook D3Q19 single-relaxation-time
// stream-pull update in plain Go, written once for this benchmark and
// shared with nothing in the program.
var refVelocities = [19][3]int{{0, 0, 0}, {1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
	{1, 1, 0}, {-1, -1, 0}, {1, -1, 0}, {-1, 1, 0}, {1, 0, 1}, {-1, 0, -1}, {1, 0, -1}, {-1, 0, 1},
	{0, 1, 1}, {0, -1, -1}, {0, 1, -1}, {0, -1, 1}}

var refWeights = [19]float64{1. / 3, 1. / 18, 1. / 18, 1. / 18, 1. / 18, 1. / 18, 1. / 18,
	1. / 36, 1. / 36, 1. / 36, 1. / 36, 1. / 36, 1. / 36, 1. / 36, 1. / 36, 1. / 36, 1. / 36, 1. / 36, 1. / 36}

func refLBMSweep(src, dst *[19][]float64, n, sweeps int) {
	side := n + 2
	var off [19]int
	for q, e := range refVelocities {
		off[q] = e[0] + side*(e[1]+side*e[2])
	}
	for s := 0; s < sweeps; s++ {
		for z := 1; z <= n; z++ {
			for y := 1; y <= n; y++ {
				base := side * (y + side*z)
				for x := 1; x <= n; x++ {
					i := base + x
					var f [19]float64
					var rho, ux, uy, uz float64
					for q := range f {
						v := src[q][i-off[q]]
						f[q] = v
						rho += v
						ux += v * float64(refVelocities[q][0])
						uy += v * float64(refVelocities[q][1])
						uz += v * float64(refVelocities[q][2])
					}
					ux, uy, uz = ux/rho, uy/rho, uz/rho
					usq := 1.5 * (ux*ux + uy*uy + uz*uz)
					for q := range f {
						e := refVelocities[q]
						cu := 3 * (ux*float64(e[0]) + uy*float64(e[1]) + uz*float64(e[2]))
						feq := refWeights[q] * rho * (1 + cu + 0.5*cu*cu - usq)
						dst[q][i] = f[q] - 1.2*(f[q]-feq)
					}
				}
			}
		}
		src, dst = dst, src
	}
}

// timed is what rank 0 collects over the timed region.
type timed struct {
	epochSec []float64    // wall seconds per epoch
	updates  []float64    // fluid-cell updates per epoch
	host     []hostSample // reference slices, one more than epochs
	stepSec  []float64    // per-step seconds of the traced epochs
	traced   []bool       // which epochs recorded per-step spans
	// loopSec is this rank's own time inside its step loops, barriers
	// excluded: the base of the layer shares (kept on every rank).
	loopSec float64
}

// runEpochs runs the timed region on one rank: every epoch is a fixed
// number of steps between two barriers, and rank 0 runs a reference
// slice before the first epoch and after every one while its peers wait
// at the next barrier. traceEvery > 0 records a span and a duration per
// step in every traceEvery-th epoch (the traced run alternates so that
// the cost of tracing is measured inside one run).
func runEpochs(w *rankWorld, k *refKernel, epochs, stepsPerEpoch, traceEvery int, rec *recorder, parent int) *timed {
	lead := w.c.Rank() == 0
	tm := &timed{}
	calibrate := func() {
		if !lead {
			return
		}
		sp := rec.begin("calibrate", parent)
		tm.host = append(tm.host, k.slice())
		rec.end(sp)
	}
	w.c.Barrier()
	calibrate()
	for e := 0; e < epochs; e++ {
		tracedEpoch := lead && traceEvery > 0 && e%traceEvery == 0
		var n int64
		w.c.Barrier()
		esp := -1
		if lead {
			esp = rec.begin("epoch", parent)
		}
		t0 := time.Now()
		for i := 0; i < stepsPerEpoch; i++ {
			if tracedEpoch {
				ssp := rec.begin("step", esp)
				ts := time.Now()
				w.step()
				tm.stepSec = append(tm.stepSec, time.Since(ts).Seconds())
				rec.end(ssp)
			} else {
				w.step()
			}
			n += w.updates()
		}
		tm.loopSec += time.Since(t0).Seconds()
		w.c.Barrier()
		if lead {
			tm.epochSec = append(tm.epochSec, time.Since(t0).Seconds())
			tm.updates = append(tm.updates, float64(n))
			tm.traced = append(tm.traced, tracedEpoch)
			rec.end(esp)
		}
		calibrate()
	}
	return tm
}

// append adds the epochs of the next world.
func (tm *timed) append(next *timed) {
	tm.epochSec = append(tm.epochSec, next.epochSec...)
	tm.updates = append(tm.updates, next.updates...)
	tm.host = append(tm.host, next.host...)
	tm.stepSec = append(tm.stepSec, next.stepSec...)
	tm.traced = append(tm.traced, next.traced...)
	tm.loopSec += next.loopSec
}

// rawMFLUPS is the per-epoch raw rate, millions of fluid-cell updates per
// second.
func (tm *timed) rawMFLUPS() []float64 {
	out := make([]float64, len(tm.epochSec))
	for i, s := range tm.epochSec {
		out[i] = tm.updates[i] / s / 1e6
	}
	return out
}

// normMFLUPS is the per-epoch host-normalised rate.
func (tm *timed) normMFLUPS() []float64 {
	return normalizeEpochs(tm.rawMFLUPS(), hostIndexes(tm.host))
}

func hostIndexes(hs []hostSample) []float64 {
	out := make([]float64, len(hs))
	for i, h := range hs {
		out[i] = h.index
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				fatal(fmt.Errorf("VmHWM: %w", err))
			}
			return kb / 1024
		}
	}
	fatal(fmt.Errorf("no VmHWM in /proc/self/status"))
	return 0
}
