package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// runOpts are the contract's four arguments plus the test sizing.
type runOpts struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	// writeGolden records the final field hash instead of checking it.
	writeGolden bool
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string
	Opts      runOpts
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]sample
	// Notes are the outcomes of the output checks and, in the traced run,
	// the reconciliation warnings between layers.
	Notes []string

	// Steps and Epochs are per world; the timed region is Worlds of them.
	Worlds, Steps, Epochs, Builds int
	// HostCopy and HostLBM are what the two reference kernels delivered
	// over the run's slices (GB/s, MLUP/s).
	HostCopy, HostLBM []float64
}

// mainRun is what the ranks of the timed worlds hand back: the epochs of
// all worlds in order, every world's final hash, and the state of the
// last world.
type mainRun struct {
	tm       timed
	norm     []float64 // host-normalised rate per epoch
	hashes   []uint64
	rssMiB   float64
	shearErr float64
	savings  float64 // refined world: uniform-fine cells over its own
	layers   map[string]sample
}

// runWorkload executes one workload end to end: the timed region, spread
// over several cold builds of the same world, the output checks, the
// bare builds that complete the set-up sample, and in the traced run the
// per-layer probes.
func runWorkload(w *workload, o runOpts) *result {
	threads := w.ranks * w.workers
	if runtime.NumCPU() < threads {
		fatal(fmt.Errorf("%s needs %d CPUs (ranks x workers), this host has %d: refusing to emit an oversubscribed number",
			w.name, threads, runtime.NumCPU()))
	}
	var rec *recorder
	traceEvery := 0
	if o.trace {
		// Every second epoch of the traced run records per-step spans.
		rec = newRecorder(w.name)
		traceEvery = 2
	}
	worlds, epochs := sizing(o)
	refMiB, refEdge := refCopyMiB, refLBMEdge
	if o.smoke {
		refMiB, refEdge = 2, 8
	}
	steps := w.warmSteps + epochs*w.stepsPerEpoch
	doc := w.scenarioJSON(o.seed, w.shape(), steps, o.smoke)

	res := &result{Workload: w.name, Opts: o, Metrics: map[string]sample{}, Worlds: worlds, Steps: steps, Epochs: epochs}
	var (
		mr      mainRun
		k       *refKernel
		builds  []buildTimes
		baseRSS float64
	)
	for i := 0; i < worlds; i++ {
		last := i == worlds-1
		// Fresh pages for the world and for the reference kernels: the
		// previous ones go back to the operating system first.
		k = nil
		debug.FreeOSMemory()
		k = newRefKernel(refMiB, refEdge, threads)
		if i == 0 {
			baseRSS = peakRSSMiB()
		}
		builds = append(builds, buildWorld(doc, buildOpts{rec: rec}, func(rw *rankWorld, bt *buildTimes) {
			lead := rw.c.Rank() == 0
			sp := -1
			if lead {
				sp = rec.begin("warmup", -1)
			}
			for i := 0; i < w.warmSteps; i++ {
				rw.step()
			}
			rec.end(sp)
			if rw.uni != nil {
				rw.uni.ResetTimers()
			}
			before := amrStatsOf(rw)
			sp = -1
			if lead {
				sp = rec.begin("timed_region", -1)
			}
			tm := runEpochs(rw, k, epochs, w.stepsPerEpoch, traceEvery, rec, sp)
			rec.end(sp)
			if lead && last {
				// The memory high-water mark is read before anything else
				// is built: it is the cost of holding one world.
				mr.rssMiB = peakRSSMiB() - baseRSS
			}
			h := rw.hash()
			if lead {
				mr.tm.append(tm)
				mr.norm = append(mr.norm, tm.normMFLUPS()...)
				mr.hashes = append(mr.hashes, h)
			}
			if !last {
				return
			}
			if rw.ref != nil {
				serr := shearError(rw)
				if lead {
					mr.shearErr = serr
					mr.savings = float64(rw.fineCells) / float64(rw.ref.TotalCells())
				}
			}
			if o.trace {
				layers := worldLayers(rw, w, tm, before, bt, rec)
				if lead {
					mr.layers = layers
				}
			}
		}))
	}
	for _, h := range mr.tm.host {
		res.HostCopy = append(res.HostCopy, h.copyGBs)
		res.HostLBM = append(res.HostLBM, h.lbmMLUPS)
	}
	builds = append(builds, checkOutputs(w, o, doc, &mr, res))

	// setup_s: the fastest of a fixed number of cold builds, every one on
	// pages returned to the operating system before it (and outside its
	// timing), as the first build of a process finds them. On a shared
	// host interference only ever adds time: the floor repeats, the
	// quartiles measure the neighbours.
	for len(builds) < w.builds && !o.smoke {
		debug.FreeOSMemory()
		builds = append(builds, buildWorld(doc, buildOpts{}, func(*rankWorld, *buildTimes) {}))
	}
	res.Builds = len(builds)
	setups := make([]float64, len(builds))
	for i, b := range builds {
		setups[i] = b.total
	}

	res.Metrics["setup_s"] = sample{Value: quantile(setups, 0), IQR: relIQR(setups), N: len(setups)}
	res.Metrics["norm_mflups"] = sampleOf(mr.norm)
	res.Metrics["peak_rss_mb"] = exact(mr.rssMiB)

	if o.trace {
		tracedMetrics(w, o, doc, k, rec, res, &mr, builds[worlds-1])
	}
	return res
}

// liveWorld keeps a built world parked between commands so that two
// worlds can take turns epoch by epoch — the only fair way to compare
// them on a host whose speed drifts. The ranks block in a broadcast while
// parked and burn no CPU.
type liveWorld struct {
	cmd  chan int // steps to run; 0 ends the world
	done chan epochResult
	fin  chan struct{}
	bt   buildTimes
}

type epochResult struct {
	seconds float64
	updates float64
}

// startWorld builds the world on background goroutines and returns once
// it is steppable and warmed up.
func startWorld(doc []byte, o buildOpts, warm int) *liveWorld {
	lw := &liveWorld{cmd: make(chan int), done: make(chan epochResult), fin: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(lw.fin)
		lw.bt = buildWorld(doc, o, func(rw *rankWorld, _ *buildTimes) {
			lead := rw.c.Rank() == 0
			for i := 0; i < warm; i++ {
				rw.step()
			}
			rw.c.Barrier()
			if lead {
				close(ready)
			}
			for {
				n := 0
				if lead {
					n = <-lw.cmd
				}
				v, err := rw.c.BcastErr(0, n)
				if err != nil {
					fatal(err)
				}
				if n = v.(int); n == 0 {
					return
				}
				var upd int64
				rw.c.Barrier()
				t0 := time.Now()
				for i := 0; i < n; i++ {
					rw.step()
					upd += rw.updates()
				}
				rw.c.Barrier()
				if lead {
					lw.done <- epochResult{time.Since(t0).Seconds(), float64(upd)}
				}
			}
		})
	}()
	<-ready
	return lw
}

// epoch runs n steps and reports their wall time and updates.
func (lw *liveWorld) epoch(n int) epochResult {
	lw.cmd <- n
	return <-lw.done
}

// stop ends the world and waits for its ranks.
func (lw *liveWorld) stop() {
	lw.cmd <- 0
	<-lw.fin
}

// alternate runs rounds epochs on each world in turn (stepsA and stepsB
// steps long), a reference slice before every epoch and after the last,
// and returns each world's host-normalised update rates (millions per
// second).
func alternate(a, b *liveWorld, k *refKernel, rounds, stepsA, stepsB int) (normA, normB []float64) {
	var rates, index []float64
	index = append(index, k.slice().index)
	for r := 0; r < rounds; r++ {
		for i, lw := range []*liveWorld{a, b} {
			e := lw.epoch([]int{stepsA, stepsB}[i])
			rates = append(rates, e.updates/e.seconds/1e6)
			index = append(index, k.slice().index)
		}
	}
	norm := normalizeEpochs(rates, index)
	for i, v := range norm {
		if i%2 == 0 {
			normA = append(normA, v)
		} else {
			normB = append(normB, v)
		}
	}
	return normA, normB
}
