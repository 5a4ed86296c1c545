package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"walberla/internal/amr"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/kernels"
	"walberla/internal/lattice"
	"walberla/internal/scenario"
	"walberla/internal/serve"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

// The per-layer probes of the traced run. Every probe times public calls
// of one layer from outside and reads counters the layer already
// publishes; every rate is bracketed by reference slices and normalised
// like the end-to-end rate. None of them is gated.

// bytesPerLUPComputed is the D3Q19 traffic of one cell update computed
// from array sizes: 19 loads and 19 stores of 8 bytes, write-allocate
// not counted (the reference kernel's 16 B per element is counted the
// same way).
const bytesPerLUPComputed = 19 * 2 * 8

// normalised times fn between two reference slices and returns work per
// second rescaled to the reference host.
func normalised(k *refKernel, work float64, fn func()) float64 {
	h0 := k.slice()
	t0 := time.Now()
	fn()
	dt := time.Since(t0).Seconds()
	h1 := k.slice()
	return work / dt / ((h0.index + h1.index) / 2)
}

// medianOf repeats a measurement and returns its sample.
func medianOf(reps int, fn func() float64) sample {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return sampleOf(xs)
}

// amrStats snapshots the refined runtime's own accounting.
func amrStatsOf(rw *rankWorld) amr.Stats {
	if rw.ref == nil {
		return amr.Stats{}
	}
	return rw.ref.GetStats()
}

// sumRanks adds a per-rank value over the world.
func sumRanks(c *comm.Comm, v float64) float64 {
	return c.AllreduceFloat64(v, comm.Sum[float64])
}

// worldLayers reads the sim/amr/output layer metrics off the last timed world
// right after its timed region. Collective: every rank calls it; the
// result is complete on rank 0.
func worldLayers(rw *rankWorld, w *workload, tm *timed, before amr.Stats, bt *buildTimes, rec *recorder) map[string]sample {
	c := rw.c
	lead := c.Rank() == 0
	m := map[string]sample{}
	loop := sumRanks(c, tm.loopSec)
	share := func(d time.Duration) sample { return exact(sumRanks(c, d.Seconds()) / loop) }

	if rw.uni != nil {
		o := rw.uni.Overlap()
		m["sim.post_share"] = share(o.Post)
		m["sim.interior_share"] = share(o.Interior)
		m["sim.wait_share"] = share(o.Wait)
		m["sim.frontier_share"] = share(o.Frontier)
		m["sim.unattributed_share"] = exact(1 - sumRanks(c, (o.Post+o.Interior+o.Wait+o.Frontier).Seconds())/loop)
		m["sim.comm_fraction"] = share(o.Post + o.Wait)
		es := rw.uni.ExchangeStats()
		m["sim.msgs_per_step"] = exact(sumRanks(c, float64(es.MessagesPerStep)))
		m["sim.bytes_per_step"] = exact(sumRanks(c, float64(es.SendFloats*8)))
		m["sim.local_copies"] = exact(sumRanks(c, float64(es.LocalCopies)))
		_, hi, total := rw.uni.RankLoad()
		m["sim.load_imbalance"] = exact(float64(hi) * float64(c.Size()) / float64(total))
		m["setup.fluid_fraction"] = exact(float64(total) / sumRanks(c, float64(rw.uni.LocalCells())))
	} else {
		st := rw.ref.GetStats()
		var sweep, exch int64
		for l := range st.SweepNs {
			sweep += st.SweepNs[l] - before.SweepNs[l]
			exch += st.ExchangeNs[l] - before.ExchangeNs[l]
		}
		regrade := st.RegradeNs - before.RegradeNs
		migrate := st.MigrateNs - before.MigrateNs
		ns := func(v int64) float64 { return sumRanks(c, float64(v)/1e9) / loop }
		m["amr.sweep_share"] = exact(ns(sweep))
		m["amr.exchange_share"] = exact(ns(exch))
		m["amr.regrade_share"] = exact(ns(regrade + migrate))
		m["sim.comm_fraction"] = m["amr.exchange_share"]
		m["sim.unattributed_share"] = exact(1 - ns(sweep+exch+regrade+migrate))
		m["amr.migrate_ms"] = exact(float64(c.AllreduceInt64(migrate, comm.Max[int64])) / 1e6)
		m["amr.regrades"] = exact(float64(st.Regrades - before.Regrades))
		m["amr.migrated_leaves"] = exact(float64(st.Migrated - before.Migrated))
		for l, n := range rw.ref.LevelCounts() {
			m[fmt.Sprintf("amr.level%d_cells", l)] = exact(float64(int64(n) * rw.blockCells))
		}
		load := make([]float64, c.Size())
		for _, lf := range rw.ref.Leaves() {
			load[lf.Rank] += float64(int(1) << uint(lf.Level()))
		}
		m["sim.load_imbalance"] = exact(maxOverMean(load))
		m["setup.fluid_fraction"] = exact(1)
	}

	// Exact per-step counts: a short counted phase with no benchmark
	// traffic inside it. An empty phase first gives the allocations of
	// the bracketing barriers themselves.
	counted := func(steps int) (allocs, sends, bytes float64) {
		var m0, m1 runtime.MemStats
		c.Barrier()
		if lead {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		c.ResetStats()
		for i := 0; i < steps; i++ {
			rw.step()
		}
		st := c.Stats()
		c.Barrier()
		if lead {
			runtime.ReadMemStats(&m1)
		}
		return float64(m1.Mallocs - m0.Mallocs), sumRanks(c, float64(st.Sends)), sumRanks(c, float64(st.BytesSent))
	}
	sp := -1
	if lead {
		sp = rec.begin("probe.counted_steps", -1)
	}
	n := 2 * w.stepsPerEpoch
	idle, _, _ := counted(0)
	allocs, sends, bytes := counted(n)
	rec.end(sp)
	m["sim.allocs_per_step"] = exact(max(allocs-idle, 0) / float64(n))
	if rw.ref != nil {
		m["sim.msgs_per_step"] = exact(sends / float64(n))
		m["sim.bytes_per_step"] = exact(bytes / float64(n))
	}
	m["sim.new_ms"] = exact(bt.simNew * 1e3)

	// Checkpoint set write and restore of this world (diagnostic).
	if lead {
		sp = rec.begin("probe.checkpoint", -1)
	}
	dir := filepath.Join("out", "tmp", fmt.Sprintf("ckpt-%d", os.Getpid()))
	var wrote int64
	var err error
	c.Barrier()
	t0 := time.Now()
	if rw.ref != nil {
		wrote, err = rw.ref.WriteCheckpointSet(dir, rw.ref.Steps())
	} else {
		wrote, err = rw.uni.WriteCheckpointSet(dir, 1)
	}
	if err != nil {
		fatal(err)
	}
	c.Barrier()
	writeSec := time.Since(t0).Seconds()
	t0 = time.Now()
	if rw.ref != nil {
		_, err = rw.ref.RestoreLatestCheckpointSet(dir)
	} else {
		_, err = rw.uni.RestoreLatestCheckpointSet(dir)
	}
	if err != nil {
		fatal(err)
	}
	c.Barrier()
	restoreSec := time.Since(t0).Seconds()
	total := sumRanks(c, float64(wrote))
	if lead {
		if err := os.RemoveAll(dir); err != nil {
			fatal(err)
		}
		rec.end(sp)
		m["output.checkpoint_norm_mbs"] = exact(total / 1e6 / writeSec / median(hostIndexes(tm.host)))
		m["output.checkpoint_bytes"] = exact(total)
		m["output.restore_ms"] = exact(restoreSec * 1e3)
	}
	return m
}

// runProbes measures the layers that need no timed world: standalone
// kernels and field copies, the communicator, the serve daemon, and the
// comparison pairs (telemetry on/off, one worker/two, uniform-fine/
// refined, plain/resilient), each pair taking turns epoch by epoch.
func runProbes(w *workload, o runOpts, doc []byte, k *refKernel, rec *recorder, res *result) {
	m := res.Metrics
	probe := func(name string, fn func()) {
		sp := rec.begin("probe."+name, -1)
		fn()
		rec.end(sp)
	}
	// The standalone block of the kernel and field probes: 32^3 cells x 19
	// PDFs x 2 fields = 10 MB, beyond both L2s.
	reps, rounds, edge := 5, 8, 32
	if o.smoke {
		reps, rounds, edge = 2, 2, 8
	}
	st := lattice.D3Q19()

	// kernels: one kernel per family over a standalone block.
	kernelRate := func(choice kernels.Choice, flags *field.FlagField) sample {
		kern, err := kernels.New(kernels.Spec{Choice: choice, Stencil: st, Tau: 0.65, Flags: flags})
		if err != nil {
			fatal(err)
		}
		src := field.NewPDFField(st, edge, edge, edge, 1, kern.Layout())
		src.FillEquilibrium(1, 0.01, 0, 0)
		dst := src.CopyShape()
		dst.FillEquilibrium(1, 0.01, 0, 0)
		cells := float64(kernels.FluidCells(edge, edge, edge, flags))
		const sweeps = 6
		kern.Sweep(src, dst, flags) // warm-up: page in both fields
		return medianOf(reps, func() float64 {
			return normalised(k, cells*sweeps/1e6, func() {
				for i := 0; i < sweeps; i++ {
					kern.Sweep(src, dst, flags)
					src, dst = dst, src
				}
			})
		})
	}
	probe("kernels", func() {
		split := kernelRate(kernels.ChoiceSplitTRT, nil)
		m["kernels.split_norm_mlups"] = split
		m["kernels.generic_norm_mlups"] = kernelRate(kernels.ChoiceGenericTRT, nil)
		m["kernels.roofline_frac"] = exact(split.Value * 1e6 * bytesPerLUPComputed / (refCopyGBs * 1e9))
		m["kernels.bytes_per_lup_computed"] = exact(bytesPerLUPComputed)
		m["kernels.sparse_norm_mflups"] = kernelRate(kernels.ChoiceSparse, tubeFlags(edge))
	})

	// field: pack, unpack and copy of one face slab, all PDFs crossing it.
	probe("field", func() {
		f := field.NewPDFField(st, edge, edge, edge, 1, field.SoA)
		f.FillEquilibrium(1, 0, 0, 0)
		g := f.CopyShape()
		dirs := st.FaceDirections(lattice.FaceE)
		lo, hi := [3]int{edge - 1, 0, 0}, [3]int{edge, edge, edge}
		buf := make([]float64, edge*edge*len(dirs))
		const passes = 2000
		gb := float64(len(buf)) * 8 * passes / 1e9
		m["field.pack_norm_gbs"] = medianOf(reps, func() float64 {
			return normalised(k, 2*gb, func() {
				for i := 0; i < passes; i++ {
					f.PackRegion(buf, lo, hi, dirs)
					g.UnpackRegion(buf, [3]int{-1, 0, 0}, [3]int{0, edge, edge}, dirs)
				}
			})
		})
		m["field.copy_region_norm_gbs"] = medianOf(reps, func() float64 {
			return normalised(k, gb, func() {
				for i := 0; i < passes; i++ {
					field.CopyRegion(g, [3]int{-1, 0, 0}, f, lo, hi, dirs)
				}
			})
		})
	})

	probe("comm", func() { commProbes(k, o.smoke, m) })
	probe("serve", func() { serveProbes(o, m) })

	// telemetry: the program's own tracer and registry switched on
	// through Config, against the same world without them.
	probe("telemetry", func() {
		trace := telemetry.NewTrace()
		on := startWorld(doc, buildOpts{telemetryFor: func(rank, workers int) (*telemetry.Tracer, *telemetry.Registry) {
			return trace.NewTracer(rank, workers, 0), telemetry.NewRegistry()
		}}, w.warmSteps)
		off := startWorld(doc, buildOpts{}, w.warmSteps)
		a, b := alternate(on, off, k, rounds, w.stepsPerEpoch, w.stepsPerEpoch)
		on.stop()
		off.stop()
		m["telemetry.overhead_frac"] = sample{Value: 1 - median(a)/median(b), IQR: relIQR(b), N: len(a)}
	})

	if w.workers > 1 {
		// The plain single-threaded baseline: the same world on one worker.
		probe("worker_speedup", func() {
			one := startWorld(w.scenarioJSON(o.seed, shape{w.ranks, 1, w.network}, res.Steps, o.smoke), buildOpts{}, w.warmSteps)
			all := startWorld(doc, buildOpts{}, w.warmSteps)
			a, b := alternate(one, all, k, rounds, w.stepsPerEpoch, w.stepsPerEpoch)
			one.stop()
			all.stop()
			m["sim.worker_speedup_w2"] = sample{Value: median(b) / median(a), IQR: relIQR(b), N: len(b)}
		})
	}

	if w.amr() {
		probe("per_cell_gap", func() {
			scale := 1 << shearMaxLevel
			fine := startWorld(doc, buildOpts{uniformScale: scale}, 1)
			refined := startWorld(doc, buildOpts{}, w.warmSteps)
			// One coarse step of the fine world is 2^max_level of its own.
			fineRates, refRates := alternate(fine, refined, k, rounds, scale, w.stepsPerEpoch)
			fine.stop()
			refined.stop()
			m["amr.per_cell_gap"] = sample{Value: median(fineRates) / median(refRates), IQR: relIQR(refRates), N: len(refRates)}
		})
	}
	// resilience: buddy replication against the plain driver on the
	// socket world, then one crash healed with one spare. Moves no gated
	// metric today: no workload runs the resilient driver.
	if w.network == "unix" {
		probe("resilience", func() { resilienceProbes(w, o, doc, rounds, m) })
	}
	for _, name := range notApplicable {
		if _, ok := m[name]; !ok {
			m[name] = exact(0)
		}
	}
}

// notApplicable are the metrics that belong to one step runtime, one
// shape or one transport only; they read 0 on the other workloads.
var notApplicable = []string{
	"amr.regrade_share", "amr.migrate_ms", "amr.regrades", "amr.migrated_leaves",
	"amr.level0_cells", "amr.level1_cells", "amr.level2_cells", "amr.sweep_share", "amr.exchange_share",
	"amr.per_cell_gap",
	"sim.post_share", "sim.interior_share", "sim.wait_share", "sim.frontier_share", "sim.local_copies",
	"sim.worker_speedup_w2",
	"sim.replication_overhead_frac", "sim.heal_mttr_ms", "sim.recovery_disk_reads",
}

// tubeFlags marks a block whose fluid cells form a tube along z covering
// about 6 % of the cross-section — the fluid fraction of the tree
// workload's blocks — and solid wall elsewhere.
func tubeFlags(edge int) *field.FlagField {
	fl := field.NewFlagField(edge, edge, edge, 1)
	fl.Fill(field.NoSlip)
	c := float64(edge) / 2
	r2 := 0.06 * float64(edge*edge) / math.Pi
	for z := 0; z < edge; z++ {
		for y := 0; y < edge; y++ {
			for x := 0; x < edge; x++ {
				dx, dy := float64(x)+0.5-c, float64(y)+0.5-c
				if dx*dx+dy*dy < r2 {
					fl.Set(x, y, z, field.Fluid)
				}
			}
		}
	}
	return fl
}

// commProbes times the communicator alone: round trips of an 8-byte
// message in process and over unix sockets, 1 MiB sends over unix, and a
// scalar allreduce; net_resends must stay 0 on a healthy host.
func commProbes(k *refKernel, smoke bool, m map[string]sample) {
	n := 2000
	if smoke {
		n = 50
	}
	pingPong := func(opts comm.Options, floats, iters int) (sec float64, resent int64) {
		comm.RunWithOptions(2, opts, func(c *comm.Comm) {
			buf := make([]float64, floats)
			// Frames sent before the pair's connection is up are replayed by
			// design; the barrier brings it up, resends after it are faults.
			c.Barrier()
			up, _ := c.NetStats()
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					if err := c.SendFloat64s(1, 7, buf); err != nil {
						fatal(err)
					}
					if _, _, err := c.RecvFloat64sErr(1, 7); err != nil {
						fatal(err)
					}
				} else {
					if _, _, err := c.RecvFloat64sErr(0, 7); err != nil {
						fatal(err)
					}
					if err := c.SendFloat64s(0, 7, buf); err != nil {
						fatal(err)
					}
				}
			}
			dt := time.Since(t0).Seconds()
			ns, _ := c.NetStats()
			total := c.AllreduceInt64(ns.ResentFrames-up.ResentFrames, comm.Sum[int64])
			if c.Rank() == 0 {
				sec, resent = dt, total
			}
		})
		return sec, resent
	}
	unix := comm.Options{Net: &comm.NetOptions{Network: "unix"}}
	sec, _ := pingPong(comm.Options{}, 1, n)
	m["comm.inproc_rtt_us"] = exact(sec / float64(n) * 1e6)
	sec, resent := pingPong(unix, 1, n)
	m["comm.unix_rtt_us"] = exact(sec / float64(n) * 1e6)
	big := max(n/20, 10)
	var resentBig int64
	m["comm.unix_norm_gbs"] = exact(normalised(k, float64(big)*2*(1<<20)/1e9, func() {
		_, resentBig = pingPong(unix, 1<<20/8, big)
	}))
	m["comm.net_resends"] = exact(float64(resent + resentBig))
	comm.Run(2, func(c *comm.Comm) {
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.AllreduceFloat64(1, comm.Sum[float64])
		}
		if c.Rank() == 0 {
			m["comm.allreduce_us"] = exact(time.Since(t0).Seconds() / float64(n) * 1e6)
		}
	})
}

// serveDoc is the small fixed session the daemon probes create: the
// daemon's control-plane costs do not depend on the workload.
const serveDoc = `{"version": 1, "name": "bench-serve",
  "geometry": {"example": "cavity"}, "lattice": {}, "collision": {"tau": 0.65},
  "resolution": {"grid": [2, 1, 1], "cells_per_block": [8, 8, 8]},
  "physics": {"force": [0, 0, 0], "initial_velocity": [0, 0, 0]}, "refinement": {},
  "parallel": {"ranks": 2}, "transport": {}, "resilience": {}, "faults": {}, "telemetry": {},
  "run": {"steps": 1000000}}`

// serveProbes times session creation, a one-step batch through the
// daemon against a direct step of the same scenario, and the hash call.
func serveProbes(o runOpts, m map[string]sample) {
	n := 40
	if o.smoke {
		n = 5
	}
	dir := filepath.Join("out", "tmp", fmt.Sprintf("serve-%d", os.Getpid()))
	srv, err := serve.NewServer(serve.Config{DataDir: dir})
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	sc, err := scenario.Parse([]byte(serveDoc))
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	sess, err := srv.Create(sc, "bench")
	if err != nil {
		fatal(err)
	}
	m["serve.create_ms"] = exact(time.Since(t0).Seconds() * 1e3)
	through := medianOf(n, func() float64 {
		t0 := time.Now()
		if _, _, err := srv.Step(ctx, sess.ID, 1); err != nil {
			fatal(err)
		}
		return time.Since(t0).Seconds()
	})
	m["serve.hash_ms"] = medianOf(n, func() float64 {
		t0 := time.Now()
		if _, err := srv.Hash(ctx, sess.ID); err != nil {
			fatal(err)
		}
		return time.Since(t0).Seconds() * 1e3
	})
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		fatal(err)
	}
	direct := startWorld([]byte(serveDoc), buildOpts{}, 1)
	bare := medianOf(n, func() float64 { return direct.epoch(1).seconds })
	direct.stop()
	m["serve.step_overhead_us"] = sample{Value: (through.Value - bare.Value) * 1e6, IQR: through.IQR, N: n}
}

// resilienceProbes compares the buddy-replicating driver with the plain
// one on the same socket world, block by block in turn, and then runs the
// scenario once more with a crash at mid-run healed by one spare.
func resilienceProbes(w *workload, o runOpts, doc []byte, rounds int, m map[string]sample) {
	const every = 20
	block := 2 * every
	var plain, replicated []float64
	buildWorld(doc, buildOpts{}, func(rw *rankWorld, _ *buildTimes) {
		rc := sim.ResilienceConfig{CheckpointEvery: every, Mode: sim.RecoverShrink, MaxFailures: -1}
		for r := 0; r < rounds; r++ {
			for _, resilient := range []bool{false, true} {
				rw.c.Barrier()
				t0 := time.Now()
				var err error
				if resilient {
					_, err = rw.uni.RunResilient(block, rc)
				} else {
					_, err = rw.uni.Run(block)
				}
				if err != nil {
					fatal(err)
				}
				rw.c.Barrier()
				if rw.c.Rank() == 0 {
					if dt := time.Since(t0).Seconds(); resilient {
						replicated = append(replicated, dt)
					} else {
						plain = append(plain, dt)
					}
				}
			}
		}
	})
	m["sim.replication_overhead_frac"] = sample{Value: median(replicated)/median(plain) - 1, IQR: relIQR(plain), N: rounds}

	steps := 4 * every
	sc, err := scenario.Parse(w.scenarioJSON(o.seed, w.shape(), steps, o.smoke))
	if err != nil {
		fatal(err)
	}
	sc.Parallel.Spares = 1
	sc.Resilience.Mode, sc.Resilience.CheckpointEvery = "heal", every
	sc.Faults.Crashes = []scenario.FaultEvent{{Rank: 1, Step: steps/2 + 1}}
	out, err := scenario.Execute(context.Background(), sc, scenario.ExecuteOptions{})
	if err != nil {
		fatal(err)
	}
	rec := out.Metrics.Recovery
	if rec.Heals != 1 {
		fatal(fmt.Errorf("heal probe: %d heals, want 1", rec.Heals))
	}
	m["sim.heal_mttr_ms"] = exact(rec.TimeLost.Seconds() * 1e3 / float64(max(rec.Restores, 1)))
	m["sim.recovery_disk_reads"] = exact(float64(rec.DiskReadsDuringRecovery))
}

// reconcile appends a warning wherever two layers' numbers disagree: step
// time the phases do not account for, and a world whose per-thread rate
// beats the standalone kernel it runs.
func reconcile(res *result, threads int) {
	m := res.Metrics
	if u := m["sim.unattributed_share"].Value; u > 0.05 {
		res.Notes = append(res.Notes, fmt.Sprintf("WARN sim.unattributed_share %.3f > 0.05: the layer's phase timers do not add up to the step", u))
	}
	kernel := m["kernels.split_norm_mlups"].Value
	if res.Workload == "tree_sparse" {
		kernel = m["kernels.sparse_norm_mflups"].Value
	}
	if perThread := m["norm_mflups"].Value / float64(threads); perThread > kernel {
		res.Notes = append(res.Notes, fmt.Sprintf("WARN sim rate per thread %.2f above the kernels probe %.2f: the probe is not the ceiling it claims to be", perThread, kernel))
	}
}

// tracedMetrics assembles the traced run's report: the last timed world's own
// layer metrics, the standalone probes, the reconciliation warnings, the
// trace file and the self time by span name.
func tracedMetrics(w *workload, o runOpts, doc []byte, k *refKernel, rec *recorder, res *result, mr *mainRun, bt buildTimes) {
	tm, norm := &mr.tm, mr.norm
	for name, s := range mr.layers {
		res.Metrics[name] = s
	}
	res.Metrics["amr.cell_savings"] = exact(mr.savings)
	res.Metrics["amr.l2_error"] = exact(mr.shearErr)
	res.Metrics["sim.mflups_raw"] = sampleOf(tm.rawMFLUPS())
	stepMs := make([]float64, len(tm.stepSec))
	for i, s := range tm.stepSec {
		stepMs[i] = s * 1e3
	}
	res.Metrics["sim.step_ms_p50"] = sampleOf(stepMs)
	res.Metrics["sim.step_ms_p95"] = sample{Value: quantile(stepMs, 0.95), N: len(stepMs)}
	var tracedNorm, plainNorm []float64
	for i, v := range norm {
		if tm.traced[i] {
			tracedNorm = append(tracedNorm, v)
		} else {
			plainNorm = append(plainNorm, v)
		}
	}
	res.Metrics["bench.trace_overhead_frac"] = sample{Value: 1 - median(tracedNorm)/median(plainNorm), IQR: relIQR(plainNorm), N: len(tracedNorm)}
	res.Metrics["setup.build_forest_s"] = exact(bt.buildForest)
	res.Metrics["setup.blocks"] = exact(float64(bt.blocks))
	res.Metrics["blockforest.distribute_ms"] = exact(bt.distribute * 1e3)
	res.Metrics["partition.imbalance"] = exact(bt.imbalance)
	res.Metrics["scenario.parse_validate_us"] = exact(bt.parse * 1e6)
	runProbes(w, o, doc, k, rec, res)
	reconcile(res, w.ranks*w.workers)
	if err := os.MkdirAll("out", 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join("out", "trace-"+w.name+".json")
	if err := rec.writeChrome(path); err != nil {
		fatal(err)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("trace: %d spans written to %s; self time by span name:", len(rec.spans), path))
	self := selfByName(rec.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names {
		res.Notes = append(res.Notes, fmt.Sprintf("  self %-24s %9.3f s", name, self[name]))
	}
}
