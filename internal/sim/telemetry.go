package sim

import (
	"walberla/internal/perfmodel"
	"walberla/internal/telemetry"
)

// Telemetry wiring of the step pipeline (see docs/TELEMETRY.md). A
// simulation configured with Config.Tracer/Config.Metrics records:
//
//   - driver-lane spans for the four split-phase step phases plus the
//     whole step, checkpointing, buddy replication and the recovery
//     timeline;
//   - worker-lane spans for each block's boundary handling and
//     collide-stream sweep and for every pack/unpack/local-copy task —
//     the per-worker utilization the load-imbalance factor is computed
//     from;
//   - registry counters for per-phase nanoseconds, and gauges for
//     mailbox occupancy, worker imbalance, the same-rank exchange volume
//     (values moved per step, copies and values the need-mask elided) and
//     the PDF field footprint (cells the allocation windows store against
//     cells of the ghosted blocks). Checkpoint/replica bytes, failures
//     and the recovery gauges are the recovery driver's
//     (internal/resilience), which records into the same registry.
//
// All handles are pre-resolved at construction and nil-safe, so an
// untraced simulation pays one branch per recording site and a traced
// steady-state Step() still performs zero heap allocations
// (TestStepZeroAllocTraced).

// simTel bundles the pre-resolved telemetry handles of one rank.
type simTel struct {
	tracer *telemetry.Tracer
	driver *telemetry.Lane

	postNs     *telemetry.Counter
	interiorNs *telemetry.Counter
	waitNs     *telemetry.Counter
	frontierNs *telemetry.Counter
	boundaryNs *telemetry.Counter
	collideNs  *telemetry.Counter
	steps      *telemetry.Counter

	imbalance   *telemetry.Gauge
	mboxPending *telemetry.Gauge
	mboxHigh    *telemetry.Gauge

	localFloats        *telemetry.Gauge
	localCopiesElided  *telemetry.Gauge
	localFloatsElided  *telemetry.Gauge
	localFloatsAliased *telemetry.Gauge
	remoteFloatsElided *telemetry.Gauge

	fieldAllocated *telemetry.Gauge
	fieldBlock     *telemetry.Gauge
}

// resolveSimTel registers the simulation's metrics and caches the lane
// handles. Both arguments may be nil (the respective half stays
// disabled).
func resolveSimTel(tr *telemetry.Tracer, reg *telemetry.Registry) simTel {
	return simTel{
		tracer:      tr,
		driver:      tr.Driver(),
		postNs:      reg.Counter("sim.phase.exchange_post_ns"),
		interiorNs:  reg.Counter("sim.phase.interior_sweep_ns"),
		waitNs:      reg.Counter("sim.phase.exchange_wait_ns"),
		frontierNs:  reg.Counter("sim.phase.frontier_sweep_ns"),
		boundaryNs:  reg.Counter("sim.phase.boundary_ns"),
		collideNs:   reg.Counter("sim.phase.collide_stream_ns"),
		steps:       reg.Counter("sim.steps"),
		imbalance:   reg.Gauge("sim.load_imbalance"),
		mboxPending: reg.Gauge("comm.mailbox_pending"),
		mboxHigh:    reg.Gauge("comm.mailbox_high_water"),

		localFloats:        reg.Gauge("sim.exchange.local_floats"),
		localCopiesElided:  reg.Gauge("sim.exchange.local_copies_elided"),
		localFloatsElided:  reg.Gauge("sim.exchange.local_floats_elided"),
		localFloatsAliased: reg.Gauge("sim.exchange.local_floats_aliased"),
		remoteFloatsElided: reg.Gauge("sim.exchange.remote_floats_elided"),

		fieldAllocated: reg.Gauge("sim.field.allocated_cells"),
		fieldBlock:     reg.Gauge("sim.field.block_cells"),
	}
}

// worker returns the span lane of the given pool worker (nil when
// untraced).
func (t *simTel) worker(k int) *telemetry.Lane { return t.tracer.Worker(k) }

// publishGauges refreshes the slow-moving gauges; called from metric
// gathering, not the per-step hot path.
func (s *Simulation) publishGauges() {
	t := &s.tel
	if t.tracer != nil {
		t.imbalance.Set(t.tracer.LoadImbalance())
	}
	mb := s.Comm.MailboxStats()
	t.mboxPending.Set(float64(mb.Pending))
	t.mboxHigh.Set(float64(mb.HighWater))
	es := s.ExchangeStats()
	t.localFloats.Set(float64(es.LocalFloats))
	t.localCopiesElided.Set(float64(es.LocalCopiesElided))
	t.localFloatsElided.Set(float64(es.LocalFloatsElided))
	t.localFloatsAliased.Set(float64(es.LocalFloatsAliased))
	t.remoteFloatsElided.Set(float64(es.RemoteFloatsElided))
	allocated, block := s.FieldCells()
	t.fieldAllocated.Set(float64(allocated))
	t.fieldBlock.Set(float64(block))
}

// Tracer returns the tracer the simulation records into (nil when
// untraced).
func (s *Simulation) Tracer() *telemetry.Tracer { return s.tel.tracer }

// PhaseBreakdown returns this rank's accumulated wall-clock phase times
// since the last timer reset, keyed by the telemetry exporter's phase
// names.
func (s *Simulation) PhaseBreakdown() map[string]float64 {
	o := s.Overlap()
	return map[string]float64{
		telemetry.PhaseExchangePost.String():  o.Post.Seconds(),
		telemetry.PhaseInteriorSweep.String(): o.Interior.Seconds(),
		telemetry.PhaseExchangeWait.String():  o.Wait.Seconds(),
		telemetry.PhaseFrontierSweep.String(): o.Frontier.Seconds(),
	}
}

// modelClasses maps the configured kernel onto the perfmodel taxonomy.
// KernelAuto is resolved as a dense block would be — the hot path the
// models predict.
func (c *Config) modelClasses() (perfmodel.KernelClass, perfmodel.CollisionClass) {
	kc := c.Kernel
	if kc == KernelAuto {
		kc = c.resolveKernel(1.0)
	}
	k := perfmodel.KernelGeneric
	switch kc {
	case KernelD3Q19SRT, KernelD3Q19TRT:
		k = perfmodel.KernelD3Q19
	case KernelSplitSRT, KernelSplitTRT, KernelSparse:
		k = perfmodel.KernelSIMD
	}
	coll := perfmodel.CollisionSRT
	switch kc {
	case KernelGenericTRT, KernelD3Q19TRT, KernelSplitTRT, KernelSparse:
		coll = perfmodel.CollisionTRT
	}
	return k, coll
}

// RooflineReport builds the live measured-vs-model comparison of this
// rank's run since the last timer reset: per-phase wall times and MLUPS
// from the step-loop timers against the perfmodel kernel prediction and
// bandwidth ceiling for the given machine (nil selects the SuperMUC
// socket model). The kernel time is the per-block boundary+sweep CPU
// time summed over workers, divided by the worker count — the wall-clock
// kernel time the ECM/roofline models predict.
func (s *Simulation) RooflineReport(machine *perfmodel.Machine) telemetry.RooflineReport {
	k, coll := s.Config.modelClasses()
	o := s.Overlap()
	wall := (o.Post + o.Interior + o.Wait + o.Frontier).Seconds()
	workers := s.pool.workers
	if workers < 1 {
		workers = 1
	}
	kernelSec := (s.boundaryTime + s.computeTime).Seconds() / float64(workers)
	return telemetry.BuildRooflineReport(telemetry.RooflineInput{
		FluidUpdates:       float64(s.LocalFluidCells()) * float64(s.steps),
		WallSeconds:        wall,
		KernelSeconds:      kernelSec,
		PhaseSecondsByName: s.PhaseBreakdown(),
		Machine:            machine,
		Kernel:             k,
		Collision:          coll,
		Cores:              workers,
		SMTWays:            1,
		LoadImbalance:      s.tel.tracer.LoadImbalance(),
	})
}

// subStepPhases records one completed level sub-step's phase counters
// and spans, whose Arg is the level. Durations are the already-measured
// phase times of the sub-step, so untraced runs take no extra clock reads
// here.
func (t *simTel) subStepPhases(step, level int, start int64, o OverlapTimes) {
	t.postNs.Add(int64(o.Post))
	t.interiorNs.Add(int64(o.Interior))
	t.waitNs.Add(int64(o.Wait))
	t.frontierNs.Add(int64(o.Frontier))
	d := t.driver
	if d == nil {
		return
	}
	// Reconstruct the phase boundaries from the sub-step start and the
	// measured durations instead of stamping each one live — same data,
	// fewer clock reads.
	at, arg := start, int32(level)
	d.SpanAt(telemetry.PhaseExchangePost, step, arg, at, at+int64(o.Post))
	at += int64(o.Post)
	d.SpanAt(telemetry.PhaseInteriorSweep, step, arg, at, at+int64(o.Interior))
	at += int64(o.Interior)
	d.SpanAt(telemetry.PhaseExchangeWait, step, arg, at, at+int64(o.Wait))
	at += int64(o.Wait)
	d.SpanAt(telemetry.PhaseFrontierSweep, step, arg, at, at+int64(o.Frontier))
}
