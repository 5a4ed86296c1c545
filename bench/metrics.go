package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; bench_test.go holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share by which an end-to-end metric may worsen before a
	// change counts as a regression (per-layer metrics have none).
	Bound float64
}

// Units of host-normalised rates: the rate the layer would deliver on
// the reference host (measure.go).
const (
	unitNormMFLUPS = "MFLUP/s-ref"
	unitNormMLUPS  = "MLUP/s-ref"
	unitNormGBs    = "GB/s-ref"
	unitNormMBs    = "MB/s-ref"
)

// endToEnd are the gated metrics, the same three on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"norm_mflups", unitNormMFLUPS, "higher", 0.20},
	{"peak_rss_mb", "MiB", "lower", 0.05},
}

// perLayer are the diagnostics of the traced run, never gated. A metric
// that does not apply to a workload (amr.* on a uniform world, the
// worker-speedup probe on a one-worker shape) reads 0 there.
var perLayer = []metricDef{
	{"kernels.split_norm_mlups", unitNormMLUPS, "higher", 0},
	{"kernels.generic_norm_mlups", unitNormMLUPS, "higher", 0},
	{"kernels.roofline_frac", "ratio", "higher", 0},
	{"kernels.bytes_per_lup_computed", "B", "lower", 0},
	{"kernels.sparse_norm_mflups", unitNormMFLUPS, "higher", 0},
	{"field.pack_norm_gbs", unitNormGBs, "higher", 0},
	{"field.copy_region_norm_gbs", unitNormGBs, "higher", 0},
	{"sim.mflups_raw", "MFLUP/s", "higher", 0},
	{"sim.step_ms_p50", "ms", "lower", 0},
	{"sim.step_ms_p95", "ms", "lower", 0},
	{"sim.post_share", "ratio", "lower", 0},
	{"sim.interior_share", "ratio", "higher", 0},
	{"sim.wait_share", "ratio", "lower", 0},
	{"sim.frontier_share", "ratio", "higher", 0},
	{"sim.unattributed_share", "ratio", "lower", 0},
	{"sim.comm_fraction", "ratio", "lower", 0},
	{"sim.msgs_per_step", "count", "lower", 0},
	{"sim.bytes_per_step", "B", "lower", 0},
	{"sim.local_copies", "count", "lower", 0},
	{"sim.load_imbalance", "ratio", "lower", 0},
	{"sim.allocs_per_step", "count", "lower", 0},
	{"sim.new_ms", "ms", "lower", 0},
	{"sim.worker_speedup_w2", "ratio", "higher", 0},
	{"sim.replication_overhead_frac", "ratio", "lower", 0},
	{"sim.heal_mttr_ms", "ms", "lower", 0},
	{"sim.recovery_disk_reads", "count", "lower", 0},
	{"comm.inproc_rtt_us", "us", "lower", 0},
	{"comm.unix_rtt_us", "us", "lower", 0},
	{"comm.unix_norm_gbs", unitNormGBs, "higher", 0},
	{"comm.allreduce_us", "us", "lower", 0},
	{"comm.net_resends", "count", "lower", 0},
	{"setup.build_forest_s", "s", "lower", 0},
	{"setup.blocks", "count", "lower", 0},
	{"setup.fluid_fraction", "ratio", "higher", 0},
	{"blockforest.distribute_ms", "ms", "lower", 0},
	{"partition.imbalance", "ratio", "lower", 0},
	{"scenario.parse_validate_us", "us", "lower", 0},
	{"amr.regrade_share", "ratio", "lower", 0},
	{"amr.migrate_ms", "ms", "lower", 0},
	{"amr.regrades", "count", "lower", 0},
	{"amr.migrated_leaves", "count", "lower", 0},
	{"amr.level0_cells", "count", "lower", 0},
	{"amr.level1_cells", "count", "lower", 0},
	{"amr.level2_cells", "count", "lower", 0},
	{"amr.sweep_share", "ratio", "higher", 0},
	{"amr.exchange_share", "ratio", "lower", 0},
	{"amr.cell_savings", "ratio", "higher", 0},
	{"amr.l2_error", "lu", "lower", 0},
	{"amr.per_cell_gap", "ratio", "lower", 0},
	{"output.checkpoint_norm_mbs", unitNormMBs, "higher", 0},
	{"output.checkpoint_bytes", "B", "lower", 0},
	{"output.restore_ms", "ms", "lower", 0},
	{"serve.create_ms", "ms", "lower", 0},
	{"serve.step_overhead_us", "us", "lower", 0},
	{"serve.hash_ms", "ms", "lower", 0},
	{"telemetry.overhead_frac", "ratio", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

// sample is one measured metric: the reported value, the in-run spread
// (interquartile range over the median, 0 for exact counts and single
// shots) and the number of samples behind it.
type sample struct {
	Value float64
	IQR   float64
	N     int
}

// sampleOf reduces repeated measurements to their median.
func sampleOf(xs []float64) sample {
	return sample{Value: median(xs), IQR: relIQR(xs), N: len(xs)}
}

// exact is a count or a single-shot value.
func exact(v float64) sample { return sample{Value: v, N: 1} }
