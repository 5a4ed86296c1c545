// Command walberla-sim runs a distributed flow simulation. What to run
// comes from a scenario file (-scenario, see docs/SERVE.md) whose fields
// explicitly set flags override, or from flags alone: a geometry (-tree
// or -mesh) and a block structure loaded from a blockgen file (-blocks)
// or built on the fly (-dx). Either way the merged description is
// validated once and becomes one core.Problem.Execute call, the launcher
// every front end shares (single reader, broadcast, per-rank voxelization,
// time loop — plain or fault-tolerant, balanced every -rebalance steps
// either way). The run reports
// MLUPS/MFLUPS, the field hash, recovery and roofline summaries, and
// optionally writes VTK output, checkpoint sets and telemetry; -resume
// continues from the newest usable checkpoint set.
//
// Usage:
//
//	walberla-sim -tree -dx 0.006 -cells 16 -ranks 4 -steps 200 -vtk out/
//	walberla-sim -blocks tree.wbf -tree -ranks 8 -steps 500 -kernel "TRT Interval"
//	walberla-sim -scenario cavity.json -steps 50 -inject-fault crash=1@20
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"walberla/internal/blockforest"
	"walberla/internal/core"
	"walberla/internal/distance"
	"walberla/internal/kernels"
	"walberla/internal/mesh"
	"walberla/internal/output"
	"walberla/internal/perfmodel"
	"walberla/internal/scenario"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

func main() {
	// SIGINT/SIGTERM cancel the run at the next step boundary on every
	// rank (in-flight checkpoint sets always commit first); output and
	// telemetry are still written from the consistent interrupted state.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stopSignals()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "walberla-sim:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, merge them with the scenario,
// validate, execute, report on stdout. No rank goroutine can exit the
// process — every failure comes back as the returned error.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("walberla-sim", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "scenario JSON file (see docs/SERVE.md); explicitly set flags override its fields")

		blocksPath = fs.String("blocks", "", "block structure file from blockgen (optional)")
		meshPath   = fs.String("mesh", "", "colored mesh file (WBM1)")
		useTree    = fs.Bool("tree", false, "use the built-in synthetic coronary tree")
		treeDepth  = fs.Int("tree-depth", 3, "bifurcation depth of the synthetic tree")
		seed       = fs.Int64("seed", 1, "generation/balancing seed")
		cells      = fs.Int("cells", 16, "cells per block edge (when building the forest here)")
		dx         = fs.Float64("dx", 0, "lattice spacing (when building the forest here)")
		ranks      = fs.Int("ranks", 4, "number of SPMD ranks")
		spares     = fs.Int("spares", 0, "spare ranks parked beside the active world for heal-mode recovery: a failure recruits one, its buddy streams the dead rank's state over, and the run resumes at full size (-recover-mode heal)")
		steps      = fs.Int("steps", 200, "time steps")
		kernel     = fs.String("kernel", "auto", "compute kernel: auto (per-block selection), generic, split, sparse, or an exact kernel name")
		layout     = fs.String("layout", "auto", "PDF memory layout: auto, aos or soa (bit-identical fields either way)")
		workers    = fs.Int("workers", 1, "intra-rank worker threads for block sweeps (hybrid mode)")
		transport  = fs.String("transport", "inproc", "rank interconnect: inproc (shared-memory mailboxes) or unix/tcp (framed sockets with CRC-32C, heartbeats and reconnect)")
		transAddrs = fs.String("transport-addrs", "", "comma-separated listen address per rank, spares included, for the socket transport (empty = ephemeral loopback/temp sockets)")
		heartbeat  = fs.Duration("heartbeat", 0, "socket transport heartbeat interval (0 = default 20ms)")
		tau        = fs.Float64("tau", 0.6, "relaxation time")
		inflowU    = fs.Float64("inflow", 0.02, "inflow velocity magnitude (+z)")
		vtkDir     = fs.String("vtk", "", "write per-block VTK files into this directory")
		ckptDir    = fs.String("checkpoint", "", "directory of coordinated checkpoint sets: the periodic ones of -checkpoint-every and a final one at the end of the run")
		rebalance  = fs.Int("rebalance", 0, "dynamically rebalance by measured compute time every N steps (0 = off)")
		resumeDir  = fs.String("resume", "", "restore the newest usable checkpoint set in this directory, step included, before stepping")

		tracePath   = fs.String("trace", "", "write a Chrome-trace/Perfetto JSON of all ranks' phase spans to this file (load in ui.perfetto.dev or chrome://tracing)")
		metricsJSON = fs.String("metrics-json", "", "write a merged JSON metrics snapshot (counters, gauges, histograms, roofline comparison) to this file")
		metricsAddr = fs.String("metrics-addr", "", `serve live metrics snapshots over HTTP on this address while the run is in flight (e.g. "localhost:6060")`)
		machineName = fs.String("machine", "supermuc", "perfmodel machine for the roofline comparison: supermuc or juqueen")

		amrMaxLevel     = fs.Int("amr-max-level", 0, "enable runtime adaptive mesh refinement up to this octree depth (0 = uniform grid; needs -scenario, see docs/AMR.md)")
		amrCriterion    = fs.String("amr-criterion", "", "AMR refine/coarsen criterion: gradient (default) or vorticity")
		amrRefineAbove  = fs.Float64("amr-refine-above", 0, "AMR criterion threshold above which a block refines")
		amrCoarsenBelow = fs.Float64("amr-coarsen-below", 0, "AMR criterion threshold below which a block coarsens")
		amrInterval     = fs.Int("amr-interval", 0, "coarse steps between AMR controller passes (default 4)")

		checkpointEvery = fs.Int("checkpoint-every", 0, "run the fault-tolerant driver, taking a coordinated checkpoint set every N steps (0 = off)")
		injectFault     = fs.String("inject-fault", "", `deterministic fault plan, e.g. "crash=1@40,hang=2@80,delay=0.01:2ms,seed=7" (delay=P:DUR stalls a message in order, on either transport); selects the fault-tolerant driver`)
		recoverMode     = fs.String("recover-mode", "rewind", "recovery after a rank failure: rewind (disk checkpoint sets), shrink (in-memory buddy replicas, survivors adopt the dead rank's blocks) or heal (shrink, then a spare rank rejoins and the world re-grows to full size; see -spares)")
		failTimeout     = fs.Duration("fail-timeout", 0, "declare a rank failed when its beat has been missing this long (0 = no silent-failure detection)")
		maxFailures     = fs.Int("max-failures", -1, "abort after this many rank failures (-1 = default of 8, 0 = abort on the first failure)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// reject names the first explicitly set flag among names: it cannot
	// apply to this run, and ignoring it would be a silent lie.
	reject := func(why string, names ...string) error {
		for _, n := range names {
			if set[n] {
				return fmt.Errorf("-%s %s", n, why)
			}
		}
		return nil
	}

	faults, err := parseFaultSpec(*injectFault)
	if err != nil {
		return fmt.Errorf("-inject-fault: %w", err)
	}
	machine, ok := map[string]func() *perfmodel.Machine{
		"supermuc": perfmodel.SuperMUCSocket, "juqueen": perfmodel.JUQUEENNode}[*machineName]
	if !ok {
		return fmt.Errorf("-machine: unknown machine %q (want supermuc or juqueen)", *machineName)
	}

	// overrides is what each flag does to a scenario's fields.
	isComma := func(r rune) bool { return r == ',' }
	type scn = scenario.Scenario
	overrides := map[string]func(*scn){
		"steps":             func(sc *scn) { sc.Run.Steps = *steps },
		"ranks":             func(sc *scn) { sc.Parallel.Ranks = *ranks },
		"spares":            func(sc *scn) { sc.Parallel.Spares = *spares },
		"workers":           func(sc *scn) { sc.Parallel.Workers = *workers },
		"tau":               func(sc *scn) { sc.Collision.Tau = *tau },
		"kernel":            func(sc *scn) { sc.Collision.Kernel = *kernel },
		"layout":            func(sc *scn) { sc.Collision.Layout = *layout },
		"cells":             func(sc *scn) { sc.Resolution.CellsPerBlock = [3]int{*cells, *cells, *cells} },
		"dx":                func(sc *scn) { sc.Geometry.Dx = *dx },
		"inflow":            func(sc *scn) { sc.Geometry.InflowVelocity = *inflowU },
		"tree-depth":        func(sc *scn) { sc.Geometry.TreeDepth = *treeDepth },
		"seed":              func(sc *scn) { sc.Geometry.Seed = *seed },
		"rebalance":         func(sc *scn) { sc.Run.RebalanceEvery = *rebalance },
		"checkpoint-every":  func(sc *scn) { sc.Resilience.CheckpointEvery = *checkpointEvery },
		"checkpoint":        func(sc *scn) { sc.Resilience.Dir = *ckptDir },
		"recover-mode":      func(sc *scn) { sc.Resilience.Mode = *recoverMode },
		"fail-timeout":      func(sc *scn) { sc.Resilience.FailTimeout = scenario.Duration(*failTimeout) },
		"max-failures":      func(sc *scn) { sc.Resilience.MaxFailures = maxFailures },
		"transport":         func(sc *scn) { sc.Transport.Network = *transport },
		"transport-addrs":   func(sc *scn) { sc.Transport.Addrs = strings.FieldsFunc(*transAddrs, isComma) },
		"heartbeat":         func(sc *scn) { sc.Transport.Heartbeat = scenario.Duration(*heartbeat) },
		"amr-max-level":     func(sc *scn) { sc.Refinement.MaxLevel = *amrMaxLevel },
		"amr-criterion":     func(sc *scn) { sc.Refinement.Criterion = *amrCriterion },
		"amr-refine-above":  func(sc *scn) { sc.Refinement.RefineAbove = *amrRefineAbove },
		"amr-coarsen-below": func(sc *scn) { sc.Refinement.CoarsenBelow = *amrCoarsenBelow },
		"amr-interval":      func(sc *scn) { sc.Refinement.Interval = *amrInterval },
	}

	// What to run is a scenario, mapped onto a problem p and its world w:
	// the file's, with explicitly set flags overriding its fields, or — from
	// flags alone, defaults included — the tree example's pipeline (SDF
	// geometry voxelized per rank, graph-partitioned), on the synthetic tree
	// or on a user mesh the schema has no name for.
	sc := &scenario.Scenario{Version: scenario.Version, Geometry: scenario.Geometry{Example: "tree"}}
	merge := fs.VisitAll
	if *scenarioPath != "" {
		if err := reject("cannot be combined with -scenario (its geometry section selects the domain)", "blocks", "mesh", "tree"); err != nil {
			return err
		}
		if sc, err = scenario.ParseFile(*scenarioPath); err != nil {
			return err
		}
		merge = fs.Visit
	} else if !*useTree && *meshPath == "" {
		return fmt.Errorf("either -mesh or -tree is required")
	}
	merge(func(f *flag.Flag) {
		if apply := overrides[f.Name]; apply != nil {
			apply(sc)
		}
	})
	var forest *blockforest.SetupForest
	if *blocksPath != "" {
		if forest, err = loadForest(stdout, *blocksPath, max(sc.Parallel.Ranks, 1)); err != nil {
			return err
		}
		if f := forest; sc.Geometry.Dx == 0 { // the file, not -dx, fixed the spacing
			sc.Geometry.Dx = (f.Domain.Max[0] - f.Domain.Min[0]) / float64(f.GridSize[0]*f.CellsPerBlock[0])
		}
	}
	if err := sc.Validate(); err != nil { // the one validation, on the merged description
		return err
	}
	p, err := sc.Problem()
	if err != nil {
		return err
	}
	if *scenarioPath == "" && !*useTree {
		sdf, err := loadMesh(*meshPath)
		if err != nil {
			return err
		}
		p.Geometry = sdf
	}
	w := core.World{
		Forest: forest,
		Comm:   sc.CommOptions(),
		Spares: sc.Parallel.Spares,
		Steps:  sc.Run.Steps,
		VTKDir: *vtkDir,
	}
	if rc, resilient := sc.Resilient(); resilient || faults != nil {
		w.Resilience = &rc
	}
	if sc.AMR() {
		if err := reject("does not apply to a refined scenario (the roofline model is the uniform world's)", "machine"); err != nil {
			return err
		}
		machine = nil
	}
	if w.Resilience == nil {
		if err := reject("needs the fault-tolerant driver (-checkpoint-every or -inject-fault)",
			"spares", "recover-mode", "max-failures"); err != nil {
			return err
		}
	}
	if faults != nil {
		w.Comm.Faults = faults
	}

	// Telemetry: one tracer per rank sharing the trace epoch, one registry
	// per rank, optionally exposed live over HTTP; any telemetry flag
	// enables recording for all of them.
	var mu sync.Mutex
	var trace *telemetry.Trace
	if *tracePath != "" {
		trace = telemetry.NewTrace()
	}
	var server *telemetry.MetricsServer
	if *metricsAddr != "" {
		server = telemetry.NewMetricsServer()
		addr, err := server.Serve(*metricsAddr)
		if err != nil {
			return err
		}
		defer server.Close()
		fmt.Fprintf(stdout, "serving metrics on http://%s/metrics\n", addr)
	}
	regs := map[int]*telemetry.Registry{}
	if *tracePath != "" || *metricsJSON != "" || *metricsAddr != "" {
		p.TelemetryFor = func(rank int) (*telemetry.Tracer, *telemetry.Registry) {
			reg := telemetry.NewRegistry()
			server.Register(rank, reg)
			mu.Lock()
			regs[rank] = reg
			mu.Unlock()
			return trace.NewTracer(rank, max(p.Workers, 1), 0), reg // nil trace → untraced
		}
	}

	// What only the command line does to a rank: restore the newest usable
	// checkpoint set before the first step; after the last one write the
	// final set and compare rank 0 against the machine model.
	if dir := *resumeDir; dir != "" {
		w.Prepare = func(s *sim.Simulation) error {
			step, err := s.RestoreLatestCheckpointSet(dir)
			if err != nil || step > 0 {
				return err
			}
			// Without a usable set the restore rewound to the initial state,
			// which is what a set at step 0 holds: only such a set counts.
			if m, err := output.ValidateSetDir(filepath.Join(dir, output.SetDirName(0))); err == nil && int(m.Ranks) == s.Comm.Size() {
				return nil
			}
			return fmt.Errorf("-resume: no usable checkpoint set for %d ranks in %s", s.Comm.Size(), dir)
		}
	}
	setDir := sc.Resilience.Dir
	var lead *sim.Simulation // whoever holds rank 0 at the end
	out, err := p.Execute(ctx, w, func(r *core.Rank) error {
		s := r.Sim
		if setDir != "" {
			if _, err := s.WriteCheckpointSet(setDir, s.WorldStep()); err != nil {
				return err
			}
		}
		if machine == nil {
			return nil // a refined world: no roofline model
		}
		// The live measured-vs-model comparison lands in the registry, so
		// the metrics snapshot (file and HTTP endpoint) reports per-phase
		// MLUPS alongside the perfmodel prediction.
		s.RooflineReport(machine()).Publish(s.Config.Metrics)
		if s.Comm.Rank() == 0 {
			lead = s
		}
		return nil
	})
	if err != nil {
		return err
	}
	switch {
	case out.Interrupted:
		fmt.Fprintf(stdout, "interrupted at step %d (state is consistent at this boundary)\n", out.Steps)
	case out.Levels != nil:
		fmt.Fprintf(stdout, "AMR run complete: %d steps, leaves per level %v\n", out.Steps, out.Levels)
		fallthrough
	default:
		fmt.Fprintln(stdout, "simulation:", out.Metrics)
	}
	fmt.Fprintf(stdout, "field hash: %016x\n", out.Hash)
	fmt.Fprintf(stdout, "split-kernel rows: %s\n", kernels.RowISA())
	if lead != nil && lead.Workers() > 1 {
		frontier, interior := lead.BlockSplit()
		fmt.Fprintf(stdout, "hybrid: workers=%d blocks(frontier/interior)=%d/%d overlap: %v\n",
			lead.Workers(), frontier, interior, lead.Overlap())
	}
	printRecovery(stdout, out.Metrics.Recovery)
	if lead != nil {
		if err := lead.RooflineReport(machine()).WriteText(stdout); err != nil {
			return err
		}
	}
	return writeTelemetry(stdout, *tracePath, *metricsJSON, trace, regs)
}

// loadForest reads a blockgen file, re-balanced when it was cut for more
// ranks than this world has.
func loadForest(stdout io.Writer, path string, ranks int) (*blockforest.SetupForest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	forest, err := blockforest.Load(f)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "loaded %s: %d blocks, grid %v\n", path, forest.NumBlocks(), forest.GridSize)
	if forest.MaxRank() >= ranks {
		fmt.Fprintf(stdout, "rebalancing for %d ranks\n", ranks)
		forest.BalanceMorton(ranks)
	}
	return forest, nil
}

// printRecovery summarizes what the fault-tolerant driver did (nothing for
// a plain run).
func printRecovery(stdout io.Writer, r sim.RecoveryStats) {
	if r == (sim.RecoveryStats{}) {
		return
	}
	fmt.Fprintf(stdout, "resilience: failures=%d restores=%d replayed=%d steps checkpoints=%d (%d bytes on rank 0) lost=%v\n",
		r.FailuresDetected, r.Restores, r.StepsReplayed,
		r.CheckpointsWritten, r.CheckpointBytes, r.TimeLost)
	if r.Replications > 0 || r.Shrinks > 0 || r.Heals > 0 {
		fmt.Fprintf(stdout, "buddy: replications=%d (%d bytes on rank 0) buddy-restores=%d disk-restores=%d shrinks=%d heals=%d adopted=%d blocks recovery-disk-reads=%d\n",
			r.Replications, r.ReplicaBytes, r.BuddyRestores, r.DiskRestores,
			r.Shrinks, r.Heals, r.BlocksAdopted, r.DiskReadsDuringRecovery)
	}
}

// writeTelemetry flushes the optional trace and metrics artifacts.
func writeTelemetry(stdout io.Writer, tracePath, metricsJSON string, trace *telemetry.Trace, regs map[int]*telemetry.Registry) error {
	if tracePath != "" {
		if err := trace.WriteChromeFile(tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (load in ui.perfetto.dev or chrome://tracing)\n", tracePath)
	}
	if metricsJSON != "" {
		var snaps []telemetry.Snapshot
		for rank, reg := range regs {
			snaps = append(snaps, reg.Snapshot(rank))
		}
		if err := writeFile(metricsJSON, func(w *os.File) error {
			return telemetry.Merge(snaps).WriteJSON(w)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", metricsJSON)
	}
	return nil
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

// loadMesh reads a colored WBM1 mesh into its signed distance field.
func loadMesh(path string) (distance.SDF, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := mesh.Read(f)
	if err != nil {
		return nil, err
	}
	return distance.NewField(m)
}
