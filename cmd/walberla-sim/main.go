// Command walberla-sim runs a distributed flow simulation: it loads a
// block-structure file produced by blockgen (or builds one on the fly),
// distributes it over the requested number of ranks exactly as the paper
// describes (single reader, broadcast, per-rank construction), voxelizes
// the geometry per rank, runs the time loop, reports MLUPS/MFLUPS and
// communication statistics, and optionally writes VTK output and PDF
// checkpoints per block.
//
// Usage:
//
//	walberla-sim -tree -dx 0.006 -cells 16 -ranks 4 -steps 200 -vtk out/
//	walberla-sim -blocks tree.wbf -tree -ranks 8 -steps 500 -kernel "TRT Interval"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/comm"
	"walberla/internal/distance"
	"walberla/internal/mesh"
	"walberla/internal/output"
	"walberla/internal/perfmodel"
	"walberla/internal/scenario"
	"walberla/internal/setup"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
	"walberla/internal/vascular"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario JSON file (see docs/SERVE.md); explicitly set flags override its fields")

		blocksPath = flag.String("blocks", "", "block structure file from blockgen (optional)")
		meshPath   = flag.String("mesh", "", "colored mesh file (WBM1)")
		useTree    = flag.Bool("tree", false, "use the built-in synthetic coronary tree")
		treeDepth  = flag.Int("tree-depth", 3, "bifurcation depth of the synthetic tree")
		seed       = flag.Int64("seed", 1, "generation/balancing seed")
		cells      = flag.Int("cells", 16, "cells per block edge (when building the forest here)")
		dx         = flag.Float64("dx", 0, "lattice spacing (when building the forest here)")
		ranks      = flag.Int("ranks", 4, "number of SPMD ranks")
		spares     = flag.Int("spares", 0, "spare ranks parked beside the active world for heal-mode recovery: a failure recruits one, its buddy streams the dead rank's state over, and the run resumes at full size (-recover-mode heal)")
		steps      = flag.Int("steps", 200, "time steps")
		kernel     = flag.String("kernel", "auto", "compute kernel: auto (per-block selection), generic, split, sparse, or an exact kernel name")
		layout     = flag.String("layout", "auto", "PDF memory layout: auto, aos or soa (bit-identical fields either way)")
		workers    = flag.Int("workers", 1, "intra-rank worker threads for block sweeps (hybrid mode)")
		exchange   = flag.String("exchange", "aggregated", "ghost exchange wire format: aggregated (one message per neighbor rank) or per-pair (one per block pair)")
		transport  = flag.String("transport", "inproc", "rank interconnect: inproc (shared-memory mailboxes) or unix/tcp (framed sockets with CRC-32C, heartbeats and reconnect)")
		transAddrs = flag.String("transport-addrs", "", "comma-separated listen address per rank for the socket transport (empty = ephemeral loopback/temp sockets)")
		heartbeat  = flag.Duration("heartbeat", 0, "socket transport heartbeat interval (0 = default 20ms)")
		tau        = flag.Float64("tau", 0.6, "relaxation time")
		inflowU    = flag.Float64("inflow", 0.02, "inflow velocity magnitude (+z)")
		vtkDir     = flag.String("vtk", "", "write per-block VTK files into this directory")
		ckptDir    = flag.String("checkpoint", "", "write per-block PDF checkpoints into this directory")
		rebalance  = flag.Int("rebalance", 0, "dynamically rebalance by measured compute time every N steps (0 = off)")
		resumeDir  = flag.String("resume", "", "restore per-block PDF checkpoints from this directory before stepping")

		tracePath   = flag.String("trace", "", "write a Chrome-trace/Perfetto JSON of all ranks' phase spans to this file (load in ui.perfetto.dev or chrome://tracing)")
		metricsJSON = flag.String("metrics-json", "", "write a merged JSON metrics snapshot (counters, gauges, histograms, roofline comparison) to this file")
		metricsAddr = flag.String("metrics-addr", "", `serve live metrics snapshots over HTTP on this address while the run is in flight (e.g. "localhost:6060")`)
		machineName = flag.String("machine", "supermuc", "perfmodel machine for the roofline comparison: supermuc or juqueen")

		amrMaxLevel     = flag.Int("amr-max-level", 0, "enable runtime adaptive mesh refinement up to this octree depth (0 = uniform grid; needs -scenario, see docs/AMR.md)")
		amrCriterion    = flag.String("amr-criterion", "", "AMR refine/coarsen criterion: gradient (default) or vorticity")
		amrRefineAbove  = flag.Float64("amr-refine-above", 0, "AMR criterion threshold above which a block refines")
		amrCoarsenBelow = flag.Float64("amr-coarsen-below", 0, "AMR criterion threshold below which a block coarsens")
		amrInterval     = flag.Int("amr-interval", 0, "coarse steps between AMR controller passes (default 4)")

		checkpointEvery = flag.Int("checkpoint-every", 0, "run the fault-tolerant driver, taking a coordinated checkpoint set every N steps (0 = off)")
		checkpointSets  = flag.String("checkpoint-sets", "checkpoint-sets", "directory for coordinated checkpoint sets (with -checkpoint-every)")
		injectFault     = flag.String("inject-fault", "", `deterministic fault plan, e.g. "crash=1@40,hang=2@80,drop=0.001,delay=0.01:2ms,seed=7"`)
		recoverMode     = flag.String("recover-mode", "rewind", "recovery after a rank failure: rewind (disk checkpoint sets), shrink (in-memory buddy replicas, survivors adopt the dead rank's blocks) or heal (shrink, then a spare rank rejoins and the world re-grows to full size; see -spares)")
		failTimeout     = flag.Duration("fail-timeout", 0, "declare a rank failed when a receive from it exceeds this deadline (0 = no silent-failure detection)")
		maxFailures     = flag.Int("max-failures", -1, "abort after this many rank failures (-1 = default of 8, 0 = abort on the first failure)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run at the next step boundary on every
	// rank (in-flight checkpoint sets always commit first); output and
	// telemetry are still written from the consistent interrupted state.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	faults, err := parseFaultSpec(*injectFault)
	if err != nil {
		fatal(fmt.Errorf("-inject-fault: %w", err))
	}
	if *spares > 0 {
		if *recoverMode != "heal" {
			fatal(fmt.Errorf("-spares needs -recover-mode heal (got %q)", *recoverMode))
		}
		if *checkpointEvery <= 0 {
			fatal(fmt.Errorf("-spares needs -checkpoint-every > 0 (the heal driver runs under the fault-tolerant loop)"))
		}
	}
	if faults != nil {
		// Fault targets may name spare ranks too: the world is ranks+spares.
		if err := faults.Validate(*ranks + *spares); err != nil {
			fatal(fmt.Errorf("-inject-fault: %w", err))
		}
	}
	if *amrMaxLevel > 0 && *scenarioPath == "" {
		fatal(fmt.Errorf("-amr-max-level needs -scenario (AMR runs are scenario-driven; see docs/AMR.md)"))
	}
	resilient := *checkpointEvery > 0 || faults != nil
	if resilient && *rebalance > 0 {
		fatal(fmt.Errorf("-rebalance cannot be combined with the fault-tolerant driver (-checkpoint-every / -inject-fault)"))
	}
	var netOpts *comm.NetOptions
	switch *transport {
	case "inproc":
		if *transAddrs != "" || *heartbeat != 0 {
			fatal(fmt.Errorf("-transport-addrs/-heartbeat need -transport unix or tcp"))
		}
	case "unix", "tcp":
		netOpts = &comm.NetOptions{Network: *transport, HeartbeatEvery: *heartbeat}
		if *transAddrs != "" {
			netOpts.Addrs = strings.Split(*transAddrs, ",")
			if len(netOpts.Addrs) != *ranks+*spares {
				fatal(fmt.Errorf("-transport-addrs: %d addresses for %d ranks (+%d spares)", len(netOpts.Addrs), *ranks, *spares))
			}
		}
	default:
		fatal(fmt.Errorf("-transport: unknown transport %q (want inproc, unix or tcp)", *transport))
	}

	var mode sim.RecoveryMode
	switch *recoverMode {
	case "rewind":
		mode = sim.RecoverRewind
	case "shrink":
		mode = sim.RecoverShrink
	case "heal":
		mode = sim.RecoverHeal
	default:
		fatal(fmt.Errorf("-recover-mode: unknown mode %q (want rewind, shrink or heal)", *recoverMode))
	}

	var machine *perfmodel.Machine
	switch *machineName {
	case "supermuc":
		machine = perfmodel.SuperMUCSocket()
	case "juqueen":
		machine = perfmodel.JUQUEENNode()
	default:
		fatal(fmt.Errorf("-machine: unknown machine %q (want supermuc or juqueen)", *machineName))
	}

	// Telemetry: one tracer per rank sharing the trace epoch, one registry
	// per rank, optionally exposed live over HTTP. Any telemetry flag
	// enables recording for all of them — the extra cost is spans into
	// preallocated rings and atomic counter updates.
	telemetryOn := *tracePath != "" || *metricsJSON != "" || *metricsAddr != ""
	var trace *telemetry.Trace
	if *tracePath != "" {
		trace = telemetry.NewTrace()
	}
	var server *telemetry.MetricsServer
	if *metricsAddr != "" {
		server = telemetry.NewMetricsServer()
		addr, err := server.Serve(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer server.Close()
		fmt.Printf("serving metrics on http://%s/metrics\n", addr)
	}

	if *scenarioPath != "" {
		sc, err := scenario.ParseFile(*scenarioPath)
		if err != nil {
			fatal(err)
		}
		// Explicitly set flags override the corresponding scenario fields
		// — the scenario file is the source of truth, the command line a
		// per-invocation tweak.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "steps":
				sc.Run.Steps = *steps
			case "ranks":
				sc.Parallel.Ranks = *ranks
			case "spares":
				sc.Parallel.Spares = *spares
			case "workers":
				sc.Parallel.Workers = *workers
			case "exchange":
				sc.Parallel.Exchange = *exchange
			case "tau":
				sc.Collision.Tau = *tau
			case "kernel":
				sc.Collision.Kernel = *kernel
			case "layout":
				sc.Collision.Layout = *layout
			case "cells":
				sc.Resolution.CellsPerBlock = [3]int{*cells, *cells, *cells}
			case "dx":
				sc.Geometry.Dx = *dx
			case "inflow":
				sc.Geometry.InflowVelocity = *inflowU
			case "tree-depth":
				sc.Geometry.TreeDepth = *treeDepth
			case "seed":
				sc.Geometry.Seed = *seed
			case "rebalance":
				sc.Run.RebalanceEvery = *rebalance
			case "checkpoint-every":
				sc.Resilience.CheckpointEvery = *checkpointEvery
			case "checkpoint-sets":
				sc.Resilience.Dir = *checkpointSets
			case "recover-mode":
				sc.Resilience.Mode = *recoverMode
			case "fail-timeout":
				sc.Resilience.FailTimeout = scenario.Duration(*failTimeout)
			case "max-failures":
				sc.Resilience.MaxFailures = maxFailures
			case "transport":
				sc.Transport.Network = *transport
			case "transport-addrs":
				sc.Transport.Addrs = strings.Split(*transAddrs, ",")
			case "heartbeat":
				sc.Transport.Heartbeat = scenario.Duration(*heartbeat)
			case "amr-max-level":
				sc.Refinement.MaxLevel = *amrMaxLevel
			case "amr-criterion":
				sc.Refinement.Criterion = *amrCriterion
			case "amr-refine-above":
				sc.Refinement.RefineAbove = *amrRefineAbove
			case "amr-coarsen-below":
				sc.Refinement.CoarsenBelow = *amrCoarsenBelow
			case "amr-interval":
				sc.Refinement.Interval = *amrInterval
			}
		})
		if err := sc.Validate(); err != nil {
			fatal(err)
		}
		opts := scenario.ExecuteOptions{VTKDir: *vtkDir}
		var mu sync.Mutex
		regs := map[int]*telemetry.Registry{}
		if telemetryOn {
			opts.TelemetryFor = func(rank int) (*telemetry.Tracer, *telemetry.Registry) {
				reg := telemetry.NewRegistry()
				server.Register(rank, reg)
				mu.Lock()
				regs[rank] = reg
				mu.Unlock()
				return trace.NewTracer(rank, sc.Parallel.Workers, 0), reg
			}
		}
		res, err := scenario.Execute(ctx, sc, opts)
		if err != nil {
			fatal(err)
		}
		if res.Interrupted {
			fmt.Printf("interrupted at step %d (state is consistent at this boundary)\n", res.Steps)
		} else if len(res.Levels) > 0 {
			fmt.Printf("AMR run complete: %d steps, leaves per level %v\n", res.Steps, res.Levels)
		} else {
			fmt.Println("simulation:", res.Metrics)
		}
		fmt.Printf("field hash: %016x\n", res.Hash)
		printRecovery(res.Metrics.Recovery)
		writeTelemetry(*tracePath, *metricsJSON, trace, regs)
		return
	}

	sdf, err := loadGeometry(*meshPath, *useTree, *treeDepth, *seed)
	if err != nil {
		fatal(err)
	}

	var forest *blockforest.SetupForest
	if *blocksPath != "" {
		f, err := os.Open(*blocksPath)
		if err != nil {
			fatal(err)
		}
		forest, err = blockforest.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s: %d blocks, grid %v\n", *blocksPath, forest.NumBlocks(), forest.GridSize)
		if forest.MaxRank() >= *ranks {
			fmt.Printf("rebalancing for %d ranks\n", *ranks)
			forest.BalanceMorton(*ranks)
		}
	} else {
		if *dx <= 0 {
			fatal(fmt.Errorf("-dx is required when no -blocks file is given"))
		}
		var stats setup.Stats
		forest, stats, err = setup.BuildForest(sdf, setup.Options{
			CellsPerBlock:       [3]int{*cells, *cells, *cells},
			Dx:                  *dx,
			Ranks:               *ranks,
			Seed:                *seed,
			UseGraphPartitioner: true,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("built forest: grid %v, %d blocks, %.2f%% fluid\n",
			stats.Grid, stats.Blocks, 100*stats.FluidFraction)
	}

	for _, dir := range []string{*vtkDir, *ckptDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}

	exMode, err := parseExchangeMode(*exchange)
	if err != nil {
		fatal(err)
	}
	kernelChoice, err := sim.ParseKernelChoice(*kernel)
	if err != nil {
		fatal(fmt.Errorf("-kernel: %w", err))
	}
	layoutChoice, err := sim.ParseLayoutChoice(*layout)
	if err != nil {
		fatal(fmt.Errorf("-layout: %w", err))
	}
	cfg := sim.Config{
		Kernel:     kernelChoice,
		Layout:     layoutChoice,
		Workers:    *workers,
		Exchange:   exMode,
		Tau:        *tau,
		Boundary:   boundary.Config{WallVelocity: [3]float64{0, 0, *inflowU}, Density: 1},
		SetupFlags: setup.FlagsFromSDF(sdf),
	}

	var mu sync.Mutex
	var metrics sim.Metrics
	var overlap sim.OverlapTimes
	var frontier, interior int
	var files int
	var fieldHash uint64
	var interruptedAt int
	var roofline telemetry.RooflineReport
	regs := map[int]*telemetry.Registry{}
	rc := sim.ResilienceConfig{
		CheckpointEvery: *checkpointEvery,
		Dir:             *checkpointSets,
		Mode:            mode,
		MaxFailures:     *maxFailures,
	}
	comm.RunWithOptions(*ranks+*spares, comm.Options{Faults: faults, FailTimeout: *failTimeout, Net: netOpts}, func(c *comm.Comm) {
		rcfg := cfg
		if telemetryOn {
			reg := telemetry.NewRegistry()
			rcfg.Tracer = trace.NewTracer(c.WorldRank(), *workers, 0) // nil trace → untraced
			rcfg.Metrics = reg
			server.Register(c.WorldRank(), reg)
			mu.Lock()
			regs[c.WorldRank()] = reg
			mu.Unlock()
		}
		var s *sim.Simulation
		var m sim.Metrics
		var err error
		interrupted := false
		if *spares > 0 && c.WorldRank() >= *ranks {
			// Spare rank: park until a failure recruits it (or the run ends).
			header := &blockforest.BlockForest{
				Domain:        forest.Domain,
				GridSize:      forest.GridSize,
				CellsPerBlock: forest.CellsPerBlock,
			}
			var joined bool
			s, m, joined, err = sim.RunSpareCtx(ctx, c, *ranks, header, rcfg, *steps, rc)
			if !joined {
				if err != nil {
					fatal(err)
				}
				return
			}
			if errors.Is(err, sim.ErrInterrupted) {
				interrupted = true
			} else if err != nil {
				fatal(err)
			}
		} else {
			// Active rank: with spares parked, the simulation runs on the
			// world's leading sub-communicator.
			ac := c
			if *spares > 0 {
				ac = c.GrowWorld(*ranks)
			}
			var in *blockforest.SetupForest
			if ac.Rank() == 0 {
				in = forest
			}
			bf, err2 := blockforest.Distribute(ac, in)
			if err2 != nil {
				fatal(err2)
			}
			s, err = sim.New(ac, bf, rcfg)
			if err != nil {
				fatal(err)
			}
			if *resumeDir != "" {
				restored := 0
				for _, bd := range s.Blocks {
					name := fmt.Sprintf("block_%d_%d_%d.wbc",
						bd.Block.Coord[0], bd.Block.Coord[1], bd.Block.Coord[2])
					fh, err := os.Open(filepath.Join(*resumeDir, name))
					if err != nil {
						continue // no checkpoint for this block: keep initial state
					}
					err = output.RestorePDF(fh, bd.Src)
					fh.Close()
					if err != nil {
						fatal(err)
					}
					restored++
				}
				if restored > 0 && ac.Rank() == 0 {
					fmt.Printf("rank 0 restored %d block checkpoints from %s\n", restored, *resumeDir)
				}
			}
			if resilient {
				m, err = s.RunResilientCtx(ctx, *steps, rc)
				if err == sim.ErrRetired {
					// This rank failed permanently: under shrink the
					// survivors carry its blocks on; under heal a spare has
					// (or will have) taken its place.
					if mode == sim.RecoverHeal {
						fmt.Printf("rank %d retired; a spare rank adopted its blocks and the world re-grew\n", c.WorldRank())
					} else {
						fmt.Printf("rank %d retired; its blocks were adopted by the surviving ranks\n", c.WorldRank())
					}
					return
				}
				if errors.Is(err, sim.ErrInterrupted) {
					interrupted = true
				} else if err != nil {
					fatal(err)
				}
			} else if *rebalance > 0 {
				remaining := *steps
				for remaining > 0 && !interrupted {
					chunk := *rebalance
					if chunk > remaining {
						chunk = remaining
					}
					m, err = s.RunCtx(ctx, chunk)
					if errors.Is(err, sim.ErrInterrupted) {
						interrupted = true
						break
					}
					if err != nil {
						fatal(err)
					}
					remaining -= chunk
					if remaining > 0 {
						if err := s.RebalanceByWorkload(true); err != nil {
							fatal(err)
						}
						// RankLoad is collective: every rank participates.
						_, maxLoad, total := s.RankLoad()
						if c.Rank() == 0 {
							fmt.Printf("rebalanced: max rank load %d of %d fluid cells\n", maxLoad, total)
						}
					}
				}
			} else {
				m, err = s.RunCtx(ctx, *steps)
				if errors.Is(err, sim.ErrInterrupted) {
					interrupted = true
				} else if err != nil {
					fatal(err)
				}
			}
		}
		hash, err := s.FieldHash()
		if err != nil {
			fatal(err)
		}
		// The live measured-vs-model comparison lands in the registry, so
		// the metrics snapshot (file and HTTP endpoint) reports per-phase
		// MLUPS alongside the perfmodel prediction.
		report := s.RooflineReport(machine)
		report.Publish(rcfg.Metrics)
		mu.Lock()
		defer mu.Unlock()
		// Recovery may have renumbered the communicator (shrink) or swapped
		// members in (heal): the rank holding rank 0 NOW reports the result.
		if s.Comm.Rank() == 0 {
			metrics = m
			overlap = s.Overlap()
			frontier, interior = s.BlockSplit()
			roofline = report
			fieldHash = hash
			if interrupted {
				interruptedAt = s.Steps()
			}
		}
		for _, bd := range s.Blocks {
			spacing := (bd.Block.AABB.Max[0] - bd.Block.AABB.Min[0]) / float64(bd.Src.Nx)
			origin := [3]float64{
				bd.Block.AABB.Min[0] + spacing/2,
				bd.Block.AABB.Min[1] + spacing/2,
				bd.Block.AABB.Min[2] + spacing/2,
			}
			name := fmt.Sprintf("block_%d_%d_%d",
				bd.Block.Coord[0], bd.Block.Coord[1], bd.Block.Coord[2])
			if *vtkDir != "" {
				if err := writeFile(filepath.Join(*vtkDir, name+".vtk"), func(w *os.File) error {
					return output.WriteVTK(w, name, bd.Src, bd.Flags, origin, spacing)
				}); err != nil {
					fatal(err)
				}
				files++
			}
			if *ckptDir != "" {
				if err := writeFile(filepath.Join(*ckptDir, name+".wbc"), func(w *os.File) error {
					return output.SaveCheckpoint(w, bd.Src)
				}); err != nil {
					fatal(err)
				}
				files++
			}
		}
	})
	if interruptedAt > 0 {
		fmt.Printf("interrupted at step %d (state is consistent at this boundary)\n", interruptedAt)
	} else {
		fmt.Println("simulation:", metrics)
	}
	fmt.Printf("field hash: %016x\n", fieldHash)
	if *workers > 1 {
		fmt.Printf("hybrid: workers=%d blocks(frontier/interior)=%d/%d overlap: %v\n",
			*workers, frontier, interior, overlap)
	}
	printRecovery(metrics.Recovery)
	if roofline.Machine != "" {
		if err := roofline.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
	writeTelemetry(*tracePath, *metricsJSON, trace, regs)
	if files > 0 {
		fmt.Printf("wrote %d output files\n", files)
	}
}

// printRecovery summarizes what the fault-tolerant driver did (nothing for
// a plain run); both the flag path and the scenario path report it.
func printRecovery(r sim.RecoveryStats) {
	if r == (sim.RecoveryStats{}) {
		return
	}
	fmt.Printf("resilience: failures=%d restores=%d replayed=%d steps checkpoints=%d (%d bytes on rank 0) lost=%v\n",
		r.FailuresDetected, r.Restores, r.StepsReplayed,
		r.CheckpointsWritten, r.CheckpointBytes, r.TimeLost)
	if r.Replications > 0 || r.Shrinks > 0 {
		fmt.Printf("buddy: replications=%d (%d bytes on rank 0) buddy-restores=%d disk-restores=%d shrinks=%d adopted=%d blocks recovery-disk-reads=%d\n",
			r.Replications, r.ReplicaBytes, r.BuddyRestores, r.DiskRestores,
			r.Shrinks, r.BlocksAdopted, r.DiskReadsDuringRecovery)
	}
}

// writeTelemetry flushes the optional trace and metrics artifacts; both
// the flag path and the scenario path end here.
func writeTelemetry(tracePath, metricsJSON string, trace *telemetry.Trace, regs map[int]*telemetry.Registry) {
	if tracePath != "" {
		if err := trace.WriteChromeFile(tracePath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (load in ui.perfetto.dev or chrome://tracing)\n", tracePath)
	}
	if metricsJSON != "" {
		var snaps []telemetry.Snapshot
		for rank, reg := range regs {
			snaps = append(snaps, reg.Snapshot(rank))
		}
		if err := writeFile(metricsJSON, func(w *os.File) error {
			return telemetry.Merge(snaps).WriteJSON(w)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", metricsJSON)
	}
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func loadGeometry(meshPath string, useTree bool, depth int, seed int64) (distance.SDF, error) {
	if useTree {
		p := vascular.DefaultParams()
		p.Depth = depth
		p.Seed = seed
		return vascular.Generate(p).SDF()
	}
	if meshPath == "" {
		return nil, fmt.Errorf("either -mesh or -tree is required")
	}
	f, err := os.Open(meshPath)
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

func parseExchangeMode(s string) (sim.ExchangeMode, error) {
	switch s {
	case "aggregated":
		return sim.ExchangeAggregated, nil
	case "per-pair":
		return sim.ExchangePerPair, nil
	}
	return 0, fmt.Errorf("-exchange: unknown mode %q (want aggregated or per-pair)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "walberla-sim:", err)
	os.Exit(1)
}
