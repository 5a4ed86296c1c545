package main

import (
	"fmt"
	"os"
	"time"

	"walberla/internal/amr"
	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/scenario"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

// fatal reports an infrastructure failure (a build, step or collective
// that errored) and ends the process without a result line: rank
// goroutines cannot unwind through their peers' collectives, and a
// benchmark whose program failed has nothing to report.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// rankWorld is one rank's view of a built world: exactly one of uni and
// ref is set.
type rankWorld struct {
	c   *comm.Comm
	uni *sim.Simulation
	ref *amr.Sim

	// fluid is the global fluid cell count of a uniform world; blockCells
	// the cells per leaf of a refined one.
	fluid      int64
	blockCells int64
	// fineCells is what the refined domain would hold at its finest level
	// everywhere.
	fineCells int64
	// amp, drift, lx and scale parameterize the shear layer's analytic
	// solution (scale is the resolution multiple of a uniform comparison
	// world, 1 otherwise).
	amp, drift float64
	lx, scale  int
}

func (w *rankWorld) step() {
	var err error
	if w.ref != nil {
		err = w.ref.Step()
	} else {
		err = w.uni.Step()
	}
	if err != nil {
		fatal(err)
	}
}

func (w *rankWorld) hash() uint64 {
	var h uint64
	var err error
	if w.ref != nil {
		h, err = w.ref.FieldHash()
	} else {
		h, err = w.uni.FieldHash()
	}
	if err != nil {
		fatal(err)
	}
	return h
}

// updates is the number of fluid-cell updates the step just taken
// performed, world-wide. A level-l leaf sweeps 2^l times per coarse step.
func (w *rankWorld) updates() int64 {
	if w.ref == nil {
		return w.fluid
	}
	var n int64
	for l, leaves := range w.ref.LevelCounts() {
		n += int64(leaves) * w.blockCells << uint(l)
	}
	return n
}

// buildTimes splits one world build by layer (seconds; traced runs and
// probes read them, setup_s is their barrier-closed total).
type buildTimes struct {
	total       float64
	parse       float64
	buildForest float64
	distribute  float64 // rank 0
	simNew      float64 // rank 0
	blocks      int
	imbalance   float64 // max/mean rank workload of the balanced forest
}

// buildOpts are the benchmark-side hooks of a build.
type buildOpts struct {
	rec *recorder
	// telemetryFor switches the program's own tracer and registry on.
	telemetryFor func(rank, workers int) (*telemetry.Tracer, *telemetry.Registry)
	// uniformScale > 0 builds a refined scenario as a uniform world at
	// that multiple of the coarse resolution instead (the comparison runs
	// of amr_shear: 1 is the coarse grid, 2^max_level the fine one).
	uniformScale int
}

// buildWorld takes scenario bytes to a steppable simulation on every rank
// — Parse (which validates), Problem, BuildForest, the communicator,
// Distribute and sim.New, or amr.New plus the bootstrap regrades for a
// refined scenario — closes the build with a barrier, and then runs body
// on every rank's goroutine. It returns once all ranks have returned.
func buildWorld(doc []byte, o buildOpts, body func(w *rankWorld, bt *buildTimes)) buildTimes {
	var bt buildTimes
	t0 := time.Now()
	root := o.rec.begin("setup", -1)

	sp := o.rec.begin("parse", root)
	sc, err := scenario.Parse(doc)
	if err != nil {
		fatal(err)
	}
	o.rec.end(sp)
	bt.parse = time.Since(t0).Seconds()

	if sc.AMR() {
		buildRefined(sc, o, root, t0, &bt, body)
		return bt
	}

	sp = o.rec.begin("build_forest", root)
	tf := time.Now()
	p, err := sc.Problem()
	if err != nil {
		fatal(err)
	}
	forest, err := p.BuildForest()
	if err != nil {
		fatal(err)
	}
	bt.buildForest = time.Since(tf).Seconds()
	o.rec.end(sp)
	bt.blocks = forest.NumBlocks()
	bt.imbalance = maxOverMean(forest.RankWorkloads(sc.Parallel.Ranks))

	comm.RunWithOptions(sc.Parallel.Ranks, sc.CommOptions(), func(c *comm.Comm) {
		lead := c.Rank() == 0
		var in *blockforest.SetupForest
		var dsp, nsp int
		if lead {
			in = forest
			dsp = o.rec.begin("distribute", root)
		}
		td := time.Now()
		bf, err := blockforest.Distribute(c, in)
		if err != nil {
			fatal(err)
		}
		tn := time.Now()
		if lead {
			o.rec.end(dsp)
			nsp = o.rec.begin("sim_new", root)
		}
		cfg := p.SimConfig()
		if o.telemetryFor != nil {
			cfg.Tracer, cfg.Metrics = o.telemetryFor(c.WorldRank(), sc.Parallel.Workers)
		}
		s, err := sim.New(c, bf, cfg)
		if err != nil {
			fatal(err)
		}
		c.Barrier()
		if lead {
			o.rec.end(nsp)
			o.rec.end(root)
			bt.distribute = tn.Sub(td).Seconds()
			bt.simNew = time.Since(tn).Seconds()
			bt.total = time.Since(t0).Seconds()
		}
		w := &rankWorld{c: c, uni: s}
		_, _, w.fluid = s.RankLoad()
		body(w, &bt)
	})
	return bt
}

// buildRefined is the refined arm of buildWorld. The scenario schema
// cannot express the shear layer, so the benchmark keeps the scenario's
// periodic box, amplitude and refinement section and swaps the initial
// state in. amr.New resolves nothing yet — the first Step would run the
// bootstrap regrades — so the build runs them: a steppable refined world
// is one whose initial condition is already resolved.
func buildRefined(sc *scenario.Scenario, o buildOpts, root int, t0 time.Time, bt *buildTimes, body func(w *rankWorld, bt *buildTimes)) {
	lx := sc.Resolution.Grid[0] * sc.Resolution.CellsPerBlock[0]
	amp, drift := sc.Geometry.Amplitude, sc.Physics.InitialVelocity[0]
	scale := max(o.uniformScale, 1)
	comm.RunWithOptions(sc.Parallel.Ranks, sc.CommOptions(), func(c *comm.Comm) {
		lead := c.Rank() == 0
		var nsp int
		if lead {
			nsp = o.rec.begin("sim_new", root)
		}
		tn := time.Now()
		cfg, err := sc.AMRConfig()
		if err != nil {
			fatal(err)
		}
		cfg.InitialState = shearState(amp, drift, lx, scale)
		if o.uniformScale > 0 {
			cfg.Refinement = amr.Refinement{}
			for d := range cfg.Cells {
				cfg.Cells[d] *= scale
			}
			cfg.Tau = 0.5 + float64(scale)*(cfg.Tau-0.5)
		}
		if o.telemetryFor != nil {
			cfg.Tracer, cfg.Metrics = o.telemetryFor(c.WorldRank(), sc.Parallel.Workers)
		}
		s, err := amr.New(c, cfg)
		if err != nil {
			fatal(err)
		}
		for pass := 0; cfg.Refinement.Interval > 0 && pass <= cfg.Refinement.MaxLevel; pass++ {
			if err := s.Regrade(); err != nil {
				fatal(err)
			}
		}
		c.Barrier()
		if lead {
			o.rec.end(nsp)
			o.rec.end(root)
			bt.simNew = time.Since(tn).Seconds()
			bt.total = time.Since(t0).Seconds()
			bt.blocks = s.NumLeaves()
		}
		blockCells := int64(cfg.Cells[0] * cfg.Cells[1] * cfg.Cells[2])
		roots := int64(cfg.Grid[0] * cfg.Grid[1] * cfg.Grid[2])
		body(&rankWorld{
			c: c, ref: s, amp: amp, drift: drift, lx: lx, scale: scale,
			blockCells: blockCells,
			fineCells:  roots * blockCells << uint(3*sc.Refinement.MaxLevel),
		}, bt)
	})
}

func maxOverMean(xs []float64) float64 {
	var sum, hi float64
	for _, x := range xs {
		sum += x
		hi = max(hi, x)
	}
	if sum == 0 {
		return 0
	}
	return hi * float64(len(xs)) / sum
}
