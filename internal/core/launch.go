package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"walberla/internal/amr"
	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/output"
	"walberla/internal/sim"
)

// World says where a problem's ranks run and how far — everything about
// one execution that is not the problem itself. The zero value is one
// in-process world of p.Ranks ranks that builds its own forest.
type World struct {
	// Forest, if non-nil, is the block structure to distribute (loaded
	// from a file, or kept by a session across residencies so a resumed
	// world lands on the identical assignment); nil builds p.BuildForest()
	// (a refined problem has none).
	Forest *blockforest.SetupForest
	// Comm configures the communicator: transport, fault plan and
	// failure-detection timeout.
	Comm comm.Options
	// Spares parks this many extra ranks beside the p.Ranks active ones;
	// heal recovery recruits them (needs Resilience in heal mode).
	Spares int
	// Prepare, if non-nil, runs collectively on every active rank between
	// building the world and the first step (restoring a checkpoint set,
	// say); an error on any rank ends the launch before the time loop.
	Prepare func(s *sim.Simulation) error

	// Steps is the length of the run; Resilience, if non-nil, runs the
	// fault-tolerant driver. Execute reads them; Launch needs them for what
	// a recruited spare finishes.
	Steps      int
	Resilience *sim.ResilienceConfig
	// VTKDir, if non-empty, receives one VTK file per block after Execute.
	VTKDir string
}

// Rank is one rank's runtime as Launch hands it to the body: Sim is the
// data plane that runs it, of a uniform and a refined world alike.
type Rank struct {
	Sim *sim.Simulation
	// Joined marks a parked spare that a heal recruited: its runtime has
	// already finished the run when the body sees it, with Metrics and Err
	// as the driver returned them. Execute fills both for every rank.
	Joined  bool
	Metrics sim.Metrics
	Err     error
}

// Outcome is what one run to completion produced.
type Outcome struct {
	// Metrics are the globally reduced run metrics (zero when the run was
	// interrupted before completion).
	Metrics sim.Metrics
	// Hash is the collective field fingerprint after the run — equal
	// across CLI, daemon, worker counts and transports exactly when the
	// fields are bit-identical.
	Hash uint64
	// Steps is the number of steps of the run, resumed or not, replays
	// not counted; when interrupted, how far the fields got before it.
	Steps int
	// Levels is the final leaf count per refinement level (refined worlds
	// only, sim.Simulation.LeafLevels; nil for uniform runs).
	Levels []int
	// Interrupted reports that the context cancelled the run at a step
	// boundary; the fields (and Hash) are the consistent state there.
	Interrupted bool
}

func (w *World) validate(p *Problem) error {
	ranks := max(p.Ranks, 1)
	n := ranks + w.Spares
	switch {
	case w.Steps < 0 || w.Spares < 0:
		return fmt.Errorf("core: negative steps or spare count")
	case w.Spares > 0 && (w.Resilience == nil || w.Resilience.Mode != sim.RecoverHeal || w.Resilience.CheckpointEvery <= 0):
		return fmt.Errorf("core: %d spare ranks need heal-mode recovery with a checkpoint interval", w.Spares)
	case w.Forest != nil && w.Forest.MaxRank() >= ranks:
		return fmt.Errorf("core: the forest is balanced for %d ranks, the world has %d", w.Forest.MaxRank()+1, ranks)
	}
	if w.Resilience != nil {
		rc := *w.Resilience // the driver normalizes its own copy
		if err := rc.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	// Addresses and fault targets cover the spare ranks too.
	if err := w.Comm.Validate(n); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Launch is the one way a world starts: it builds (or takes) the forest,
// runs p.Ranks + w.Spares ranks, has rank 0 distribute the block
// structure, constructs every active rank's simulation and hands each
// rank that ends up holding one to body — parked spares only once a heal
// recruited them (see Rank.Joined). It returns the first error of any
// rank. A rank never exits the process: an error, or an injected
// crash/hang that no recovery driver caught, ends that rank and revokes
// the world, so peers blocked on it fail instead of waiting. A body
// returning sim.ErrRetired left the world on purpose and is no error.
func (p *Problem) Launch(ctx context.Context, w World, body func(r *Rank) error) error {
	if err := w.validate(p); err != nil {
		return err
	}
	ranks := max(p.Ranks, 1)
	forest := w.Forest
	if forest == nil {
		var err error
		if forest, err = p.BuildForest(); err != nil {
			return err
		}
	}
	var once sync.Once
	var first error
	comm.RunWithOptions(ranks+w.Spares, w.Comm, func(c *comm.Comm) {
		err := p.launchRank(ctx, c, ranks, &w, forest, body)
		if err == nil || err == errPeerFailed || errors.Is(err, sim.ErrRetired) {
			return
		}
		once.Do(func() { first = err })
		c.Accuse(c.WorldRank(), "left the world: "+err.Error())
		c.Retire()
		c.ReleaseSpares()
	})
	return first
}

// errPeerFailed ends a rank whose peer reported the error that counts.
var errPeerFailed = errors.New("core: a peer rank failed to prepare")

// launchRank is one rank of Launch, from communicator to body.
func (p *Problem) launchRank(ctx context.Context, c *comm.Comm, ranks int, w *World, forest *blockforest.SetupForest, body func(r *Rank) error) (err error) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case comm.Crash, comm.Hang, *comm.RankFailedError:
			err = fmt.Errorf("core: rank %d: %v", c.WorldRank(), v)
		default:
			panic(v)
		}
	}()
	cfg := p.SimConfig()
	if p.TelemetryFor != nil {
		cfg.Tracer, cfg.Metrics = p.TelemetryFor(c.WorldRank())
	}
	r := &Rank{}
	// build makes this rank's world on c: the refined one on its roots, or
	// the uniform one on the distributed forest; a spare's owns no block
	// yet.
	build := func(c *comm.Comm, spare bool) (*sim.Simulation, error) {
		switch {
		case p.Refinement.MaxLevel > 0:
			rcfg, newRefined := p.AMRConfig(), amr.New
			rcfg.Tracer, rcfg.Metrics = cfg.Tracer, cfg.Metrics
			if spare {
				newRefined = amr.NewSpare
			}
			a, err := newRefined(c, rcfg)
			if err != nil {
				return nil, err
			}
			return a.Plane(), nil
		case spare:
			return sim.New(c, &blockforest.BlockForest{Rank: c.Rank(), NumRanks: c.Size(), Domain: forest.Domain,
				GridSize: forest.GridSize, CellsPerBlock: forest.CellsPerBlock, Periodic: forest.Periodic}, cfg)
		}
		var in *blockforest.SetupForest
		if c.Rank() == 0 {
			in = forest
		}
		bf, err := blockforest.Distribute(c, in)
		if err != nil {
			return nil, err
		}
		return sim.New(c, bf, cfg)
	}
	if c.WorldRank() >= ranks {
		// Spare rank: park until a failure recruits it (or the run ends).
		spare := func(c *comm.Comm) (*sim.Simulation, error) { return build(c, true) }
		r.Sim, r.Metrics, r.Joined, r.Err = sim.RunSpareCtx(ctx, c, ranks, spare, w.Steps, *w.Resilience)
		if !r.Joined {
			return r.Err
		}
	} else {
		// With spares parked, active ranks step on the world's leading
		// sub-communicator.
		ac := c
		if w.Spares > 0 {
			ac = c.GrowWorld(ranks)
		}
		if r.Sim, err = build(ac, false); err != nil {
			return err
		}
		if w.Prepare != nil {
			// One vote, so a rank that could not prepare takes its peers
			// with it before any of them enters a time loop it would
			// never join.
			failed := int64(0)
			if err = w.Prepare(r.Sim); err != nil {
				failed = 1
			}
			failed, verr := ac.AllreduceInt64Err(failed, comm.Max[int64])
			switch {
			case err != nil:
				return err
			case verr != nil:
				return verr
			case failed != 0:
				return errPeerFailed
			}
		}
	}
	return body(r)
}

// Execute launches the world and runs it to completion (or cancellation):
// the one place that picks the plain or fault-tolerant stepping of a
// world, uniform or refined, classifies how the run ended,
// fingerprints the fields, dumps w.VTKDir and calls each (if non-nil) on
// every rank still in the world. Recovery may have renumbered the
// communicator (shrink) or swapped members in (heal): whichever rank
// holds rank 0 at the end reports the Outcome.
func (p *Problem) Execute(ctx context.Context, w World, each func(r *Rank) error) (Outcome, error) {
	var mu sync.Mutex
	var out Outcome
	err := p.Launch(ctx, w, func(r *Rank) error {
		if !r.Joined {
			r.Metrics, r.Err = w.drive(ctx, r)
		}
		interrupted := errors.Is(r.Err, sim.ErrInterrupted)
		if r.Err != nil && !interrupted {
			return r.Err
		}
		o := Outcome{Metrics: r.Metrics, Interrupted: interrupted}
		c, err := r.finish(&o)
		if err != nil {
			return err
		}
		if w.VTKDir != "" {
			if err := r.WriteVTK(w.VTKDir); err != nil {
				return err
			}
		}
		if each != nil {
			if err := each(r); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			mu.Lock()
			out = o
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return Outcome{}, err
	}
	return out, nil
}

// drive is the run-mode switch: plain or fault-tolerant. Either steps
// through Simulation.Step, which balances the world every
// Problem.RebalanceEvery steps.
func (w *World) drive(ctx context.Context, r *Rank) (sim.Metrics, error) {
	if w.Resilience != nil {
		return r.Sim.RunResilientCtx(ctx, w.Steps, *w.Resilience)
	}
	return r.Sim.RunCtx(ctx, w.Steps)
}

// finish fingerprints the rank's runtime into o and returns the
// communicator it ended the run on. Steps are this run's, also when it
// resumed a checkpoint set, replays left out: its metrics', or how far an
// interrupted run got.
func (r *Rank) finish(o *Outcome) (c *comm.Comm, err error) {
	o.Steps = o.Metrics.Steps
	if o.Interrupted {
		o.Steps = r.Sim.Steps()
	}
	if o.Hash, err = r.Sim.FieldHash(); err == nil {
		o.Levels, err = r.Sim.LeafLevels()
	}
	return r.Sim.Comm, err
}

// WriteVTK dumps every local block's field into dir (created if missing)
// as <name>.vtk (sim.Simulation.BlockName: block_X_Y_Z, or
// block_L<level>_X_Y_Z on a refined world), placed and spaced by the
// block's box, so viewers reassemble a mixed-resolution domain in
// physical coordinates. Each rank writes only its own blocks, so callers
// need no coordination.
func (r *Rank) WriteVTK(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, bd := range r.Sim.Blocks {
		b, name := bd.Block, r.Sim.BlockName(bd)
		h := (b.AABB.Max[0] - b.AABB.Min[0]) / float64(bd.Src.Nx)
		origin := [3]float64{b.AABB.Min[0] + h/2, b.AABB.Min[1] + h/2, b.AABB.Min[2] + h/2}
		f, err := os.Create(filepath.Join(dir, name+".vtk"))
		if err != nil {
			return err
		}
		err = output.WriteVTK(f, name, bd.Src, bd.Flags, origin, h)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
