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
	"walberla/internal/field"
	"walberla/internal/output"
	"walberla/internal/sim"
)

// World says where a problem's ranks run and how far — everything about
// one execution that is not the problem itself. The zero value is one
// in-process world of p.Ranks ranks that builds its own forest.
type World struct {
	// Forest, if non-nil, is the block structure to distribute (loaded
	// from a file, or kept by a session across residencies so a resumed
	// world lands on the identical assignment); nil builds p.BuildForest().
	Forest *blockforest.SetupForest
	// Comm configures the communicator: transport, fault plan and
	// failure-detection timeout.
	Comm comm.Options
	// Spares parks this many extra ranks beside the p.Ranks active ones;
	// heal recovery recruits them (needs Resilience in heal mode).
	Spares int
	// Refined, if non-nil, builds the refined runtime (internal/amr) on
	// every rank instead of distributing a uniform forest.
	Refined *amr.Config
	// Prepare, if non-nil, runs collectively on every active rank between
	// sim.New and the first step (restoring a checkpoint set, say); an
	// error on any rank ends the launch before the time loop.
	Prepare func(s *sim.Simulation) error

	// Steps is the length of the run; RebalanceEvery > 0 rebalances blocks
	// by measured compute time every so many steps; Resilience, if
	// non-nil, runs the fault-tolerant driver. Execute reads them; Launch
	// needs them for what a recruited spare finishes.
	Steps          int
	RebalanceEvery int
	Resilience     *sim.ResilienceConfig
	// VTKDir, if non-empty, receives one VTK file per block after Execute.
	VTKDir string
}

// Rank is one rank's runtime as Launch hands it to the body: Sim on a
// uniform world, Refined on a refined one.
type Rank struct {
	Sim     *sim.Simulation
	Refined *amr.Sim
	// Joined marks a parked spare that a heal recruited: its Sim has
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
	// Steps is the number of steps rank 0 executed (less than requested
	// when interrupted).
	Steps int
	// Levels is the final leaf count per refinement level (refined worlds
	// only; nil for uniform runs).
	Levels []int
	// Interrupted reports that the context cancelled the run at a step
	// boundary; the fields (and Hash) are the consistent state there.
	Interrupted bool
}

func (w *World) validate(ranks int) error {
	n := ranks + w.Spares
	switch {
	case w.Steps < 0 || w.RebalanceEvery < 0 || w.Spares < 0:
		return fmt.Errorf("core: negative steps, rebalance interval or spare count")
	case w.Spares > 0 && (w.Refined != nil || w.Resilience == nil ||
		w.Resilience.Mode != sim.RecoverHeal || w.Resilience.CheckpointEvery <= 0):
		return fmt.Errorf("core: %d spare ranks need heal-mode recovery with a checkpoint interval on a uniform world", w.Spares)
	case w.RebalanceEvery > 0 && (w.Resilience != nil || w.Refined != nil):
		return fmt.Errorf("core: workload rebalancing cannot be combined with the fault-tolerant driver or a refined world")
	case w.Forest != nil && w.Forest.MaxRank() >= ranks:
		return fmt.Errorf("core: the forest is balanced for %d ranks, the world has %d", w.Forest.MaxRank()+1, ranks)
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
	ranks := max(p.Ranks, 1)
	if err := w.validate(ranks); err != nil {
		return err
	}
	forest := w.Forest
	if forest == nil && w.Refined == nil {
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
	switch {
	case w.Refined != nil:
		rcfg := *w.Refined
		rcfg.Tracer, rcfg.Metrics = cfg.Tracer, cfg.Metrics
		if r.Refined, err = amr.New(c, rcfg); err != nil {
			return err
		}
	case c.WorldRank() >= ranks:
		// Spare rank: park until a failure recruits it (or the run ends).
		header := &blockforest.BlockForest{
			Domain: forest.Domain, GridSize: forest.GridSize,
			CellsPerBlock: forest.CellsPerBlock, Periodic: forest.Periodic,
		}
		r.Sim, r.Metrics, r.Joined, r.Err = sim.RunSpareCtx(ctx, c, ranks, header, cfg, w.Steps, *w.Resilience)
		if !r.Joined {
			return r.Err
		}
	default:
		// Active rank: with spares parked, the simulation runs on the
		// world's leading sub-communicator.
		ac := c
		if w.Spares > 0 {
			ac = c.GrowWorld(ranks)
		}
		var in *blockforest.SetupForest
		if ac.Rank() == 0 {
			in = forest
		}
		bf, err := blockforest.Distribute(ac, in)
		if err != nil {
			return err
		}
		if r.Sim, err = sim.New(ac, bf, cfg); err != nil {
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
// the one place that picks the plain, rebalanced or fault-tolerant
// stepping of a uniform or refined world, classifies how the run ended,
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

// drive is the run-mode switch.
func (w *World) drive(ctx context.Context, r *Rank) (sim.Metrics, error) {
	switch {
	case r.Refined != nil && w.Resilience != nil:
		rec, err := r.Refined.RunResilientCtx(ctx, w.Steps, *w.Resilience)
		return sim.Metrics{Recovery: rec}, err
	case r.Refined != nil:
		return sim.Metrics{}, r.Refined.RunCtx(ctx, w.Steps)
	case w.Resilience != nil:
		return r.Sim.RunResilientCtx(ctx, w.Steps, *w.Resilience)
	case w.RebalanceEvery == 0:
		return r.Sim.RunCtx(ctx, w.Steps)
	}
	// Chunked stepping interleaved with workload-measured rebalancing; the
	// context's step-boundary cancellation is preserved.
	var m sim.Metrics
	for remaining := w.Steps; remaining > 0; {
		chunk := min(w.RebalanceEvery, remaining)
		var err error
		if m, err = r.Sim.RunCtx(ctx, chunk); err != nil {
			return m, err
		}
		if remaining -= chunk; remaining > 0 {
			if err := r.Sim.RebalanceByWorkload(true); err != nil {
				return m, err
			}
		}
	}
	return m, nil
}

// finish fingerprints the rank's runtime into o and returns the
// communicator it ended the run on.
func (r *Rank) finish(o *Outcome) (c *comm.Comm, err error) {
	if a := r.Refined; a != nil {
		o.Hash, err = a.FieldHash()
		o.Steps, o.Levels = a.Steps(), a.LevelCounts()
		return a.Comm, err
	}
	o.Hash, err = r.Sim.FieldHash()
	o.Steps = r.Sim.Steps()
	return r.Sim.Comm, err
}

// WriteVTK dumps every local block's field into dir (created if missing)
// as block_X_Y_Z.vtk, or block_L<level>_X_Y_Z.vtk on a refined world,
// where the spacing halves per level so viewers reassemble the
// mixed-resolution domain in physical coordinates. Each rank writes only
// its own blocks, so callers need no coordination.
func (r *Rank) WriteVTK(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, src *field.PDFField, flags *field.FlagField, corner [3]float64, h float64) error {
		f, err := os.Create(filepath.Join(dir, name+".vtk"))
		if err != nil {
			return err
		}
		origin := [3]float64{corner[0] + h/2, corner[1] + h/2, corner[2] + h/2}
		err = output.WriteVTK(f, name, src, flags, origin, h)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if r.Refined != nil {
		for _, b := range r.Refined.OwnedBlocks() {
			h := 1 / float64(int(1)<<uint(b.Level()))
			name := fmt.Sprintf("block_L%d_%d_%d_%d", b.Level(), b.Idx[0], b.Idx[1], b.Idx[2])
			corner := [3]float64{float64(b.Idx[0]*b.Src.Nx) * h, float64(b.Idx[1]*b.Src.Ny) * h, float64(b.Idx[2]*b.Src.Nz) * h}
			if err := write(name, b.Src, b.Flags, corner, h); err != nil {
				return err
			}
		}
		return nil
	}
	for _, bd := range r.Sim.Blocks {
		b := bd.Block
		h := (b.AABB.Max[0] - b.AABB.Min[0]) / float64(bd.Src.Nx)
		name := fmt.Sprintf("block_%d_%d_%d", b.Coord[0], b.Coord[1], b.Coord[2])
		if err := write(name, bd.Src, bd.Flags, b.AABB.Min, h); err != nil {
			return err
		}
	}
	return nil
}
