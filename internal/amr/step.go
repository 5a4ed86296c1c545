package amr

import (
	"context"

	"walberla/internal/resilience"
)

// Level-wise recursive timestepping (Schornbaum–Rüde). The data plane's
// Step runs it (sim.Simulation.Step): one coarse step is one sub-step of
// level 0, and a sub-step of level ℓ is
//
//	post(ℓ); sweep interior(ℓ); wait(ℓ); sweep frontier(ℓ); swap(ℓ)
//	then two sub-steps of level ℓ+1
//
// so a level-ℓ block performs 2^ℓ collide-stream sweeps per coarse
// step, refreshes its ghosts before each one and hides its remote ghost
// traffic behind the level's interior blocks, as a uniform step does.
// The coarse level sweeps first: its exchange restricts time-aligned
// fine data (the fine level has not advanced yet), and because the field
// swap leaves the pre-sweep state in Dst, both ends of the parent's
// interval are in memory when the fine sub-steps run. The first sub-step
// (phase 0) reads coarse ghosts at the interval start (the parent's Dst)
// and the second (phase 1) the midpoint average ½(Dst+Src) — linear
// temporal interpolation, so the level coupling is second order in time
// (resampler). A zeroth-order hold instead (always reading the interval
// start) leaks momentum through the interface: in a decaying flow the
// held value is systematically larger than the time-aligned one, and the
// bias accumulates as a spurious source.

// Step advances the simulation by one coarse step, running the
// refine/coarsen controller first every Refinement.Interval steps.
// Before the very first step the controller iterates to a fixpoint
// instead of passing once: 2:1 grading admits only one level per pass,
// so a sharp initial feature needs MaxLevel passes to be fully
// resolved — and resolving it before any physics runs lets each pass
// re-sample the exact initial condition (see migrate) rather than
// interpolate a coarse representation of it.
func (s *Sim) Step() error {
	if iv := s.cfg.Refinement.Interval; iv > 0 && s.step%iv == 0 {
		for pass := 0; ; pass++ {
			changed, err := s.regrade()
			if err != nil {
				return err
			}
			if !changed || s.step > 0 || pass >= s.cfg.Refinement.MaxLevel {
				break
			}
		}
	}
	if err := s.plane.Step(); err != nil {
		return err
	}
	s.step++
	s.tel.steps.Inc()
	return nil
}

// Run advances the simulation by the given number of coarse steps.
func (s *Sim) Run(steps int) error { return s.RunCtx(context.Background(), steps) }

// RunCtx is Run with cooperative cancellation: all ranks vote on the
// context state every coarse step (a background context skips the vote),
// so they stop at the same step, with an error wrapping
// resilience.ErrInterrupted.
func (s *Sim) RunCtx(ctx context.Context, steps int) error {
	for i := 0; i < steps; i++ {
		if stop, err := resilience.CancelVote(ctx, s.Comm); err != nil {
			return err
		} else if stop {
			return resilience.Interrupted(ctx)
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}
