package amr

import (
	"context"
	"fmt"
	"time"

	"walberla/internal/resilience"
	"walberla/internal/telemetry"
)

// Level-wise recursive timestepping (Schornbaum–Rüde): one coarse step
// is advance(0), and
//
//	advance(ℓ): exchange(ℓ); sweep(ℓ); advance(ℓ+1, 0); advance(ℓ+1, 1)
//
// so a level-ℓ block performs 2^ℓ collide-stream sweeps per coarse
// step and refreshes its ghosts before each one. The coarse level
// sweeps first: its exchange restricts time-aligned fine data (the
// fine level has not advanced yet), and because the field swap leaves
// the pre-sweep state in Dst, both ends of the parent's interval are
// in memory when the fine sub-steps run. The first sub-step (phase 0)
// reads coarse ghosts at the interval start (the parent's Dst) and the
// second (phase 1) the midpoint average ½(Dst+Src) — linear temporal
// interpolation, so the level coupling is second order in time. A
// zeroth-order hold instead (always reading the interval start) leaks
// momentum through the interface: in a decaying flow the held value is
// systematically larger than the time-aligned one, and the bias
// accumulates as a spurious source.

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
	if err := s.advance(0, 0); err != nil {
		return err
	}
	s.step++
	s.tel.steps.Inc()
	return nil
}

// advance runs one sub-step of one level; phase says which half of the
// parent's interval this call covers and selects the temporal
// interpolation of coarse→fine ghost transfers (level 0 has no parent
// and ignores it).
func (s *Sim) advance(level, phase int) error {
	t0 := time.Now()
	lt0 := s.tel.driver.Start()
	s.phase = phase
	if err := s.plane.ExchangeLevel(level); err != nil {
		return fmt.Errorf("amr: level %d exchange: %w", level, err)
	}
	s.tel.driver.Span(telemetry.PhaseAMRExchange, s.step, int32(level), lt0)
	xNs := time.Since(t0).Nanoseconds()
	s.stats.ExchangeNs[level] += xNs
	s.tel.exchangeNs[level].Add(xNs)

	t1 := time.Now()
	lt1 := s.tel.driver.Start()
	s.plane.SweepLevel(level)
	s.tel.driver.Span(telemetry.PhaseAMRSweep, s.step, int32(level), lt1)
	ns := time.Since(t1).Nanoseconds()
	s.stats.SweepNs[level] += ns
	s.tel.sweepNs[level].Add(ns)

	for phase := 0; level < s.maxLevel && phase < 2; phase++ {
		if err := s.advance(level+1, phase); err != nil {
			return err
		}
	}
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
