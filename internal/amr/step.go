package amr

import "walberla/internal/blockforest"

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
// (refiner.Resample). A zeroth-order hold instead (always reading the
// interval start) leaks momentum through the interface: in a decaying
// flow the held value is systematically larger than the time-aligned
// one, and the bias accumulates as a spurious source.

// refiner is the refined world's sim.Refiner: the controller and its leaf
// set as the data plane sees them, and the transfers between levels
// (Resample, interp.go).
type refiner struct{ *Sim }

// BeforeStep runs the refine/coarsen controller before every
// Refinement.Interval-th coarse step. Before the very first step the
// controller iterates to a fixpoint instead of passing once: 2:1 grading
// admits only one level per pass, so a sharp initial feature needs
// MaxLevel passes to be fully resolved — and resolving it before any
// physics runs lets each pass re-sample the exact initial condition (see
// migrate) rather than interpolate a coarse representation of it.
func (r refiner) BeforeStep(step int) error {
	iv := r.cfg.Refinement.Interval
	if iv == 0 || step%iv != 0 {
		return nil
	}
	for pass := 0; ; pass++ {
		changed, err := r.regrade()
		if err != nil || !changed || step > 0 || pass >= r.cfg.Refinement.MaxLevel {
			return err
		}
	}
}

// Depth is the deepest level a leaf may have: the controller's cap, or
// with the controller off the deepest level ApplyMarks may grade to.
func (r refiner) Depth() int {
	if m := r.cfg.Refinement.MaxLevel; m > 0 {
		return m
	}
	return maxRefineLevel
}

// Landed takes the leaf set a restore landed.
func (r refiner) Landed(leaves []blockforest.Leaf) { r.setForest(leaves) }

// Reset rebuilds the initial uniform forest.
func (r refiner) Reset() error { return r.buildInitialForest() }

// Step advances the simulation by one coarse step: the data plane's Step,
// which runs the controller first (BeforeStep).
func (s *Sim) Step() error { return s.plane.Step() }
