package scenario

import (
	"fmt"

	"walberla/internal/amr"
)

// Runtime adaptive mesh refinement support. A scenario with
// refinement.max_level > 0 runs a refined world (internal/amr):
// level-wise timestepping on a 2:1-graded octree with a runtime
// refine/coarsen controller, on the same data plane, driver and recovery
// modes (rewind, shrink, heal) as a uniform one. What the refined world
// cannot do — another stencil, a body force, the sparse kernel — is
// amr.Config.Validate's to refuse; validateRefinement refuses only what
// the schema itself cannot map onto it.

// validateRefinement applies the schema's refinement rules: defaults, the
// examples a refined world can run, and no workload rebalancing. It then
// delegates the solver-level checks to amr.Config.Validate (AMRConfig).
// Called from Validate once the generic sections are normalized.
func (sc *Scenario) validateRefinement() error {
	r := &sc.Refinement
	if r.MaxLevel == 0 {
		if *r != (RefinementSpec{}) {
			return fmt.Errorf("scenario: refinement needs max_level > 0 (got %+v)", *r)
		}
		return nil
	}
	if r.MaxLevel < 0 {
		return fmt.Errorf("scenario: refinement.max_level must be non-negative, got %d", r.MaxLevel)
	}
	switch r.Criterion {
	case "":
		r.Criterion = "gradient"
	case "gradient", "vorticity":
	default:
		return fmt.Errorf("scenario: unknown refinement.criterion %q (want gradient or vorticity)", r.Criterion)
	}
	if r.Interval == 0 {
		r.Interval = 4
	}
	if sc.Geometry.Example == "tree" {
		return fmt.Errorf("scenario: refinement does not support the tree example (SDF geometry needs a uniform forest)")
	}
	if sc.Geometry.Obstacle != nil {
		return fmt.Errorf("scenario: geometry.obstacle is not supported with refinement")
	}
	_, err := sc.AMRConfig()
	return err
}

// AMR reports whether the scenario runs a refined world.
func (sc *Scenario) AMR() bool { return sc.Refinement.MaxLevel > 0 }

// AMRConfig is the refined world's configuration of a validated
// scenario (core.Problem.AMRConfig), checked by amr.Config.Validate. The
// mapping is pure, like Problem.
func (sc *Scenario) AMRConfig() (amr.Config, error) {
	p, err := sc.Problem()
	if err != nil {
		return amr.Config{}, err
	}
	cfg := p.AMRConfig()
	if err := cfg.Validate(); err != nil {
		return amr.Config{}, fmt.Errorf("scenario: %w", err)
	}
	return cfg, nil
}
