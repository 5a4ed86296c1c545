package scenario

import (
	"fmt"
	"math"

	"walberla/internal/amr"
	"walberla/internal/boundary"
	"walberla/internal/core"
	"walberla/internal/field"
	"walberla/internal/kernels"
	"walberla/internal/sim"
)

// Runtime adaptive mesh refinement support. A scenario with
// refinement.max_level > 0 executes on the AMR driver (internal/amr):
// level-wise timestepping on a 2:1-graded octree with a runtime
// refine/coarsen controller, recovering in every resilience.mode (rewind,
// shrink, heal). The AMR driver constrains the schema — D3Q19 only, dense
// examples only (no tree/SDF geometry, no obstacle), no sparse kernels
// and no workload rebalancing (re-grades rebalance by construction) — and
// validateRefinement rejects the unsupported combinations loudly.

// validateRefinement applies the AMR-specific schema restrictions and
// delegates numeric checks to amr.Config.Validate. Called from Validate
// once the generic sections are normalized.
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
	if sc.Lattice.Stencil != "d3q19" {
		return fmt.Errorf("scenario: refinement requires lattice.stencil d3q19, got %q", sc.Lattice.Stencil)
	}
	if kernels.Choice(sc.Collision.Kernel) == kernels.ChoiceSparse {
		return fmt.Errorf("scenario: refinement does not support the sparse kernel %q", sc.Collision.Kernel)
	}
	if sc.Run.RebalanceEvery > 0 {
		return fmt.Errorf("scenario: run.rebalance_every is not supported with refinement (re-grades rebalance by construction)")
	}
	if sc.Physics.Force != [3]float64{} {
		return fmt.Errorf("scenario: physics.force is not supported with refinement")
	}
	_, err := sc.AMRConfig()
	return err
}

// AMR reports whether the scenario runs on the AMR driver.
func (sc *Scenario) AMR() bool { return sc.Refinement.MaxLevel > 0 }

// AMRConfig maps a validated scenario onto the AMR driver's
// configuration. The mapping is pure, like Problem.
func (sc *Scenario) AMRConfig() (amr.Config, error) {
	tau := sc.Collision.Tau
	if tau == 0 {
		tau = 0.9
	}
	cfg := amr.Config{
		Stencil:         sc.stencil(),
		Grid:            sc.Resolution.Grid,
		Cells:           sc.Resolution.CellsPerBlock,
		Tau:             tau,
		Magic:           sc.Collision.Magic,
		Workers:         sc.Parallel.Workers,
		InitialRho:      sc.Physics.InitialRho,
		InitialVelocity: sc.Physics.InitialVelocity,
		Refinement: amr.Refinement{
			MaxLevel:     sc.Refinement.MaxLevel,
			Criterion:    amr.Criterion(sc.Refinement.Criterion),
			RefineAbove:  sc.Refinement.RefineAbove,
			CoarsenBelow: sc.Refinement.CoarsenBelow,
			Interval:     sc.Refinement.Interval,
		},
	}
	switch sim.LayoutChoice(sc.Collision.Layout) {
	case sim.LayoutAoS:
		cfg.Layout = field.AoS
	default:
		// Auto resolves to the vectorizable layout: the split SoA kernel
		// is the distributed hot path.
		cfg.Layout = field.SoA
	}
	if kc := kernels.Choice(sc.Collision.Kernel); kc != kernels.Choice(sim.KernelAuto) {
		cfg.Choice = kc
	}
	switch sc.Geometry.Example {
	case "taylor-green":
		cfg.Periodic = [3]bool{true, true, true}
		amp := sc.Geometry.Amplitude
		kx := 2 * math.Pi / float64(sc.Resolution.Grid[0]*sc.Resolution.CellsPerBlock[0])
		ky := 2 * math.Pi / float64(sc.Resolution.Grid[1]*sc.Resolution.CellsPerBlock[1])
		cfg.InitialState = func(x, y, z float64) (rho, ux, uy, uz float64) {
			return 1, amp * math.Cos(x*kx) * math.Sin(y*ky), -amp * math.Sin(x*kx) * math.Cos(y*ky), 0
		}
	case "cavity":
		cfg.Boundary = boundary.Config{WallVelocity: [3]float64{sc.Geometry.LidVelocity, 0, 0}}
		cfg.Flags = core.CavityFlags
	case "channel":
		cfg.Boundary = boundary.Config{WallVelocity: [3]float64{sc.Geometry.InflowVelocity, 0, 0}, Density: 1}
		cfg.Flags = core.ChannelFlags([3]int{}, [3]int{})
	default:
		return amr.Config{}, fmt.Errorf("scenario: refinement does not support the %s example", sc.Geometry.Example)
	}
	if err := cfg.Validate(); err != nil {
		return amr.Config{}, fmt.Errorf("scenario: %w", err)
	}
	return cfg, nil
}
