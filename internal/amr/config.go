// Package amr implements runtime adaptive mesh refinement for the
// lattice Boltzmann framework: level-wise recursive timestepping on a
// 2:1-balanced block octree (the non-uniform-grids algorithm of
// Schornbaum & Rüde, arXiv:1508.07982), a runtime refine/coarsen
// controller driven by a flow criterion, and dynamic load balancing
// with block migration over the wire on every re-grade.
//
// A level-ℓ block halves the cell size of its parent, so under acoustic
// scaling it advances 2^ℓ sub-steps per coarse step with relaxation
// time τ_ℓ = 1/2 + 2^ℓ(τ₀ − 1/2). Level interfaces exchange ghost
// layers with sender-side resampling: a coarse owner interpolates its
// PDFs trilinearly to the fine receiver's ghost resolution, a fine
// owner averages aligned 2×2×2 cell groups down to a coarse receiver,
// and both rescale the non-equilibrium part per relaxation parity by
// the post-collision (τ_p − 1)Δt ratio of the two levels (see
// interp.go), so every wire payload lands as a uniform slab on the
// receiving side. See docs/AMR.md for the full scheme.
package amr

import (
	"fmt"
	"strings"

	"walberla/internal/blockforest"
	"walberla/internal/lattice"
	"walberla/internal/sim"
)

// maxRefineLevel is the deepest refinement level the per-level stats
// and telemetry arrays are sized for.
const maxRefineLevel = 8

// Criterion selects the flow feature driving the refine/coarsen
// controller.
type Criterion string

const (
	// CriterionGradient refines where the velocity-gradient magnitude
	// (Frobenius norm of the finite-difference Jacobian, in physical
	// units) is large.
	CriterionGradient Criterion = "gradient"
	// CriterionVorticity refines where the vorticity magnitude |∇×u|
	// (in physical units) is large.
	CriterionVorticity Criterion = "vorticity"
)

// Refinement configures the runtime refine/coarsen controller.
type Refinement struct {
	// MaxLevel caps the refinement depth; 0 disables refinement.
	MaxLevel int
	// Criterion is the flow feature evaluated per block.
	Criterion Criterion
	// RefineAbove and CoarsenBelow are the hysteresis band: a block
	// whose criterion exceeds RefineAbove is marked for refinement, one
	// below CoarsenBelow votes to coarsen, and the gap between them
	// keeps blocks from oscillating across the thresholds.
	RefineAbove  float64
	CoarsenBelow float64
	// Interval is the number of coarse steps between controller passes;
	// a pass also runs before the first step so the initial condition
	// is already resolved. 0 keeps the forest static.
	Interval int
}

// Config describes a refined world: the data plane's configuration
// (sim.Config) and what only a refined world has — its root grid and the
// refine/coarsen controller. Of the plane's settings, Tau is the
// relaxation time of level 0 (sim.Config.TauAt scales it per level), and
// InitialState, SetupFlags and Boundary serve every leaf at any level:
// InitialState takes cell centres in level-0 lattice units (domain
// [0, Grid·Cells)); SetupFlags is a pure function of the block — its
// identity, box and neighbourhood — since migration and recovery rebuild
// flags where a leaf lands instead of shipping them (nil gives all fluid,
// no-slip walls where a block has no neighbour); and under acoustic
// scaling lattice velocities are level-invariant, so one Boundary serves
// all levels.
type Config struct {
	sim.Config
	Grid     [3]int // root blocks per axis
	Cells    [3]int // cells per block per axis (even when MaxLevel > 0)
	Periodic [3]bool

	Refinement Refinement
}

// Validate normalizes the data plane's configuration (sim.Config.Validate)
// and checks what a refined world adds and what it cannot do: it runs the
// D3Q19 stencil only, with no body force and no sparse kernel. It is the
// one place these restrictions are checked.
func (c *Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	switch {
	case c.Stencil != lattice.D3Q19():
		return fmt.Errorf("amr: refined worlds run the d3q19 stencil only, got %v", c.Stencil)
	case c.Force != [3]float64{}:
		return fmt.Errorf("amr: a body force is not supported on refined worlds, got %v", c.Force)
	case c.Kernel == sim.KernelSparse:
		return fmt.Errorf("amr: the sparse kernel is not supported on refined worlds")
	}
	for d := 0; d < 3; d++ {
		if c.Grid[d] <= 0 {
			return fmt.Errorf("amr: grid size %v must be positive", c.Grid)
		}
		if c.Cells[d] < 4 {
			return fmt.Errorf("amr: cells per block %v must be at least 4", c.Cells)
		}
		if c.Refinement.MaxLevel > 0 && c.Cells[d]%2 != 0 {
			return fmt.Errorf("amr: cells per block %v must be even with refinement (2:1 interface alignment)", c.Cells)
		}
	}
	r := &c.Refinement
	if r.MaxLevel < 0 || r.MaxLevel > maxRefineLevel {
		return fmt.Errorf("amr: max level %d out of range [0,8]", r.MaxLevel)
	}
	if r.Interval < 0 {
		return fmt.Errorf("amr: refinement interval %d must not be negative", r.Interval)
	}
	if r.Interval > 0 {
		switch r.Criterion {
		case CriterionGradient, CriterionVorticity:
		default:
			return fmt.Errorf("amr: unknown criterion %q", r.Criterion)
		}
		if r.RefineAbove <= 0 {
			return fmt.Errorf("amr: refine_above %g must be positive", r.RefineAbove)
		}
		if r.CoarsenBelow < 0 || r.CoarsenBelow >= r.RefineAbove {
			return fmt.Errorf("amr: coarsen_below %g must be in [0, refine_above)", r.CoarsenBelow)
		}
	}
	return nil
}

// tauOddAt returns the relaxation time of the odd (antisymmetric)
// population parity at level l. The TRT kernels tie it to the even one
// through the magic parameter, Λ = (τ⁺−1/2)(τ⁻−1/2), so τ⁻ does NOT
// follow the 2^ℓ acoustic scaling of τ⁺ — interface rescaling of the
// odd non-equilibrium part must use the τ⁻ ratio, not the τ⁺ ratio.
// SRT relaxes both parities with τ. c is the data plane's validated
// configuration.
func tauOddAt(c *sim.Config, l int) float64 {
	if strings.HasPrefix(string(c.Kernel), "SRT") {
		return c.TauAt(l)
	}
	return 0.5 + c.Magic/(c.TauAt(l)-0.5)
}

// Leaf is one octree leaf of the AMR forest, replicated on every rank:
// identity, level-grid index and owning rank. Level ℓ subdivides every
// root block into 2^ℓ per axis, so Idx addresses the leaf on a grid of
// Grid·2^ℓ blocks.
type Leaf struct {
	ID    blockforest.BlockID
	Coord [3]int // root-tree grid coordinate
	Idx   [3]int // index on the level's block grid
	Rank  int
}

// Level returns the leaf's refinement level.
func (l Leaf) Level() int { return int(l.ID.Level) }

// leafFrom derives the full runtime descriptor from a blockforest leaf.
func leafFrom(bl blockforest.Leaf) Leaf {
	return Leaf{ID: bl.ID, Coord: bl.Coord, Idx: blockforest.LevelIndex(bl.Coord, bl.ID), Rank: bl.Rank}
}
