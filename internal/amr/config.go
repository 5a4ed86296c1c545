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
	"walberla/internal/boundary"
	"walberla/internal/field"
	"walberla/internal/kernels"
	"walberla/internal/lattice"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
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

// Config describes an AMR simulation.
type Config struct {
	Stencil  *lattice.Stencil
	Grid     [3]int // root blocks per axis
	Cells    [3]int // cells per block per axis (even when MaxLevel > 0)
	Periodic [3]bool

	// Choice pins the collision kernel of every leaf, each instantiated
	// with its level's relaxation time; the zero value selects per leaf
	// like the uniform solver (sim.KernelAuto: the D3Q19 TRT kernel of the
	// configured layout, the interval kernel for sparse SoA leaves).
	Choice kernels.Choice
	Layout field.Layout
	// Tau is the coarse-grid (level 0) relaxation time; zero means 0.9.
	Tau   float64
	Magic float64

	Workers int

	InitialRho      float64
	InitialVelocity [3]float64
	// InitialState, if non-nil, initializes cells from their physical
	// position (level-0 lattice units, domain [0, Grid·Cells)) and
	// overrides InitialRho/InitialVelocity. Leaves are built on the worker
	// pool, so it is called concurrently.
	InitialState func(x, y, z float64) (rho, ux, uy, uz float64)

	// Flags fills the flag field of a leaf's block, ghost layer included,
	// the uniform runtime's sim.Config.SetupFlags: a pure function of the
	// block — its identity, box and neighbourhood, all known before it is
	// called — since migration and recovery rebuild flags where a leaf
	// lands instead of shipping them. nil gives the uniform default: all
	// fluid, no-slip walls where a block has no neighbour (none on a
	// periodic domain). Boundary is the macroscopic boundary data — under
	// acoustic scaling lattice velocities are level-invariant, so one
	// config serves all levels. Like InitialState it is called
	// concurrently.
	Flags    func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField)
	Boundary boundary.Config

	Refinement Refinement

	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Stencil == nil {
		return fmt.Errorf("amr: nil stencil")
	}
	if c.Stencil.Q != 19 {
		return fmt.Errorf("amr: only the D3Q19 stencil is supported, got Q=%d", c.Stencil.Q)
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
	sc := c.simConfig()
	return sc.Validate()
}

// simConfig configures the data plane of the leaves (internal/sim). Its
// InitialState, the one of level-0 cell centers, makes windows whole
// where the leaves are initialized per cell (initBlockState).
func (c *Config) simConfig() sim.Config {
	sc := sim.Config{
		Stencil:         c.Stencil,
		Kernel:          c.Choice,
		Layout:          sim.LayoutAoS,
		Tau:             c.Tau,
		Magic:           c.Magic,
		Workers:         c.Workers,
		InitialRho:      c.InitialRho,
		InitialVelocity: c.InitialVelocity,
		SetupFlags:      c.Flags,
		Boundary:        c.Boundary,
		Tracer:          c.Tracer,
		Metrics:         c.Metrics,
	}
	if c.Layout == field.SoA {
		sc.Layout = sim.LayoutSoA
	}
	if f := c.InitialState; f != nil {
		sc.InitialState = func(x, y, z int) (float64, float64, float64, float64) {
			return f(float64(x)+0.5, float64(y)+0.5, float64(z)+0.5)
		}
	}
	return sc
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
