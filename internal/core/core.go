// Package core is the high-level façade of the framework: it wires the
// setup pipeline, the distributed block forest, and the simulation driver
// into a single Problem description and the one launcher that starts its
// SPMD world (Launch) and runs it to completion (Execute) — what the
// examples, the scenario layer, the session daemon and the command line
// tools all go through.
package core

import (
	"context"
	"fmt"

	"walberla/internal/amr"
	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/comm"
	"walberla/internal/distance"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/setup"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

// Problem describes a complete simulation: either a dense box domain
// (Grid x CellsPerBlock cells with walls or periodic boundaries) or a
// complex geometry given as a signed distance field, to be voxelized with
// boundary conditions from surface colors.
type Problem struct {
	// Geometry, if non-nil, selects the complex-geometry path: the block
	// grid is derived from the geometry bounds and Dx, BuildForest
	// voxelizes the candidate blocks once and discards those without
	// fluid, and every rank lands the kept voxels as its blocks' flags
	// (setup.FlagsFromSDF), voxelizing only a block the forest build did
	// not keep at its box — a forest from a file, or one built at another
	// Dx — then computes each block's boundary hull.
	Geometry distance.SDF
	// Dx is the lattice spacing for geometry problems.
	Dx float64

	// Grid is the block grid for dense problems.
	Grid [3]int
	// CellsPerBlock is the per-block cell grid (both paths).
	CellsPerBlock [3]int
	// Periodic marks periodic axes of dense problems.
	Periodic [3]bool
	// Refinement, with MaxLevel > 0, makes a dense problem a refined world
	// (internal/amr): its grid's blocks are the roots of a 2:1-graded
	// octree whose controller refines and coarsens at run time, on the
	// same data plane, driver and recovery as a uniform world.
	Refinement amr.Refinement

	// Stencil, Kernel, Tau, Magic, Boundary, Force and InitialVelocity
	// configure the solver as in sim.Config (nil Stencil means D3Q19).
	Stencil         *lattice.Stencil
	Kernel          sim.KernelChoice
	Layout          sim.LayoutChoice
	Tau             float64
	Magic           float64
	Boundary        boundary.Config
	Force           [3]float64
	InitialRho      float64
	InitialVelocity [3]float64
	// InitialState optionally initializes every cell individually, from
	// its centre in level-0 lattice units (cell (i, j, k) at (i+½, j+½,
	// k+½)), e.g. for analytic validation flows. It is called concurrently,
	// from every rank and worker (sim.Config.InitialState).
	InitialState func(x, y, z float64) (rho, ux, uy, uz float64)
	// SetupFlags overrides the per-block flag setup (e.g. marking a moving
	// lid); nil gives geometry problems the flags of Geometry. It is
	// called concurrently, from every rank and worker
	// (sim.Config.SetupFlags).
	SetupFlags func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField)

	// Ranks is the number of SPMD processes; zero means one.
	Ranks int
	// Workers is the intra-rank worker count for block sweeps and
	// pack/unpack (the hybrid MPI+threads mode); zero means one.
	Workers int
	// RebalanceEvery > 0 balances the world by measured kernel time every
	// so many steps, under every driver (sim.Config.RebalanceEvery).
	RebalanceEvery int
	// Seed drives randomized setup stages.
	Seed int64
	// TelemetryFor, if non-nil, supplies each rank's tracer and metrics
	// registry (either may be nil) before the simulation is built, wiring
	// span tracing and counters through the run (see docs/TELEMETRY.md).
	// Called once per rank from that rank's goroutine.
	TelemetryFor func(rank int) (*telemetry.Tracer, *telemetry.Registry)
	// UseGraphPartitioner selects METIS-style balancing; Morton curve
	// otherwise.
	UseGraphPartitioner bool
	// MemoryLimitCells caps allocated cells per rank during balancing.
	MemoryLimitCells float64

	// voxels are the kept blocks' voxels of the last geometry forest
	// BuildForest built, which SimConfig's flag hook lands.
	voxels *setup.Voxels
}

// BuildForest constructs the balanced global forest on the calling
// goroutine (rank 0 does this before broadcasting; the scenario and
// session layers build it once and reuse it across world restarts so a
// resumed session restores onto the identical block assignment). A
// geometry problem keeps the kept blocks' voxels for SimConfig's flag
// hook, so BuildForest must not run while a world of p is being built. A
// refined problem has none: every rank builds its roots (amr.New).
func (p *Problem) BuildForest() (*blockforest.SetupForest, error) {
	ranks := p.Ranks
	if ranks == 0 {
		ranks = 1
	}
	switch {
	case p.Refinement.MaxLevel > 0:
		return nil, nil
	case p.Geometry != nil:
		if p.Dx <= 0 {
			return nil, fmt.Errorf("core: geometry problems need Dx > 0")
		}
		f, _, vox, err := setup.BuildForest(p.Geometry, setup.Options{
			CellsPerBlock:       p.CellsPerBlock,
			Dx:                  p.Dx,
			Ranks:               ranks,
			MemoryLimitCells:    p.MemoryLimitCells,
			Seed:                p.Seed,
			UseGraphPartitioner: p.UseGraphPartitioner,
		})
		if err != nil {
			return nil, err
		}
		p.voxels = vox
		return f, nil
	}
	for d := 0; d < 3; d++ {
		if p.Grid[d] <= 0 || p.CellsPerBlock[d] <= 0 {
			return nil, fmt.Errorf("core: dense problems need positive Grid and CellsPerBlock")
		}
	}
	domain := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{
		float64(p.Grid[0] * p.CellsPerBlock[0]),
		float64(p.Grid[1] * p.CellsPerBlock[1]),
		float64(p.Grid[2] * p.CellsPerBlock[2]),
	})
	f := blockforest.NewSetupForest(domain, p.Grid, p.CellsPerBlock, p.Periodic)
	f.BalanceMorton(ranks)
	return f, nil
}

// SimConfig assembles the sim.Config of this problem (Launch adds each
// rank's telemetry); sim.New normalizes it with Config.Validate.
func (p *Problem) SimConfig() sim.Config {
	cfg := sim.Config{
		Stencil:         p.Stencil,
		Kernel:          p.Kernel,
		Layout:          p.Layout,
		Tau:             p.Tau,
		Magic:           p.Magic,
		Boundary:        p.Boundary,
		Force:           p.Force,
		InitialRho:      p.InitialRho,
		InitialVelocity: p.InitialVelocity,
		InitialState:    p.InitialState,
		SetupFlags:      p.SetupFlags,
		Workers:         p.Workers,
		RebalanceEvery:  p.RebalanceEvery,
	}
	if p.Geometry != nil && cfg.SetupFlags == nil {
		cfg.SetupFlags = setup.FlagsFromSDF(p.Geometry, p.voxels)
	}
	return cfg
}

// AMRConfig assembles the refined world's configuration of this problem:
// SimConfig on the dense grid's roots, with its refinement section;
// amr.New normalizes it with Config.Validate.
func (p *Problem) AMRConfig() amr.Config {
	return amr.Config{Config: p.SimConfig(), Grid: p.Grid, Cells: p.CellsPerBlock, Periodic: p.Periodic, Refinement: p.Refinement}
}

// Run executes the problem for the given number of time steps and returns
// the globally reduced metrics.
func (p *Problem) Run(steps int) (sim.Metrics, error) {
	var m sim.Metrics
	err := p.RunEach(steps, func(c *comm.Comm, s *sim.Simulation, metrics sim.Metrics) {
		if c.Rank() == 0 {
			m = metrics
		}
	})
	return m, err
}

// RunEach executes the problem and invokes fn on every rank after the
// time loop, giving access to the local simulation state (for probing
// fields, writing output, or assertions in tests). It is Execute on the
// default World: in-process ranks, plain stepping.
func (p *Problem) RunEach(steps int, fn func(c *comm.Comm, s *sim.Simulation, m sim.Metrics)) error {
	_, err := p.Execute(context.Background(), World{Steps: steps}, func(r *Rank) error {
		if fn != nil {
			fn(r.Sim.Comm, r.Sim, r.Metrics)
		}
		return nil
	})
	return err
}

// LidDrivenCavity returns a ready-to-run lid-driven cavity problem: a
// closed box of grid x cells lattice cells whose +z lid moves with the
// given velocity — the scenario of the paper's dense weak scaling study.
func LidDrivenCavity(grid, cells [3]int, lidVelocity float64, ranks int) *Problem {
	return &Problem{
		Grid:          grid,
		CellsPerBlock: cells,
		Tau:           0.65,
		Boundary:      boundary.Config{WallVelocity: [3]float64{lidVelocity, 0, 0}},
		Ranks:         ranks,
		SetupFlags:    CavityFlags,
	}
}

// CavityFlags marks all domain faces no-slip except the +z lid, which
// moves (VelocityBounce).
func CavityFlags(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
	flags.Fill(field.Fluid)
	for f := lattice.FaceW; f < lattice.NumFaces; f++ {
		nx, ny, nz := f.Normal()
		if b.Neighbor([3]int{nx, ny, nz}) != nil {
			continue
		}
		t := field.NoSlip
		if f == lattice.FaceT {
			t = field.VelocityBounce
		}
		sim.MarkGhostFace(flags, f, t)
	}
}

// ChannelFlags returns a setup hook for channel flow along +x: velocity
// inflow at -x, pressure outflow at +x, no-slip walls elsewhere, plus an
// optional box obstacle given in global cell coordinates.
func ChannelFlags(obstacleMin, obstacleMax [3]int) func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
	return func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
		flags.Fill(field.Fluid)
		for f := lattice.FaceW; f < lattice.NumFaces; f++ {
			nx, ny, nz := f.Normal()
			if b.Neighbor([3]int{nx, ny, nz}) != nil {
				continue
			}
			t := field.NoSlip
			switch f {
			case lattice.FaceW:
				t = field.VelocityBounce
			case lattice.FaceE:
				t = field.PressureBounce
			}
			sim.MarkGhostFace(flags, f, t)
		}
		// Obstacle: mark cells of this block covered by the global box,
		// including the ghost ring so neighboring blocks see the obstacle
		// cells in their own flag fields (their boundary sweeps own the
		// links into their fluid cells).
		base := [3]int{
			b.Coord[0] * b.Cells[0],
			b.Coord[1] * b.Cells[1],
			b.Coord[2] * b.Cells[2],
		}
		g := flags.Ghost
		for z := -g; z < b.Cells[2]+g; z++ {
			for y := -g; y < b.Cells[1]+g; y++ {
				for x := -g; x < b.Cells[0]+g; x++ {
					gx, gy, gz := base[0]+x, base[1]+y, base[2]+z
					if gx >= obstacleMin[0] && gx < obstacleMax[0] &&
						gy >= obstacleMin[1] && gy < obstacleMax[1] &&
						gz >= obstacleMin[2] && gz < obstacleMax[2] {
						flags.Set(x, y, z, field.NoSlip)
					}
				}
			}
		}
	}
}
