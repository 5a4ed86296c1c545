// Coronary tree end-to-end: the complete complex-geometry pipeline of the
// paper on the synthetic coronary artery tree — geometry generation,
// block classification with discarding of empty blocks, METIS-style load
// balancing on the fluid-cell workload graph, per-rank voxelization with
// boundary conditions from surface colors, and a blood-flow simulation
// with the sparse compressed-row kernel.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"walberla/internal/analysis"
	"walberla/internal/boundary"
	"walberla/internal/core"
	"walberla/internal/sim"
	"walberla/internal/vascular"
)

func main() {
	const ranks = 4

	// 1. Synthetic coronary tree (substitute for the CTA dataset).
	params := vascular.DefaultParams()
	params.Depth = 3
	tree := vascular.Generate(params)
	fmt.Printf("synthetic coronary tree: %d segments, %d outlets, fill fraction %.2f%% of bounding box\n",
		len(tree.Segments), tree.Leaves(), 100*tree.FillFraction())
	sdf, err := tree.SDF()
	if err != nil {
		log.Fatal(err)
	}

	// 2. The problem: inflow at the root, outflow at the leaves, sparse
	// interval kernel.
	cells := [3]int{12, 12, 12}
	problem := &core.Problem{
		Geometry:      sdf,
		Dx:            params.RootRadius / 3,
		CellsPerBlock: cells,
		Kernel:        sim.KernelSparse,
		Tau:           0.6,
		Boundary: boundary.Config{
			WallVelocity: [3]float64{0, 0, 0.02}, // inflow along the root axis (+z)
			Density:      1.0,
		},
		Ranks:               ranks,
		Seed:                1,
		UseGraphPartitioner: true,
	}

	// 3. Initialization, once: block grid over the geometry,
	// classification, fluid-cell workloads, graph-partitioned static load
	// balancing. The ranks land the voxels this build kept.
	forest, err := problem.BuildForest()
	if err != nil {
		log.Fatal(err)
	}
	g := forest.GridSize
	workloads := forest.RankWorkloads(ranks)
	fluid := 0.0
	for _, w := range workloads {
		fluid += w
	}
	fmt.Printf("partitioning: grid %v, %d blocks kept (%d discarded), %.1f%% fluid\n",
		g, forest.NumBlocks(), g[0]*g[1]*g[2]-forest.NumBlocks(), 100*fluid/float64(forest.TotalCells()))
	fmt.Printf("per-rank fluid-cell workloads after balancing: %v\n", workloads)

	// 4. Distributed simulation on that forest.
	var mu sync.Mutex
	var metrics sim.Metrics
	var inletFlux, residual float64
	var fluxProfile []float64
	_, err = problem.Execute(context.Background(), core.World{Forest: forest, Steps: 400}, func(rk *core.Rank) error {
		c, s, m := rk.Sim.Comm, rk.Sim, rk.Metrics
		// Collective measurements first — no lock may be held across a
		// collective call (every rank must reach it).
		// Volumetric flux through cross-sections along the tree axis:
		// the inlet plane and a few planes downstream.
		nzTotal := s.Forest.GridSize[2] * cells[2]
		var fluxes []float64
		for _, frac := range []float64{0.05, 0.25, 0.5, 0.75} {
			fluxes = append(fluxes, analysis.PlaneFlux(c, s, analysis.AxisZ, int(frac*float64(nzTotal))))
		}
		// Convergence state of the run.
		r := analysis.NewResidual()
		r.Update(c, s)
		if _, err := s.Run(20); err != nil {
			return err
		}
		res := r.Update(c, s)
		if c.Rank() != 0 {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		metrics = m
		fluxProfile = fluxes
		inletFlux = fluxes[0]
		residual = res
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("simulation:", metrics)
	fmt.Printf("MFLUPS: %.2f (fluid cells only), MLUPS: %.2f (all traversed cells)\n",
		metrics.MFLUPS, metrics.MLUPS)
	fmt.Printf("flux through cross-sections at 5%%/25%%/50%%/75%% of the tree height: %.4f %.4f %.4f %.4f\n",
		fluxProfile[0], fluxProfile[1], fluxProfile[2], fluxProfile[3])
	fmt.Printf("velocity-field residual over 20 further steps: %.2e\n", residual)
	if inletFlux <= 0 {
		log.Fatal("no through-flow developed")
	}
}
