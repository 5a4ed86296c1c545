package main

import (
	"fmt"
	"math"

	"walberla/internal/core"
	"walberla/internal/kernels"
	"walberla/internal/perfmodel"
	"walberla/internal/scaling"
	"walberla/internal/setup"
	"walberla/internal/sim"
	"walberla/internal/units"
	"walberla/internal/vascular"
)

// coronaryTree builds the synthetic coronary tree used by the geometry
// figures.
func coronaryTree() *vascular.Tree {
	p := vascular.DefaultParams()
	p.Depth = 5
	if *quick {
		p.Depth = 4
	}
	return vascular.Generate(p)
}

// figure1 reproduces the domain partitioning study of Figure 1: a target
// of one block per process, the binary search yielding slightly fewer
// blocks than processes (the paper: 512 processes / 485 blocks on one
// nodeboard, 458752 / 458184 on the whole machine).
func figure1() {
	header("Figure 1: coronary tree domain partitioning (one block per process)")
	tree := coronaryTree()
	sdf, err := tree.SDF()
	if err != nil {
		panic(err)
	}
	cells := [3]int{16, 16, 16}
	targets := []int{128, 512, 2048}
	if *quick {
		targets = []int{64, 256}
	}
	fmt.Println("processes\tblocks\tblocks/processes\tdx\tfluid_fraction")
	for _, target := range targets {
		dx, blocks, err := setup.FindWeakScalingDx(sdf, cells, target, 20)
		if err != nil {
			panic(err)
		}
		f, stats, _, err := setup.BuildForest(sdf, setup.Options{
			CellsPerBlock: cells, Dx: dx, Ranks: target, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		_ = f
		fmt.Printf("%d\t%d\t%.3f\t%.5g\t%.4f\n",
			target, blocks, float64(blocks)/float64(target), dx, stats.FluidFraction)
	}
	fmt.Println("# paper: 512 processes -> 485 blocks; 458752 processes -> 458184 blocks")
}

// figure2 demonstrates the two-stage domain partitioning: first the
// domain is divided into blocks (with blocks outside the geometry
// discarded), then the blocks are filled with their part of the global
// grid (voxelization) — the separation that lets the framework set up
// trillion-cell domains without ever materializing the full grid.
func figure2() {
	header("Figure 2: two-stage domain partitioning")
	tree := coronaryTree()
	sdf, err := tree.SDF()
	if err != nil {
		panic(err)
	}
	cells := [3]int{16, 16, 16}
	dx, _, err := setup.FindWeakScalingDx(sdf, cells, 128, 14)
	if err != nil {
		panic(err)
	}
	// Stage 1: block division (cheap, no cell data exists yet).
	grid, _ := setup.GridForDx(sdf.Bounds(), cells, dx)
	candidates := grid[0] * grid[1] * grid[2]
	f, stats, _, err := setup.BuildForest(sdf, setup.Options{
		CellsPerBlock: cells, Dx: dx, Ranks: 8, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	_ = f
	fmt.Printf("stage 1 (block division):   grid %v = %d candidate blocks, %d kept, %d discarded\n",
		grid, candidates, stats.Blocks, stats.DiscardedBlocks)
	fmt.Printf("stage 1 memory: %d block descriptors (no cell data)\n", stats.Blocks)
	// Stage 2: grid generation within the kept blocks only.
	perBlock := cells[0] * cells[1] * cells[2]
	fmt.Printf("stage 2 (grid generation):  %d cells allocated (%d per block) of %d the full grid would need\n",
		stats.TotalCells, perBlock, int64(candidates)*int64(perBlock))
	fmt.Printf("stage 2 fluid cells: %d (%.2f%% of allocated)\n", stats.FluidCells, 100*stats.FluidFraction)
	fmt.Printf("# memory saving of the two-stage approach: %.1fx\n",
		float64(candidates)*float64(perBlock)/float64(stats.TotalCells))
}

// figure3 reproduces the single-node kernel comparison: measured host
// curves for the six kernels (ranking claim) and modeled curves for the
// two machines of the paper.
func figure3() {
	header("Figure 3 (host measurement): kernel MLUPS vs threads, split rows " + kernels.RowISA())
	edge, steps := 48, 12
	if *quick {
		edge, steps = 32, 4
	}
	kernelChoices := []sim.KernelChoice{
		sim.KernelGenericSRT, sim.KernelGenericTRT,
		sim.KernelD3Q19SRT, sim.KernelD3Q19TRT,
		sim.KernelSplitSRT, sim.KernelSplitTRT,
	}
	maxThreads := core.MaxThreads()
	if maxThreads > 8 {
		maxThreads = 8
	}
	fmt.Println("kernel\tthreads\tMLUPS")
	for _, k := range kernelChoices {
		for th := 1; th <= maxThreads; th *= 2 {
			r := core.MeasureKernelMLUPS(k, edge, th, steps)
			fmt.Printf("%s\t%d\t%.2f\n", r.Kernel, r.Threads, r.MLUPS)
		}
	}
	// Host roofline, by the paper's own methodology: measured STREAM
	// bandwidth over 456 B per cell update.
	bw := core.MeasureStreamBandwidth(64, 3)
	fmt.Printf("# host STREAM copy bandwidth %.1f GiB/s -> roofline %.1f MLUPS\n",
		bw, core.HostRooflineMLUPS(bw))

	header("Figure 3a (model): SuperMUC socket")
	printKernelModel(perfmodel.SuperMUCSocket(), 1)
	header("Figure 3b (model): JUQUEEN node, 4-way SMT")
	printKernelModel(perfmodel.JUQUEENNode(), 4)
}

func printKernelModel(m *perfmodel.Machine, smt int) {
	fmt.Println("kernel\tcores\tMLUPS")
	for _, k := range []perfmodel.KernelClass{perfmodel.KernelGeneric, perfmodel.KernelD3Q19, perfmodel.KernelSIMD} {
		for _, c := range []perfmodel.CollisionClass{perfmodel.CollisionSRT, perfmodel.CollisionTRT} {
			for n := 1; n <= m.Cores; n++ {
				fmt.Printf("%s %s\t%d\t%.1f\n", c, k, n, perfmodel.KernelMLUPS(m, k, c, n, smt))
			}
		}
	}
	fmt.Printf("# roofline: %.1f MLUPS\n", m.Roofline())
}

// figure4 reproduces the ECM study: model components, model-vs-frequency
// curves at 2.7 and 1.6 GHz, and the energy optimum.
func figure4() {
	header("Figure 4: ECM model for the TRT kernel on SuperMUC")
	m := perfmodel.SuperMUCSocket()
	e := perfmodel.NewECM(m)
	fmt.Printf("T_core\t%.0f cycles / 8 LUP\n", e.TCore())
	fmt.Printf("T_cache\t%.0f cycles / 8 LUP (57 lines x 2 cycles x 2 hops)\n", e.TCache())
	fmt.Printf("T_mem(2.7GHz)\t%.0f cycles / 8 LUP\n", e.TMem())
	fmt.Println("freq_GHz\tcores\tMLUPS_model")
	for _, f := range []float64{2.7, 1.6} {
		ef := e.AtFrequency(f)
		for n := 1; n <= m.Cores; n++ {
			fmt.Printf("%.1f\t%d\t%.1f\n", f, n, ef.MLUPS(n))
		}
	}
	full27 := e.MLUPS(m.Cores)
	full16 := e.AtFrequency(1.6).MLUPS(m.Cores)
	fmt.Printf("# roofline SuperMUC %.1f MLUPS (paper: 87.8), JUQUEEN %.1f (paper: 76.2)\n",
		m.Roofline(), perfmodel.JUQUEENNode().Roofline())
	fmt.Printf("# 1.6 GHz performance ratio %.3f (paper: 0.93), saturation at %d cores (2.7 GHz: %d)\n",
		full16/full27, e.AtFrequency(1.6).SaturationCores(), e.SaturationCores())
	em := perfmodel.NewEnergyModel(m)
	fmt.Println("freq_GHz\trel_power\trel_energy_per_LUP")
	freqs := []float64{1.2, 1.4, 1.6, 1.8, 2.0, 2.3, 2.7}
	for _, f := range freqs {
		fmt.Printf("%.1f\t%.3f\t%.3f\n", f, em.RelativePower(f), em.RelativeEnergyPerLUP(f))
	}
	fmt.Printf("# optimal frequency %.1f GHz, energy saving %.0f%% (paper: 1.6 GHz, 25%%)\n",
		em.OptimalFrequency(freqs), 100*(1-em.RelativeEnergyPerLUP(1.6)))
}

// figure5 reproduces the SMT study on the JUQUEEN node.
func figure5() {
	header("Figure 5: JUQUEEN TRT kernel vs SMT level (model)")
	m := perfmodel.JUQUEENNode()
	fmt.Println("smt\tcores\tMLUPS")
	for _, smt := range []int{1, 2, 4} {
		for n := 1; n <= m.Cores; n++ {
			fmt.Printf("%d-way\t%d\t%.1f\n", smt, n, perfmodel.KernelMLUPS(m, perfmodel.KernelSIMD, perfmodel.CollisionTRT, n, smt))
		}
	}
}

// figure6 reproduces the dense weak scaling: model projections for both
// machines and all hybrid configurations, plus a real distributed weak
// scaling measurement through the in-process runtime.
func figure6() {
	header("Figure 6a (model): SuperMUC dense weak scaling, 3.43e6 cells/core")
	printWeak(scaling.SuperMUC(), []scaling.NodeConfig{{Processes: 16, Threads: 1}, {Processes: 4, Threads: 4}, {Processes: 2, Threads: 8}}, 3.43e6, 32, 1<<17, nil)
	header("Figure 6b (model): JUQUEEN dense weak scaling, 1.728e6 cells/core")
	printWeak(scaling.JUQUEEN(), []scaling.NodeConfig{{Processes: 64, Threads: 1}, {Processes: 16, Threads: 4}, {Processes: 8, Threads: 8}}, 1.728e6, 32, 1<<19, []int{458752})

	// In-text aggregate statements derived from the projected peaks.
	smucPeak := scaling.DenseWeakScaling(scaling.SuperMUC(),
		scaling.NodeConfig{Processes: 16, Threads: 1}, 3.43e6, []int{1 << 17})[0]
	jqPeak := scaling.DenseWeakScaling(scaling.JUQUEEN(),
		scaling.NodeConfig{Processes: 64, Threads: 1}, 1.728e6, []int{458752})[0]
	const flopsPerLUP = 198
	smucM := perfmodel.SuperMUCSocket()
	jqM := perfmodel.JUQUEENNode()
	fmt.Printf("# SuperMUC 2^17 cores: %.0f GLUPS, %.1f%% of aggregate bandwidth (paper: 837, 54.2%%), %.0f TFLOPS = %.1f%% of peak (paper: 166, ~5%%)\n",
		smucPeak.TotalMLUPS/1e3, 100*smucM.BandwidthUtilization(smucPeak.TotalMLUPS, 1<<17),
		perfmodel.FLOPRate(smucPeak.TotalMLUPS, flopsPerLUP)/1e3,
		100*smucM.PercentOfPeak(smucPeak.TotalMLUPS, 1<<17, flopsPerLUP))
	fmt.Printf("# JUQUEEN full machine: %.2f TLUPS, %.1f%% of aggregate bandwidth (paper: 1.93, 67.4%%), %.0f TFLOPS = %.1f%% of peak (paper: 383, ~6.5%%)\n",
		jqPeak.TotalMLUPS/1e6, 100*jqM.BandwidthUtilization(jqPeak.TotalMLUPS, 458752),
		perfmodel.FLOPRate(jqPeak.TotalMLUPS, flopsPerLUP)/1e3,
		100*jqM.PercentOfPeak(jqPeak.TotalMLUPS, 458752, flopsPerLUP))

	header("Figure 6 (host measurement): real weak scaling over ranks (lid-driven cavity)")
	edge := 24
	steps := 20
	if *quick {
		edge, steps = 16, 8
	}
	maxRanks := core.MaxThreads()
	if maxRanks > 8 {
		maxRanks = 8
	}
	fmt.Println("ranks\tcells\tMLUPS\tMLUPS/rank\tcomm_fraction")
	for ranks := 1; ranks <= maxRanks; ranks *= 2 {
		p := core.LidDrivenCavity([3]int{ranks, 1, 1}, [3]int{edge, edge, edge}, 0.05, ranks)
		m, err := p.Run(steps)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%d\t%d\t%.2f\t%.2f\t%.3f\n", ranks, m.TotalCells, m.MLUPS, m.MLUPSPerCore(), m.CommFraction)
	}
}

func printWeak(p scaling.Platform, cfgs []scaling.NodeConfig, cellsPerCore float64, lo, hi int, extra []int) {
	fmt.Println("config\tcores\tMLUPS/core\ttotal_MLUPS\tcomm_fraction")
	var coreCounts []int
	for c := lo; c <= hi; c *= 2 {
		coreCounts = append(coreCounts, c)
	}
	coreCounts = append(coreCounts, extra...)
	for _, cfg := range cfgs {
		for _, pt := range scaling.DenseWeakScaling(p, cfg, cellsPerCore, coreCounts) {
			fmt.Printf("%s\t%d\t%.2f\t%.0f\t%.3f\n", cfg, pt.Cores, pt.MLUPSPerCore, pt.TotalMLUPS, pt.CommFraction)
		}
	}
}

// fitPowerLaw fits y = a * x^b by least squares in log-log space.
func fitPowerLaw(xs []float64, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	b = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a = math.Exp((sy - b*sx) / n)
	return a, b
}

// figure7 reproduces the vascular weak scaling: the fluid fraction of
// real partitionings of the synthetic tree at increasing block counts, a
// power-law fit extrapolated to machine scale, and the projected
// MFLUPS-per-core curves for both machines.
func figure7() {
	header("Figure 7: vascular geometry weak scaling")
	tree := coronaryTree()
	sdf, err := tree.SDF()
	if err != nil {
		panic(err)
	}
	cells := [3]int{16, 16, 16}
	targets := []int{16, 64, 256, 1024}
	if *quick {
		targets = []int{16, 64, 256}
	}
	fmt.Println("blocks_target\tblocks\tdx\tfluid_fraction (measured on synthetic tree)")
	var xs, ys []float64
	for _, target := range targets {
		dx, blocks, err := setup.FindWeakScalingDx(sdf, cells, target, 18)
		if err != nil {
			panic(err)
		}
		_, stats, _, err := setup.BuildForest(sdf, setup.Options{
			CellsPerBlock: cells, Dx: dx, Ranks: target, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%d\t%d\t%.5g\t%.4f\n", target, blocks, dx, stats.FluidFraction)
		xs = append(xs, float64(blocks))
		ys = append(ys, stats.FluidFraction)
	}
	a, b := fitPowerLaw(xs, ys)
	fmt.Printf("# fluid fraction fit: ff(blocks) = %.4f * blocks^%.4f\n", a, b)
	ffAt := func(blocks int) float64 {
		return math.Min(a*math.Pow(float64(blocks), b), 0.9)
	}

	fmt.Println("\nmachine\tcores\tMFLUPS/core\tfluid_fraction\tcomm_fraction")
	type mc struct {
		name  string
		p     scaling.Platform
		cfg   scaling.NodeConfig
		block float64
		maxC  int
	}
	for _, m := range []mc{
		{"SuperMUC", scaling.SuperMUC(), scaling.NodeConfig{Processes: 4, Threads: 4}, 170 * 170 * 170, 1 << 17},
		{"JUQUEEN", scaling.JUQUEEN(), scaling.NodeConfig{Processes: 16, Threads: 4}, 80 * 80 * 80, 458752},
	} {
		var coreCounts []int
		for c := 512; c <= m.maxC; c *= 2 {
			coreCounts = append(coreCounts, c)
		}
		if coreCounts[len(coreCounts)-1] != m.maxC {
			coreCounts = append(coreCounts, m.maxC)
		}
		for _, pt := range scaling.VascularWeakScaling(m.p, m.cfg, m.block, ffAt, coreCounts) {
			fmt.Printf("%s\t%d\t%.3f\t%.4f\t%.3f\n", m.name, pt.Cores, pt.MLUPSPerCore, pt.FluidFraction, pt.CommFraction)
		}
	}
	fmt.Println("# paper: MFLUPS/core rises with core count as the block grid fits the geometry better")
}

// figure8 reproduces the strong scaling study at 0.1 mm and 0.05 mm
// resolution on both machines, plus a real host strong scaling.
func figure8() {
	header("Figure 8 (model): strong scaling on the vascular geometry")
	fmt.Println("machine\tresolution\tcores\tMFLUPS/core\ttime_steps/s\tblocks/core\tblock_edge")
	type exp struct {
		name string
		p    scaling.Platform
		cfg  scaling.NodeConfig
		sc   scaling.StrongScalingConfig
		lo   int
		hi   int
	}
	// The 0.1 mm problem: 2.1e6 fluid cells, searched partitionings from
	// 32 blocks/core of 34^3 at 16 cores down to one 9^3 block per core;
	// the 0.05 mm problem: 16.9e6 fluid cells, 64 blocks/core of 46^3 down
	// to 13^3 (the paper's reported optima). JUQUEEN follows the same
	// partitioning trajectory over its own core range.
	res01 := scaling.StrongScalingConfig{
		FluidCells: 2.1e6, BaseBlocksPerCore: 32, BaseCores: 16, BaseEdge: 34, MinEdge: 9,
	}
	res005 := scaling.StrongScalingConfig{
		FluidCells: 16.9e6, BaseBlocksPerCore: 64, BaseCores: 16, BaseEdge: 46, EdgeExponent: 0.182, MinEdge: 13,
	}
	exps := []exp{
		{"SuperMUC", scaling.SuperMUC(), scaling.NodeConfig{Processes: 4, Threads: 4}, res01, 16, 32768},
		{"JUQUEEN", scaling.JUQUEEN(), scaling.NodeConfig{Processes: 16, Threads: 4}, res01, 512, 65536},
		{"SuperMUC", scaling.SuperMUC(), scaling.NodeConfig{Processes: 4, Threads: 4}, res005, 16, 32768},
		{"JUQUEEN", scaling.JUQUEEN(), scaling.NodeConfig{Processes: 16, Threads: 4}, res005, 512, 262144},
	}
	res := []string{"0.1mm", "0.1mm", "0.05mm", "0.05mm"}
	for i, e := range exps {
		var coreCounts []int
		for c := e.lo; c <= e.hi; c *= 2 {
			coreCounts = append(coreCounts, c)
		}
		for _, pt := range scaling.StrongScaling(e.p, e.cfg, e.sc, coreCounts) {
			fmt.Printf("%s\t%s\t%d\t%.3f\t%.1f\t%.1f\t%.0f\n",
				e.name, res[i], pt.Cores, pt.MFLUPSPerCore, pt.TimeStepsPerS, pt.BlocksPerCore, pt.BlockEdge)
		}
	}
	fmt.Println("# paper: 0.1mm on SuperMUC runs 11.4 steps/s on 1 node up to 6638 steps/s on 2048 nodes")

	// Section 4.3 time-step arithmetic: what the rates mean in physical
	// time (0.2 m/s peak blood velocity, lattice velocity 0.1).
	if conv, err := units.FromVelocity(1.276e-6, 0.2, 0.1, 1060); err == nil {
		fmt.Printf("# at 1.276um resolution the time step is %.3g s (paper: 0.64 us); 1.25 steps/s simulate %.3g s of flow per wall second\n",
			conv.Dt, conv.SimulatedSecondsPerWallSecond(1.25))
	}
	if conv, err := units.FromVelocity(0.1e-3, 0.2, 0.1, 1060); err == nil {
		peak := scaling.StrongScaling(scaling.SuperMUC(), scaling.NodeConfig{Processes: 4, Threads: 4}, res01, []int{32768})[0]
		fmt.Printf("# at 0.1mm the projected %.0f steps/s simulate %.2f s of flow per wall second (the conclusion's practical real-time regime)\n",
			peak.TimeStepsPerS, conv.SimulatedSecondsPerWallSecond(peak.TimeStepsPerS))
	}

	header("Figure 8 (host measurement): real strong scaling, fixed cavity")
	edge := 32
	steps := 20
	if *quick {
		edge, steps = 16, 8
	}
	maxRanks := core.MaxThreads()
	if maxRanks > 8 {
		maxRanks = 8
	}
	fmt.Println("ranks\tsteps/s\tMLUPS/rank\tcomm_fraction")
	for ranks := 1; ranks <= maxRanks; ranks *= 2 {
		// Fixed global domain: split along x into more, smaller blocks.
		p := core.LidDrivenCavity([3]int{ranks, 1, 1}, [3]int{edge / ranks, edge, edge}, 0.05, ranks)
		m, err := p.Run(steps)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%d\t%.1f\t%.2f\t%.3f\n", ranks, m.TimeStepsPerSecond(), m.MLUPSPerCore(), m.CommFraction)
	}
}

// sparseAblation benchmarks the three sparse-block strategies of section
// 4.3 at several fill fractions on the host.
func sparseAblation() {
	header("Sparse kernel strategies (section 4.3, host measurement), interval rows " + kernels.RowISA())
	edge, steps := 48, 8
	if *quick {
		edge, steps = 32, 4
	}
	fmt.Println("fill\tstrategy\tMFLUPS\tMLUPS")
	for _, fill := range []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.0} {
		for _, r := range core.MeasureSparseStrategies(edge, fill, steps, 7) {
			fmt.Printf("%.2f\t%s\t%.2f\t%.2f\n", r.FluidFraction, r.Strategy, r.MFLUPS, r.MLUPS)
		}
	}
	fmt.Println("# paper: the interval (compressed-row) strategy enables vectorization and wins on tubular geometries")
}
