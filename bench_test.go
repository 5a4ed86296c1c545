package walberla

// The benchmark suite: one benchmark per table and figure of the paper's
// evaluation (section 4). Real measurements run on the host; the analytic
// model benchmarks regenerate the projected numbers and report them as
// custom metrics, so `go test -bench . -benchmem` reproduces the full
// evaluation record.

import (
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/collide"
	"walberla/internal/comm"
	"walberla/internal/core"
	"walberla/internal/field"
	"walberla/internal/geometry"
	"walberla/internal/kernels"
	"walberla/internal/lattice"
	"walberla/internal/partition"
	"walberla/internal/perfmodel"
	"walberla/internal/scaling"
	"walberla/internal/setup"
	"walberla/internal/sim"
	"walberla/internal/vascular"
)

// BenchmarkFig1Partitioning measures the domain partitioning search of
// Figure 1: binary search in dx for a one-block-per-process target on the
// synthetic coronary tree.
func BenchmarkFig1Partitioning(b *testing.B) {
	p := vascular.DefaultParams()
	p.Depth = 3
	tree := vascular.Generate(p)
	sdf, err := tree.SDF()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var blocks int
	for i := 0; i < b.N; i++ {
		_, blocks, err = setup.FindWeakScalingDx(sdf, [3]int{12, 12, 12}, 64, 14)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(blocks), "blocks")
}

// BenchmarkFig3Kernels measures the six kernels of Figure 3 on a dense
// block, reporting MLUPS — the node-level kernel comparison.
func BenchmarkFig3Kernels(b *testing.B) {
	const edge = 32
	for _, choice := range []sim.KernelChoice{
		sim.KernelGenericSRT, sim.KernelGenericTRT,
		sim.KernelD3Q19SRT, sim.KernelD3Q19TRT,
		sim.KernelSplitSRT, sim.KernelSplitTRT,
	} {
		b.Run(string(choice), func(b *testing.B) {
			k, err := kernels.New(kernels.Spec{Choice: choice, Tau: 0.9})
			if err != nil {
				b.Fatal(err)
			}
			src := field.NewPDFField(lattice.D3Q19(), edge, edge, edge, 1, k.Layout())
			src.FillEquilibrium(1, 0.02, 0, 0)
			dst := src.CopyShape()
			cells := float64(edge * edge * edge)
			b.SetBytes(int64(cells * perfmodel.BytesPerLUP))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Sweep(src, dst, nil)
				field.Swap(src, dst)
			}
			b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
		})
	}
}

// BenchmarkFig4ECM regenerates the ECM model predictions of Figure 4 and
// reports the full-socket value at both studied frequencies.
func BenchmarkFig4ECM(b *testing.B) {
	m := perfmodel.SuperMUCSocket()
	e := perfmodel.NewECM(m)
	var v27, v16 float64
	for i := 0; i < b.N; i++ {
		v27 = e.MLUPS(m.Cores)
		v16 = e.AtFrequency(1.6).MLUPS(m.Cores)
	}
	b.ReportMetric(v27, "MLUPS@2.7GHz")
	b.ReportMetric(v16, "MLUPS@1.6GHz")
	b.ReportMetric(m.Roofline(), "roofline")
}

// BenchmarkFig5SMT regenerates the SMT study of Figure 5 on the JUQUEEN
// node model.
func BenchmarkFig5SMT(b *testing.B) {
	m := perfmodel.JUQUEENNode()
	var v1, v2, v4 float64
	for i := 0; i < b.N; i++ {
		v1 = perfmodel.KernelMLUPS(m, perfmodel.KernelSIMD, perfmodel.CollisionTRT, m.Cores, 1)
		v2 = perfmodel.KernelMLUPS(m, perfmodel.KernelSIMD, perfmodel.CollisionTRT, m.Cores, 2)
		v4 = perfmodel.KernelMLUPS(m, perfmodel.KernelSIMD, perfmodel.CollisionTRT, m.Cores, 4)
	}
	b.ReportMetric(v1, "MLUPS@1way")
	b.ReportMetric(v2, "MLUPS@2way")
	b.ReportMetric(v4, "MLUPS@4way")
}

// BenchmarkFig6WeakScaling runs a real distributed lid-driven cavity
// through the in-process communicator (the host-scale counterpart of the
// dense weak scaling) and also regenerates the full-machine projections.
func BenchmarkFig6WeakScaling(b *testing.B) {
	b.Run("host-2ranks", func(b *testing.B) {
		const edge = 20
		p := core.LidDrivenCavity([3]int{2, 1, 1}, [3]int{edge, edge, edge}, 0.05, 2)
		var mlups float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := p.Run(10)
			if err != nil {
				b.Fatal(err)
			}
			mlups = m.MLUPS
		}
		b.ReportMetric(mlups, "MLUPS")
	})
	b.Run("model-full-machines", func(b *testing.B) {
		var smuc, jq float64
		for i := 0; i < b.N; i++ {
			smuc = scaling.DenseWeakScaling(scaling.SuperMUC(),
				scaling.NodeConfig{Processes: 16, Threads: 1}, 3.43e6, []int{1 << 17})[0].TotalMLUPS
			jq = scaling.DenseWeakScaling(scaling.JUQUEEN(),
				scaling.NodeConfig{Processes: 64, Threads: 1}, 1.728e6, []int{458752})[0].TotalMLUPS
		}
		b.ReportMetric(smuc/1e3, "GLUPS-SuperMUC-2^17cores")
		b.ReportMetric(jq/1e3, "GLUPS-JUQUEEN-full")
	})
}

// BenchmarkFig7Vascular runs the sparse-geometry simulation end-to-end on
// the synthetic coronary tree, reporting MFLUPS and the fluid fraction.
func BenchmarkFig7Vascular(b *testing.B) {
	p := vascular.DefaultParams()
	p.Depth = 2
	tree := vascular.Generate(p)
	sdf, err := tree.SDF()
	if err != nil {
		b.Fatal(err)
	}
	problem := &core.Problem{
		Geometry:            sdf,
		Dx:                  p.RootRadius / 3,
		CellsPerBlock:       [3]int{12, 12, 12},
		Kernel:              sim.KernelSparse,
		Tau:                 0.6,
		Boundary:            boundary.Config{WallVelocity: [3]float64{0, 0, 0.02}, Density: 1},
		Ranks:               2,
		UseGraphPartitioner: true,
	}
	b.ResetTimer()
	var mflups, ff float64
	for i := 0; i < b.N; i++ {
		m, err := problem.Run(10)
		if err != nil {
			b.Fatal(err)
		}
		mflups, ff = m.MFLUPS, m.FluidFraction()
	}
	b.ReportMetric(mflups, "MFLUPS")
	b.ReportMetric(100*ff, "fluid%")
}

// BenchmarkFig8StrongScaling runs a real strong scaling (fixed cavity
// split over more ranks) and regenerates the modeled peak time stepping
// rates.
func BenchmarkFig8StrongScaling(b *testing.B) {
	b.Run("host-fixed-domain", func(b *testing.B) {
		const edge = 24
		p := core.LidDrivenCavity([3]int{2, 1, 1}, [3]int{edge / 2, edge, edge}, 0.05, 2)
		var stepsPerS float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := p.Run(20)
			if err != nil {
				b.Fatal(err)
			}
			stepsPerS = m.TimeStepsPerSecond()
		}
		b.ReportMetric(stepsPerS, "steps/s")
	})
	b.Run("model-peak-rates", func(b *testing.B) {
		sc := scaling.StrongScalingConfig{
			FluidCells: 2.1e6, BaseBlocksPerCore: 32, BaseCores: 16, BaseEdge: 34, MinEdge: 9,
		}
		var peak float64
		for i := 0; i < b.N; i++ {
			pts := scaling.StrongScaling(scaling.SuperMUC(),
				scaling.NodeConfig{Processes: 4, Threads: 4}, sc, []int{32768})
			peak = pts[0].TimeStepsPerS
		}
		b.ReportMetric(peak, "steps/s-model-32768cores")
	})
}

// BenchmarkSparseKernels is the section 4.3 ablation: the three
// sparse-block strategies on a tubular fill pattern.
func BenchmarkSparseKernels(b *testing.B) {
	const edge = 32
	trt := collide.NewTRT(0.9, collide.MagicParameter)
	flags := field.NewFlagField(edge, edge, edge, 1)
	flags.Fill(field.NoSlip)
	// A few fluid tubes along x (deterministic pattern, ~15 % fill).
	for _, c := range [][2]int{{8, 8}, {16, 20}, {24, 12}} {
		for x := 0; x < edge; x++ {
			for dy := -2; dy <= 2; dy++ {
				for dz := -2; dz <= 2; dz++ {
					if dy*dy+dz*dz <= 4 {
						flags.Set(x, c[0]+dy, c[1]+dz, field.Fluid)
					}
				}
			}
		}
	}
	fluid := float64(flags.Count(field.Fluid))
	for _, s := range []struct {
		name string
		k    kernels.Kernel
	}{
		{"conditional", kernels.NewSparseConditional(trt, nil)},
		{"celllist", kernels.NewSparseCellList(trt, flags, nil)},
		{"interval", kernels.NewSparseInterval(trt, flags, nil)},
	} {
		b.Run(s.name, func(b *testing.B) {
			src := field.NewPDFField(lattice.D3Q19(), edge, edge, edge, 1, s.k.Layout())
			src.FillEquilibrium(1, 0.01, 0, 0)
			dst := src.CopyShape()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.k.Sweep(src, dst, flags)
				field.Swap(src, dst)
			}
			b.ReportMetric(fluid*float64(b.N)/b.Elapsed().Seconds()/1e6, "MFLUPS")
		})
	}
}

// BenchmarkTableFileSize measures the compact block-structure file
// serialization of section 2.2 and reports the bytes-per-block cost.
func BenchmarkTableFileSize(b *testing.B) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{32, 32, 32}, [3]int{8, 8, 8}, [3]bool{})
	f.BalanceMorton(32768)
	b.ResetTimer()
	var size int64
	for i := 0; i < b.N; i++ {
		size = f.FileSize()
	}
	b.ReportMetric(float64(size)/float64(f.NumBlocks()), "bytes/block")
}

// BenchmarkGhostExchange isolates the per-step ghost layer communication
// between two ranks.
func BenchmarkGhostExchange(b *testing.B) {
	const edge = 24
	p := core.LidDrivenCavity([3]int{2, 1, 1}, [3]int{edge, edge, edge}, 0.05, 2)
	var commFraction float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := p.Run(20)
		if err != nil {
			b.Fatal(err)
		}
		commFraction = m.CommFraction
	}
	b.ReportMetric(100*commFraction, "comm%")
}

// BenchmarkBoundarySweep measures the link-wise boundary handling on a
// closed box.
func BenchmarkBoundarySweep(b *testing.B) {
	const edge = 32
	s := lattice.D3Q19()
	flags := field.NewFlagField(edge, edge, edge, 1)
	boundary.MarkBox(flags, [6]field.CellType{
		field.NoSlip, field.NoSlip, field.NoSlip, field.NoSlip, field.NoSlip, field.VelocityBounce,
	})
	bs := boundary.NewSweep(s, flags, boundary.Config{WallVelocity: [3]float64{0.05, 0, 0}})
	src := field.NewPDFField(s, edge, edge, edge, 1, field.AoS)
	src.FillEquilibrium(1, 0, 0, 0)
	noSlip, vel, _ := bs.Links()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Apply(src)
	}
	b.ReportMetric(float64(noSlip+vel)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mlinks/s")
}

// BenchmarkCommCollectives measures the tree-based collectives of the
// message-passing runtime across 8 ranks.
func BenchmarkCommCollectives(b *testing.B) {
	b.Run("Allreduce", func(b *testing.B) {
		comm.Run(8, func(c *comm.Comm) {
			for i := 0; i < b.N; i++ {
				c.AllreduceFloat64(float64(c.Rank()), comm.Sum[float64])
			}
		})
	})
	b.Run("Bcast1MB", func(b *testing.B) {
		payload := make([]float64, 128*1024)
		comm.Run(8, func(c *comm.Comm) {
			for i := 0; i < b.N; i++ {
				var in any
				if c.Rank() == 0 {
					in = payload
				}
				c.Bcast(0, in)
			}
		})
	})
}

// BenchmarkGraphPartitioner measures the METIS-substitute on a 3-D grid
// graph of vascular-study size.
func BenchmarkGraphPartitioner(b *testing.B) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{12, 12, 12}, [3]int{8, 8, 8}, [3]bool{})
	g, _ := partition.BuildBlockGraph(f)
	b.ResetTimer()
	var cut float64
	for i := 0; i < b.N; i++ {
		parts, err := partition.Partition(g, partition.Options{Parts: 32, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cut = partition.EdgeCut(g, parts)
	}
	b.ReportMetric(cut, "edge-cut")
}

// BenchmarkSignedDistance measures point queries against the synthetic
// coronary tree SDF (the inner loop of the setup phase).
func BenchmarkSignedDistance(b *testing.B) {
	p := vascular.DefaultParams()
	p.Depth = 4
	tree := vascular.Generate(p)
	sdf, err := tree.SDF()
	if err != nil {
		b.Fatal(err)
	}
	bounds := sdf.Bounds()
	size := bounds.Size()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := float64(i%1024) / 1024
		pnt := [3]float64{
			bounds.Min[0] + t*size[0],
			bounds.Min[1] + (1-t)*size[1],
			bounds.Min[2] + t*size[2],
		}
		sdf.Signed(pnt)
	}
}

// BenchmarkVoxelization measures the recursive block voxelization against
// the synthetic tree SDF.
func BenchmarkVoxelization(b *testing.B) {
	p := vascular.DefaultParams()
	p.Depth = 3
	tree := vascular.Generate(p)
	sdf, err := tree.SDF()
	if err != nil {
		b.Fatal(err)
	}
	bounds := sdf.Bounds()
	const n = 48
	flags := field.NewFlagField(n, n, n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geometry.Voxelize(sdf, bounds, flags)
	}
	b.ReportMetric(float64(n*n*n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}
