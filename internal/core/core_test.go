package core

import (
	"math"
	"sync"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/distance"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/mesh"
	"walberla/internal/sim"
)

func TestLidDrivenCavityRuns(t *testing.T) {
	p := LidDrivenCavity([3]int{2, 2, 2}, [3]int{6, 6, 6}, 0.05, 4)
	m, err := p.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalCells != 8*216 {
		t.Errorf("TotalCells = %d, want %d", m.TotalCells, 8*216)
	}
	if m.MLUPS <= 0 {
		t.Error("no progress measured")
	}
}

// The cavity develops the primary vortex: flow near the lid follows the
// lid, flow near the bottom runs backwards.
func TestCavityVortex(t *testing.T) {
	p := LidDrivenCavity([3]int{1, 1, 1}, [3]int{12, 12, 12}, 0.08, 1)
	var topU, bottomU float64
	err := p.RunEach(3000, func(c *comm.Comm, s *sim.Simulation, m sim.Metrics) {
		bd := s.Blocks[0]
		_, topU, _, _ = bd.Src.Moments(6, 6, 10)
		_, bottomU, _, _ = bd.Src.Moments(6, 6, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if topU <= 0 {
		t.Errorf("near-lid flow %v, want positive (dragged by lid)", topU)
	}
	if bottomU >= 0 {
		t.Errorf("near-bottom flow %v, want negative (return flow)", bottomU)
	}
}

func TestChannelFlowWithObstacle(t *testing.T) {
	p := &Problem{
		Grid:          [3]int{2, 1, 1},
		CellsPerBlock: [3]int{8, 8, 8},
		Tau:           0.9,
		Boundary:      sim.Config{}.Boundary, // zero value; set below
		Ranks:         2,
		SetupFlags:    ChannelFlags([3]int{6, 3, 3}, [3]int{8, 5, 5}),
	}
	p.Boundary.WallVelocity = [3]float64{0.02, 0, 0}
	p.Boundary.Density = 1.0
	var mu sync.Mutex
	obstacleOK := true
	var maxU float64
	err := p.RunEach(300, func(c *comm.Comm, s *sim.Simulation, m sim.Metrics) {
		mu.Lock()
		defer mu.Unlock()
		for _, bd := range s.Blocks {
			// Obstacle cells must be marked non-fluid in the owning block.
			base := bd.Block.Coord[0] * 8
			for z := 0; z < 8; z++ {
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						gx := base + x
						inObstacle := gx >= 6 && gx < 8 && y >= 3 && y < 5 && z >= 3 && z < 5
						isFluid := bd.Flags.Get(x, y, z) == field.Fluid
						if inObstacle && isFluid {
							obstacleOK = false
						}
						if isFluid {
							_, ux, uy, uz := bd.Src.Moments(x, y, z)
							if v := math.Sqrt(ux*ux + uy*uy + uz*uz); v > maxU {
								maxU = v
							}
						}
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !obstacleOK {
		t.Error("obstacle cells marked fluid")
	}
	if maxU < 1e-4 {
		t.Errorf("no flow developed: max |u| = %v", maxU)
	}
	if maxU > 0.3 {
		t.Errorf("flow unstable: max |u| = %v", maxU)
	}
}

func TestGeometryProblem(t *testing.T) {
	sphere, err := distance.NewField(mesh.NewSphere([3]float64{0, 0, 0}, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		Geometry:            sphere,
		Dx:                  0.1,
		CellsPerBlock:       [3]int{8, 8, 8},
		Kernel:              sim.KernelSparse,
		Ranks:               2,
		UseGraphPartitioner: true,
	}
	m, err := p.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalFluidCells == 0 {
		t.Fatal("no fluid cells in voxelized sphere")
	}
	// The 3x3x3 block grid keeps barely-touching boundary blocks, so the
	// overall fill is well below the sphere/bounding-box ratio of pi/6.
	ff := m.FluidFraction()
	if ff <= 0.15 || ff >= 0.9 {
		t.Errorf("sphere fluid fraction %v implausible", ff)
	}
}

func TestProblemValidation(t *testing.T) {
	if _, err := (&Problem{Geometry: nil}).Run(1); err == nil {
		t.Error("empty problem accepted")
	}
	sphere, _ := distance.NewField(mesh.NewSphere([3]float64{0, 0, 0}, 1, 1))
	if _, err := (&Problem{Geometry: sphere, CellsPerBlock: [3]int{8, 8, 8}}).Run(1); err == nil {
		t.Error("geometry problem without Dx accepted")
	}
}

// The façade passes stencil and per-cell initial state through: a D2Q9
// periodic sheet with a sinusoidal shear decays viscously.
func TestProblemStencilAndInitialState(t *testing.T) {
	const n = 16
	p := &Problem{
		Grid:          [3]int{2, 1, 1},
		CellsPerBlock: [3]int{n / 2, n, 1},
		Periodic:      [3]bool{true, true, false},
		Stencil:       lattice.D2Q9(),
		Kernel:        sim.KernelGenericSRT,
		Tau:           0.8,
		InitialState: func(x, y, z float64) (float64, float64, float64, float64) {
			return 1, 0.02 * math.Sin(2*math.Pi*math.Floor(y)/n), 0, 0
		},
		Ranks: 2,
		SetupFlags: func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
			flags.Fill(field.Fluid)
		},
	}
	var mu sync.Mutex
	var amp0, amp1 float64
	err := p.RunEach(100, func(c *comm.Comm, s *sim.Simulation, m sim.Metrics) {
		var localMax float64
		for _, bd := range s.Blocks {
			for y := 0; y < n; y++ {
				for x := 0; x < bd.Src.Nx; x++ {
					_, ux, _, _ := bd.Src.Moments(x, y, 0)
					if a := math.Abs(ux); a > localMax {
						localMax = a
					}
				}
			}
		}
		g := c.AllreduceFloat64(localMax, comm.Max[float64])
		if c.Rank() == 0 {
			mu.Lock()
			amp0, amp1 = 0.02, g
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Viscous decay of the shear wave: exp(-nu k^2 t).
	nu := (0.8 - 0.5) / 3.0
	k := 2 * math.Pi / float64(n)
	want := amp0 * math.Exp(-nu*k*k*100)
	if math.Abs(amp1-want)/want > 0.03 {
		t.Errorf("shear wave amplitude %v, analytic %v", amp1, want)
	}
}

func TestMeasureKernelMLUPS(t *testing.T) {
	res := MeasureKernelMLUPS(sim.KernelSplitTRT, 16, 2, 3)
	if res.MLUPS <= 0 {
		t.Errorf("MLUPS = %v", res.MLUPS)
	}
	if res.Cells != 4096 || res.Threads != 2 || res.Steps != 3 {
		t.Errorf("metadata wrong: %+v", res)
	}
}

func TestMeasureSparseStrategies(t *testing.T) {
	res := MeasureSparseStrategies(24, 0.2, 2, 1)
	if len(res) != 3 {
		t.Fatalf("%d strategies, want 3", len(res))
	}
	for _, r := range res {
		if r.MFLUPS <= 0 {
			t.Errorf("%s: MFLUPS = %v", r.Strategy, r.MFLUPS)
		}
		if r.FluidFraction < 0.1 || r.FluidFraction > 0.4 {
			t.Errorf("%s: fill %v far from request 0.2", r.Strategy, r.FluidFraction)
		}
		if r.MFLUPS > r.MLUPS+1e-9 {
			// MFLUPS counts fewer cells than MLUPS on sparse blocks.
			t.Errorf("%s: MFLUPS %v exceeds MLUPS %v", r.Strategy, r.MFLUPS, r.MLUPS)
		}
	}
}

func TestTubularFlagsFillFraction(t *testing.T) {
	for _, fill := range []float64{0.1, 0.3, 1.0} {
		fl := tubularFlags(32, fill, 3)
		got := fl.FluidFraction()
		if fill == 1.0 && got != 1.0 {
			t.Errorf("full fill got %v", got)
		}
		if fill < 1 && (got < fill*0.8 || got > fill*1.8) {
			t.Errorf("requested %v, got %v", fill, got)
		}
	}
}

func TestMaxThreads(t *testing.T) {
	if MaxThreads() < 1 {
		t.Error("MaxThreads < 1")
	}
}

func TestMeasureStreamBandwidth(t *testing.T) {
	bw := MeasureStreamBandwidth(8, 1)
	if bw <= 0.1 || bw > 10000 {
		t.Errorf("implausible bandwidth %v GiB/s", bw)
	}
	roof := HostRooflineMLUPS(bw)
	if roof <= 0 {
		t.Errorf("roofline %v", roof)
	}
	// The paper's arithmetic: 37.3 GiB/s -> 87.8 MLUPS.
	if math.Abs(HostRooflineMLUPS(37.3)-87.8) > 0.1 {
		t.Errorf("roofline arithmetic broken: %v", HostRooflineMLUPS(37.3))
	}
}
