package sim

import (
	"math"
	"sync"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
)

// Taylor-Green vortex: the classic quantitative LBM validation with a
// fully analytic solution. In a periodic box the velocity field
//
//	u_x =  u0 cos(kx) sin(ky) exp(-2 nu k^2 t)
//	u_y = -u0 sin(kx) cos(ky) exp(-2 nu k^2 t)
//
// decays viscously; the measured decay rate tests that the relaxation
// time realizes exactly the kinematic viscosity nu = (tau - 1/2)/3 —
// i.e. that collision, streaming and the distributed exchange together
// solve the Navier-Stokes equations.
func TestTaylorGreenViscousDecay(t *testing.T) {
	const (
		n     = 24
		u0    = 0.02
		tau   = 0.8
		steps = 120
		ranks = 4
	)
	nu := (tau - 0.5) / 3.0
	k := 2 * math.Pi / float64(n)

	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 2, 1}, [3]int{n / 2, n / 2, 2}, [3]bool{true, true, true})
	f.BalanceMorton(ranks)

	var mu sync.Mutex
	var sumSq0, sumSq1 float64
	var maxErr float64

	comm.Run(ranks, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, forestFor(c.Rank(), f))
		s, err := New(c, forest, Config{
			Tau: tau,
			InitialState: func(x, y, z float64) (float64, float64, float64, float64) {
				fx, fy := x*k, y*k
				return 1.0,
					u0 * math.Cos(fx) * math.Sin(fy),
					-u0 * math.Sin(fx) * math.Cos(fy),
					0
			},
			SetupFlags: func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
				flags.Fill(field.Fluid)
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		energy := func() float64 {
			var e float64
			for _, bd := range s.Blocks {
				for z := 0; z < bd.Src.Nz; z++ {
					for y := 0; y < bd.Src.Ny; y++ {
						for x := 0; x < bd.Src.Nx; x++ {
							_, ux, uy, uz := bd.Src.Moments(x, y, z)
							e += ux*ux + uy*uy + uz*uz
						}
					}
				}
			}
			return e
		}
		e0 := c.AllreduceFloat64(energy(), comm.Sum[float64])
		mustRun(t, s, steps)
		e1 := c.AllreduceFloat64(energy(), comm.Sum[float64])

		// Pointwise comparison against the analytic field at t = steps.
		decay := math.Exp(-2 * nu * k * k * float64(steps))
		var localMax float64
		for _, bd := range s.Blocks {
			base := [3]int{
				bd.Block.Coord[0] * bd.Src.Nx,
				bd.Block.Coord[1] * bd.Src.Ny,
				bd.Block.Coord[2] * bd.Src.Nz,
			}
			for z := 0; z < bd.Src.Nz; z++ {
				for y := 0; y < bd.Src.Ny; y++ {
					for x := 0; x < bd.Src.Nx; x++ {
						fx := (float64(base[0]+x) + 0.5) * k
						fy := (float64(base[1]+y) + 0.5) * k
						wantX := u0 * math.Cos(fx) * math.Sin(fy) * decay
						wantY := -u0 * math.Sin(fx) * math.Cos(fy) * decay
						_, ux, uy, _ := bd.Src.Moments(x, y, z)
						if e := math.Abs(ux - wantX); e > localMax {
							localMax = e
						}
						if e := math.Abs(uy - wantY); e > localMax {
							localMax = e
						}
					}
				}
			}
		}
		globalMax := c.AllreduceFloat64(localMax, comm.Max[float64])
		mu.Lock()
		if c.Rank() == 0 {
			sumSq0, sumSq1, maxErr = e0, e1, globalMax
		}
		mu.Unlock()
	})

	// Kinetic energy decays as exp(-4 nu k^2 t).
	wantRatio := math.Exp(-4 * nu * k * k * float64(steps))
	gotRatio := sumSq1 / sumSq0
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.02 {
		t.Errorf("energy decay ratio %v, analytic %v (%.2f%% off)",
			gotRatio, wantRatio, 100*math.Abs(gotRatio-wantRatio)/wantRatio)
	}
	// Pointwise error well below the initial amplitude (compressibility
	// error scales with u0^2 ~ 4e-4).
	if maxErr > 0.02*u0 {
		t.Errorf("max pointwise velocity error %v exceeds 2%% of u0", maxErr)
	}
}
