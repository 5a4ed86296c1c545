// Taylor-Green vortex: quantitative Navier-Stokes validation against the
// fully analytic viscous decay, run distributed over four ranks. The
// kinetic energy of the vortex lattice must decay as exp(-4 nu k^2 t)
// with nu = (tau - 1/2)/3 — measuring this validates collision,
// streaming, the periodic ghost exchange and the unit relations in one
// number.
package main

import (
	"fmt"
	"log"
	"math"

	"walberla/internal/comm"
	"walberla/internal/core"
	"walberla/internal/sim"
)

const (
	n     = 32
	u0    = 0.02
	tau   = 0.75
	ranks = 4
)

func main() {
	nu := (tau - 0.5) / 3.0
	k := 2 * math.Pi / float64(n)

	p := &core.Problem{
		Grid:          [3]int{2, 2, 1},
		CellsPerBlock: [3]int{n / 2, n / 2, 2},
		Periodic:      [3]bool{true, true, true},
		Tau:           tau,
		Ranks:         ranks,
		InitialState: func(x, y, z float64) (float64, float64, float64, float64) {
			fx, fy := x*k, y*k
			return 1.0,
				u0 * math.Cos(fx) * math.Sin(fy),
				-u0 * math.Sin(fx) * math.Cos(fy),
				0
		},
	}

	fmt.Printf("Taylor-Green vortex, %d^2 cells, tau=%g (nu=%g), u0=%g\n", n, tau, nu, u0)
	fmt.Println("\n steps   E/E0(measured)  E/E0(analytic)  error%")

	// RunEach(0, ...) hands every rank its freshly built simulation; the
	// callback drives the time loop itself to sample the energy as it goes.
	err := p.RunEach(0, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
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
			return c.AllreduceFloat64(e, comm.Sum[float64])
		}
		e0 := energy()
		const chunk = 50
		for step := chunk; step <= 400; step += chunk {
			if _, err := s.Run(chunk); err != nil {
				log.Fatal(err)
			}
			e := energy()
			if c.Rank() == 0 {
				want := math.Exp(-4 * nu * k * k * float64(step))
				got := e / e0
				fmt.Printf("%6d   %.6f        %.6f        %+.3f%%\n",
					step, got, want, 100*(got-want)/want)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nvalidation: measured decay tracks the analytic Navier-Stokes solution")
}
