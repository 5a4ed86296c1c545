package main

import (
	"fmt"
	"math"
)

// workload is one benchmark input: a scenario generator plus the fixed
// work sizing of its timed region. Step counts are fixed so that every
// run of a workload executes the same simulation — on a host whose speed
// drifts by ±25 % within minutes a fixed duration would cover a different
// stretch of the flow each time.
type workload struct {
	name string
	why  string

	ranks, workers int
	network        string

	// stepsPerEpoch is sized for epochs of 100–300 ms on this host.
	stepsPerEpoch int
	warmSteps     int
	// builds is the fixed number of cold builds behind setup_s: the
	// worlds of the timed region, the shape copy of the output check, and
	// as many bare builds as it takes (a build is 15 ms to 1.5 s).
	builds int

	// body renders the geometry/resolution/collision/refinement sections;
	// vel is the seed-perturbed driving velocity.
	body func(vel float64, seed int64, smoke bool) string
	// baseVel is the unperturbed driving velocity (lid, amplitude, inflow);
	// drift is a uniform initial x velocity.
	baseVel, drift float64
}

// shape is the execution shape a scenario is rendered for.
type shape struct {
	ranks, workers int
	network        string
}

var workloads = []workload{
	{
		name:  "dense_node",
		why:   "dense cavity, 1 rank x 2 workers: kernel and worker pool carry the step, no remote message exists",
		ranks: 1, workers: 2, network: "inproc",
		stepsPerEpoch: 10, warmSteps: 10, builds: 40,
		baseVel: 0.05,
		body: func(vel float64, seed int64, smoke bool) string {
			edge := 32
			if smoke {
				edge = 8
			}
			return fmt.Sprintf(`"geometry": {"example": "cavity", "lid_velocity": %.17g, "seed": %d},
  "resolution": {"grid": [2, 2, 2], "cells_per_block": [%d, %d, %d]},
  "collision": {"tau": 0.65}, "refinement": {},`, vel, seed, edge, edge, edge)
		},
	},
	{
		name:  "halo_unix",
		why:   "periodic 4x4x4 blocks of 8^3 on 2 ranks over unix sockets: pack, framing and socket waits carry the step",
		ranks: 2, workers: 1, network: "unix",
		stepsPerEpoch: 60, warmSteps: 60, builds: 120,
		baseVel: 0.02,
		body: func(vel float64, seed int64, smoke bool) string {
			grid := 4
			if smoke {
				grid = 2
			}
			return fmt.Sprintf(`"geometry": {"example": "taylor-green", "amplitude": %.17g, "seed": %d},
  "resolution": {"grid": [%d, %d, %d], "cells_per_block": [8, 8, 8]},
  "collision": {"tau": 0.8}, "refinement": {},`, vel, seed, grid, grid, grid)
		},
	},
	{
		name:  "tree_sparse",
		why:   "synthetic coronary tree on 2 ranks: seconds of geometry setup, sparse-interval kernel, uneven ranks",
		ranks: 2, workers: 1, network: "inproc",
		stepsPerEpoch: 16, warmSteps: 16, builds: 6,
		baseVel: 0.02,
		body: func(vel float64, seed int64, smoke bool) string {
			depth, dx := 4, 0.009
			if smoke {
				depth, dx = 2, 0.05
			}
			// The tree's own seed stays fixed: a different tree is a
			// different amount of work, and the seed must not change work.
			return fmt.Sprintf(`"geometry": {"example": "tree", "tree_depth": %d, "dx": %g, "inflow_velocity": %.17g, "seed": 1},
  "resolution": {"cells_per_block": [16, 16, 16]},
  "collision": {"tau": 0.9}, "refinement": {},`, depth, dx, vel)
		},
	},
	{
		name:  "amr_shear",
		why:   "Gaussian shear layer refined to level 2 on 2 ranks: the second step runtime, regrade and migration",
		ranks: 2, workers: 1, network: "inproc",
		stepsPerEpoch: 4, warmSteps: 4, builds: 80,
		baseVel: shearAmp, drift: shearDrift,
		body: func(vel float64, seed int64, smoke bool) string {
			gx, edge := 16, 8
			if smoke {
				gx, edge = 16, 4
			}
			return fmt.Sprintf(`"geometry": {"example": "taylor-green", "amplitude": %.17g, "seed": %d},
  "resolution": {"grid": [%d, 1, 1], "cells_per_block": [%d, %d, %d]},
  "collision": {"tau": %g},
  "refinement": {"max_level": %d, "criterion": "gradient", "refine_above": %g, "coarsen_below": %g, "interval": 4},`,
				vel, seed, gx, edge, edge, edge, shearTau, shearMaxLevel, shearRefineAbove, shearCoarsenBelow)
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) shape() shape { return shape{w.ranks, w.workers, w.network} }

func (w *workload) amr() bool { return w.name == "amr_shear" }

// scenarioJSON renders the scenario document the program receives. The
// seed feeds geometry.seed (where the example's geometry does not depend
// on it) and a relative perturbation of at most 1e-6 of the driving
// velocity: every seed produces different fields and the same work.
func (w *workload) scenarioJSON(seed int64, sh shape, steps int, smoke bool) []byte {
	vel := w.baseVel * (1 + 1e-6*seedFraction(seed))
	body := w.body(vel, seed, smoke)
	return []byte(fmt.Sprintf(`{
  "version": 1, "name": %q,
  %s
  "lattice": {},
  "physics": {"force": [0, 0, 0], "initial_velocity": [%g, 0, 0]},
  "parallel": {"ranks": %d, "workers": %d},
  "transport": {"network": %q},
  "resilience": {}, "faults": {}, "telemetry": {},
  "run": {"steps": %d}
}`, w.name, body, w.drift, sh.ranks, sh.workers, sh.network, steps))
}

// seedFraction maps a seed onto [0, 1) (splitmix64 finalizer).
func seedFraction(seed int64) float64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// worldsPerRun is the number of cold builds of the world the timed region
// is spread over. Where a process's memory lands decides a few percent of
// its speed for as long as it lives (two copies of one frozen kernel,
// measured back to back in every slice, stayed 3–5 % apart for a whole
// run); every world, and the reference kernels with it, gets fresh pages,
// so a run averages over five placements instead of reporting one.
const worldsPerRun = 5

// sizing converts --seconds into the fixed size of the timed region:
// worlds × epochs per world, one epoch of ≈ 135 ms plus its reference
// slice of ≈ 30 ms per second and world. The traced run is the shorter
// one, the smoke sizing is two worlds of two epochs.
func sizing(o runOpts) (worlds, epochsPerWorld int) {
	switch {
	case o.smoke:
		return 2, 2
	case o.trace:
		return worldsPerRun, max(o.seconds/2, 2)
	}
	return worldsPerRun, o.seconds
}

// The amr_shear flow: a Gaussian shear layer uy(x) carried by a uniform
// cross flow ux. A unidirectional shear is an exact Navier–Stokes solution
// (its advection term vanishes), so uy diffuses in one dimension while the
// drift moves it through the mesh, and the run is scored against the
// closed form. The layer starts at sigma ≈ 1.4 coarse cells, which the
// coarse grid cannot resolve; the low viscosity keeps it sharp over the
// whole timed region, and the drift makes the refined band follow it, so
// the controller keeps splitting ahead of the layer, merging behind it
// and migrating leaves for as long as the run lasts.
const (
	shearAmp          = 0.05
	shearDrift        = 0.04
	shearVar          = 2.0  // initial variance, coarse cells squared
	shearTau          = 0.53 // coarse relaxation time; nu = (tau - 1/2)/3
	shearMaxLevel     = 2
	shearRefineAbove  = 0.0015
	shearCoarsenBelow = 0.0004
)

// shearState is the initial condition on a periodic x extent of lx coarse
// cells, at scale× the coarse resolution (positions and widths scale,
// lattice velocities do not: acoustic scaling).
func shearState(amp, drift float64, lx, scale int) func(x, y, z float64) (rho, ux, uy, uz float64) {
	k := float64(scale)
	return func(x, y, z float64) (float64, float64, float64, float64) {
		return 1, drift, shearAnalytic(amp, drift, float64(lx), x/k, 0), 0
	}
}

// shearAnalytic is uy at coarse position x after t coarse steps: the
// center has moved by drift·t (periodically), the variance has grown to
// v0 + 2 nu t.
func shearAnalytic(amp, drift, lx, x, t float64) float64 {
	d := math.Mod(x-lx/2-drift*t, lx)
	if d < -lx/2 {
		d += lx
	} else if d >= lx/2 {
		d -= lx
	}
	nu := (shearTau - 0.5) / 3
	vt := shearVar + 2*nu*t
	return amp * math.Sqrt(shearVar/vt) * math.Exp(-d*d/(2*vt))
}
