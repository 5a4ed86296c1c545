package scenario

import (
	"context"

	"walberla/internal/comm"
	"walberla/internal/core"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

// ExecuteOptions carries host-side hooks that are not part of the
// scenario contract: where telemetry goes, and whether fields are dumped
// at the end.
type ExecuteOptions struct {
	// TelemetryFor, if non-nil, supplies each rank's tracer and metrics
	// registry (either may be nil) before the simulation is built.
	TelemetryFor func(rank int) (*telemetry.Tracer, *telemetry.Registry)
	// VTKDir, if non-empty, receives one VTK file per block after the run.
	VTKDir string
	// Each, if non-nil, runs on every rank's goroutine after its time
	// loop with the local simulation state (probing, assertions) — on a
	// refined scenario the data plane of its leaves.
	Each func(c *comm.Comm, s *sim.Simulation)
}

// Result is what one scenario execution produced.
type Result = core.Outcome

// Execute runs the scenario to completion (or cancellation) and returns
// the reduced metrics and the final field hash: the scenario mapped onto
// core.Problem.Execute, the launcher the CLI, the daemon, the tests and
// the benchmark harness share — which is what makes "the same scenario
// file gives the same answer everywhere" a checkable property rather
// than a convention.
func Execute(ctx context.Context, sc *Scenario, opts ExecuteOptions) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	p, err := sc.Problem()
	if err != nil {
		return Result{}, err
	}
	p.TelemetryFor = opts.TelemetryFor
	w := core.World{
		Comm:   sc.CommOptions(),
		Spares: sc.Parallel.Spares,
		Steps:  sc.Run.Steps,
		VTKDir: opts.VTKDir,
	}
	if rc, resilient := sc.Resilient(); resilient {
		w.Resilience = &rc
	}
	return p.Execute(ctx, w, func(r *core.Rank) error {
		if opts.Each != nil {
			opts.Each(r.Sim.Comm, r.Sim)
		}
		return nil
	})
}
