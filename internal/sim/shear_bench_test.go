package sim_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"walberla/internal/amr"
	"walberla/internal/comm"
	"walberla/internal/scenario"
	"walberla/internal/telemetry"
)

// shearDoc is the refined world of the benchmark's amr_shear workload: 16
// roots of 8³ cells in a line along x, refined to level 2 around a shear
// layer that drifts along x, on two ranks of one worker each.
const shearDoc = `{"version": 1, "geometry": {"example": "taylor-green", "amplitude": 0.05},
  "resolution": {"grid": [16, 1, 1], "cells_per_block": [8, 8, 8]}, "collision": {"tau": 0.53},
  "refinement": {"max_level": 2, "criterion": "gradient", "refine_above": 0.0015, "coarsen_below": 0.0004, "interval": 4},
  "physics": {"initial_velocity": [0.04, 0, 0]}, "parallel": {"ranks": 2, "workers": 1}, "run": {"steps": 1}}`

// BenchmarkShearLevelOverlap builds the amr_shear world five times per
// iteration, as one benchmark run does, resolves its initial layer, runs 4
// warm-up and 24 timed steps on each, and reports each rank's
// Simulation.LevelOverlap summed over the five worlds and averaged over
// the iterations: per level the interior, wait and frontier times, and
// the level-2 sweep time (interior + frontier) as metrics. It logs each
// rank's transfers between levels, controller passes and migrations of
// the timed steps too, from the spans of a tracer on every world: the
// resample, regrade and migrate phases. Run it with
//
//	go test -run '^$' -bench ShearLevelOverlap -benchtime 3x -v ./internal/sim/
func BenchmarkShearLevelOverlap(b *testing.B) {
	const worlds, warm, steps, levels = 5, 4, 24, 3
	sc, err := scenario.Parse([]byte(shearDoc))
	if err != nil {
		b.Fatal(err)
	}
	var sum [2][levels][3]float64 // rank, level: interior, wait, frontier ms
	phases := []telemetry.Phase{telemetry.PhaseResample, telemetry.PhaseRegrade, telemetry.PhaseMigrate}
	var spent [2][3]float64 // rank: ms per phase
	for range b.N {
		for range worlds {
			var mu sync.Mutex
			comm.RunWithOptions(2, sc.CommOptions(), func(c *comm.Comm) {
				cfg, err := sc.AMRConfig()
				if err != nil {
					b.Error(err)
					return
				}
				cfg.InitialState = func(x, _, _ float64) (float64, float64, float64, float64) {
					return 1, 0.04, 0.05 * math.Exp(-(x-64)*(x-64)/4), 0
				}
				tr := telemetry.NewTracer(c.Rank(), cfg.Workers, 1<<17)
				cfg.Tracer = tr
				var from int64
				s, err := amr.New(c, cfg)
				for pass := 0; err == nil && pass <= cfg.Refinement.MaxLevel; pass++ {
					err = s.Regrade()
				}
				for i := 0; err == nil && i < warm+steps; i++ {
					if i == warm {
						s.Plane().ResetTimers()
						from = tr.Lanes()[0].Start()
					}
					err = s.Step()
				}
				if err != nil {
					b.Error(err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				for _, l := range tr.Lanes() {
					if l.Dropped() > 0 {
						b.Errorf("rank %d: lane %s dropped %d spans", c.Rank(), l.Name(), l.Dropped())
					}
					l.Each(func(sp telemetry.Span) {
						if i := slices.Index(phases, sp.Phase); i >= 0 && sp.Start >= from {
							spent[c.Rank()][i] += 1e3 * sp.Duration().Seconds() / float64(b.N)
						}
					})
				}
				for l := range levels {
					o := s.Plane().LevelOverlap(l)
					for i, d := range [3]float64{o.Interior.Seconds(), o.Wait.Seconds(), o.Frontier.Seconds()} {
						sum[c.Rank()][l][i] += 1e3 * d / float64(b.N)
					}
				}
			})
		}
	}
	for r := range sum {
		for l, t := range sum[r] {
			b.Logf("rank %d level %d: interior %.0f ms, wait %.0f ms, frontier %.0f ms, sweep %.0f ms", r, l, t[0], t[1], t[2], t[0]+t[2])
		}
		b.Logf("rank %d: resample %.0f ms, regrade %.0f ms, migrate %.0f ms", r, spent[r][0], spent[r][1], spent[r][2])
		b.ReportMetric(sum[r][2][0]+sum[r][2][2], fmt.Sprintf("l2_sweep_ms_r%d", r))
	}
}
