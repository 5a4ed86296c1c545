package sim_test

import (
	"fmt"
	"sync"
	"testing"

	"walberla/internal/comm"
	"walberla/internal/core"
	"walberla/internal/scenario"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

// problemFor parses a scenario document into its core.Problem.
func problemFor(tb testing.TB, doc string) *core.Problem {
	tb.Helper()
	sc, err := scenario.Parse([]byte(doc))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := sc.Problem()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// treeDoc is the synthetic coronary tree in blocks of 16^3.
func treeDoc(depth int, dx float64, ranks int) string {
	return fmt.Sprintf(`{"version": 1, "geometry": {"example": "tree", "tree_depth": %d, "dx": %g},
  "resolution": {"cells_per_block": [16, 16, 16]}, "parallel": {"ranks": %d}, "run": {"steps": 1}}`, depth, dx, ranks)
}

const (
	cavityDoc = `{"version": 1, "geometry": {"example": "cavity"},
  "resolution": {"grid": [2, 2, 2], "cells_per_block": [%d, %d, %d]}, "parallel": {"ranks": %d}, "run": {"steps": 1}}`
	taylorGreenDoc = `{"version": 1, "geometry": {"example": "taylor-green"},
  "resolution": {"grid": [4, 4, 4], "cells_per_block": [8, 8, 8]}, "parallel": {"ranks": %d}, "run": {"steps": 1}}`
)

// exchangeStats builds the world of a scenario document and returns the
// exchange statistics summed over its ranks, checking on the way that each
// rank publishes its own as gauges.
func exchangeStats(t *testing.T, doc string) sim.ExchangeStats {
	t.Helper()
	var mu sync.Mutex
	var sum sim.ExchangeStats
	p := problemFor(t, doc)
	regs := make([]*telemetry.Registry, p.Ranks)
	for i := range regs {
		regs[i] = telemetry.NewRegistry()
	}
	p.TelemetryFor = func(rank int) (*telemetry.Tracer, *telemetry.Registry) { return nil, regs[rank] }
	err := p.RunEach(0, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
		es := s.ExchangeStats()
		mu.Lock()
		defer mu.Unlock()
		for name, want := range map[string]int{
			"sim.exchange.local_floats":        es.LocalFloats,
			"sim.exchange.local_copies_elided": es.LocalCopiesElided,
			"sim.exchange.local_floats_elided": es.LocalFloatsElided,
		} {
			if got := regs[c.Rank()].Gauge(name).Value(); got != float64(want) {
				t.Errorf("rank %d: gauge %s = %v, ExchangeStats says %d", c.Rank(), name, got, want)
			}
		}
		sum.LocalCopies += es.LocalCopies
		sum.LocalFloats += es.LocalFloats
		sum.LocalCopiesElided += es.LocalCopiesElided
		sum.LocalFloatsElided += es.LocalFloatsElided
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestLocalCopyElisionByWorld pins the share of each kind of world that has
// the property the need-mask exploits: on the sparse tree most of what the
// full slabs carried is solid and leaves the plan, on all-fluid worlds —
// walled or periodic — every ghost slot is read and nothing may be elided.
func TestLocalCopyElisionByWorld(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		es := exchangeStats(t, treeDoc(2, 0.05, ranks))
		if es.LocalCopies == 0 || es.LocalCopiesElided == 0 {
			t.Errorf("tree on %d ranks: %+v, want copies both kept and elided", ranks, es)
		}
		if share := float64(es.LocalFloatsElided) / float64(es.LocalFloats+es.LocalFloatsElided); share <= 0.8 {
			t.Errorf("tree on %d ranks: elided share %.3f of %d values, want > 0.8",
				ranks, share, es.LocalFloats+es.LocalFloatsElided)
		}
		for name, doc := range map[string]string{
			"cavity":       fmt.Sprintf(cavityDoc, 8, 8, 8, ranks),
			"taylor-green": fmt.Sprintf(taylorGreenDoc, ranks),
		} {
			es := exchangeStats(t, doc)
			if es.LocalCopies == 0 || es.LocalFloats == 0 {
				t.Errorf("%s on %d ranks: no local copies: %+v", name, ranks, es)
			}
			if es.LocalCopiesElided != 0 || es.LocalFloatsElided != 0 {
				t.Errorf("%s on %d ranks: elided %d copies, %d values; want exactly 0",
					name, ranks, es.LocalCopiesElided, es.LocalFloatsElided)
			}
		}
	}
}

// treeHash steps the smoke tree and returns its field hash; with poison set,
// every ghost slot the exchange plan does not write holds NaN before every
// step.
func treeHash(t *testing.T, ranks, workers int, mode sim.ExchangeMode, poison bool) uint64 {
	t.Helper()
	const steps = 30
	p := problemFor(t, treeDoc(2, 0.05, ranks))
	p.Workers = workers
	p.Exchange = mode
	var hash uint64
	err := p.RunEach(0, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
		pre := func() {}
		if poison {
			pre = s.GhostPoisoner()
		}
		for i := 0; i < steps; i++ {
			pre()
			if err := s.Step(); err != nil {
				t.Error(err)
				return
			}
		}
		h, err := s.FieldHash()
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			hash = h
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// TestTreeCompiledMatchesPerPair: on the voxelized tree — sparse interval
// kernels, inflow and outflow conditions, a hull of boundary cells crossing
// block faces — the masked copies end on the per-pair hash, one rank or two,
// poisoned or not.
func TestTreeCompiledMatchesPerPair(t *testing.T) {
	want := treeHash(t, 1, 1, sim.ExchangePerPair, false)
	for _, ranks := range []int{1, 2} {
		for _, poison := range []bool{false, true} {
			if got := treeHash(t, ranks, 1, sim.ExchangeAggregated, poison); got != want {
				t.Errorf("ranks=%d poison=%v: field hash %016x, per-pair %016x", ranks, poison, got, want)
			}
		}
	}
}

// BenchmarkPostExchange times the post half of the ghost exchange alone on
// one rank, where it consists of nothing but the same-rank copies: a sparse
// tree (49 blocks of 16^3, fluid fraction 0.05), the dense_node cavity
// (2x2x2 blocks of 32^3) and the halo_unix box (4x4x4 periodic blocks of
// 8^3).
func BenchmarkPostExchange(b *testing.B) {
	for _, w := range []struct{ name, doc string }{
		{"tree", treeDoc(3, 0.012, 1)},
		{"dense32", fmt.Sprintf(cavityDoc, 32, 32, 32, 1)},
		{"halo8", fmt.Sprintf(taylorGreenDoc, 1)},
	} {
		b.Run(w.name, func(b *testing.B) {
			p := problemFor(b, w.doc)
			err := p.RunEach(0, func(_ *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.PostExchange(); err != nil {
						b.Fatal(err)
					}
				}
				es := s.ExchangeStats()
				b.ReportMetric(float64(es.LocalCopies), "copies/op")
				b.ReportMetric(float64(es.LocalFloats), "values/op")
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
