package sim_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/core"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/scenario"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
	"walberla/internal/testutil"
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

// runEachMode is p.RunEach(0, fn) with the ghost exchange wire format
// chosen by hand. No front end selects the per-pair format any more — it
// is the differential oracle of these tests — so the world is built here:
// forest, distribution, and the problem's sim.Config with Exchange set.
func runEachMode(p *core.Problem, mode sim.ExchangeMode, fn func(c *comm.Comm, s *sim.Simulation, m sim.Metrics)) error {
	forest, err := p.BuildForest()
	if err != nil {
		return err
	}
	var mu sync.Mutex
	comm.Run(max(p.Ranks, 1), func(c *comm.Comm) {
		var in *blockforest.SetupForest
		if c.Rank() == 0 {
			in = forest
		}
		bf, rerr := blockforest.Distribute(c, in)
		var s *sim.Simulation
		if rerr == nil {
			s, rerr = sim.NewWithExchange(c, bf, p.SimConfig(), mode)
		}
		if rerr != nil {
			mu.Lock()
			err = rerr
			mu.Unlock()
			return
		}
		fn(c, s, sim.Metrics{})
	})
	return err
}

// treeHash steps the smoke tree and returns its field hash; with poison set,
// every ghost slot the exchange plan does not write holds NaN before every
// step.
func treeHash(t *testing.T, ranks, workers int, mode sim.ExchangeMode, poison bool) uint64 {
	t.Helper()
	const steps = 30
	p := problemFor(t, treeDoc(2, 0.05, ranks))
	p.Workers = workers
	var hash uint64
	err := runEachMode(p, mode, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
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

// treeFlagsHash folds the flag fields of every block of the smoke tree,
// ghost layers included, in block coordinate order.
func treeFlagsHash(t *testing.T, ranks int) uint64 {
	t.Helper()
	type blockFlags struct {
		coord [3]int
		hash  uint64
	}
	var mu sync.Mutex
	var all []blockFlags
	err := problemFor(t, treeDoc(2, 0.05, ranks)).RunEach(0, func(_ *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
		mu.Lock()
		defer mu.Unlock()
		for _, bd := range s.Blocks {
			h := fnv.New64a()
			for _, c := range bd.Flags.Data() {
				h.Write([]byte{byte(c)})
			}
			all = append(all, blockFlags{bd.Block.Coord, h.Sum64()})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].coord, all[j].coord
		return a[2] < b[2] || a[2] == b[2] && (a[1] < b[1] || a[1] == b[1] && a[0] < b[0])
	})
	h := fnv.New64a()
	for _, b := range all {
		fmt.Fprint(h, b.coord, b.hash)
	}
	return h.Sum64()
}

// TestTreeFlagsPinned holds every flag of the smoke tree — fluid, hull and
// the inflow/outflow/wall colors the hull cells take from their nearest
// triangle — to the value recorded before Union.ClosestTriangleColor
// stopped searching twice and BuildForest went parallel.
func TestTreeFlagsPinned(t *testing.T) {
	const want = 0xca68dfecc5da807e
	for _, ranks := range []int{1, 2} {
		if got := treeFlagsHash(t, ranks); got != want {
			t.Errorf("%d ranks: flag hash %#016x, recorded %#016x", ranks, got, uint64(want))
		}
	}
}

// treeRun is one run of the smoke tree and what it left behind.
type treeRun struct {
	ranks, workers int
	mode           sim.ExchangeMode
	layout         sim.LayoutChoice
	// wholeBlocks routes the uniform initial state through an InitialState
	// func, which makes every block allocate its whole ghosted box.
	wholeBlocks bool
	// drive, if set, replaces the plain time loop.
	drive func(c *comm.Comm, s *sim.Simulation) error

	hash             uint64
	bits             map[[3]int][]uint64     // every interior PDF, by block
	windows          map[[3]int]field.Window // allocation window, by block
	allocated, block []int64                 // FieldCells by rank
}

const treeSteps = 30

// run builds the smoke tree, advances it treeSteps steps (or calls drive)
// and records the outcome.
func (r *treeRun) run(t *testing.T) *treeRun {
	t.Helper()
	p := problemFor(t, treeDoc(2, 0.05, r.ranks))
	p.Workers, p.Layout = r.workers, r.layout
	if r.wholeBlocks {
		p.InitialState = func(int, int, int) (float64, float64, float64, float64) {
			return 1, p.InitialVelocity[0], p.InitialVelocity[1], p.InitialVelocity[2]
		}
	}
	if p.InitialRho != 0 && p.InitialRho != 1 {
		t.Fatalf("tree scenario starts at density %v, the whole-block oracle assumes 1", p.InitialRho)
	}
	r.bits, r.windows = make(map[[3]int][]uint64), make(map[[3]int]field.Window)
	r.allocated, r.block = make([]int64, r.ranks), make([]int64, r.ranks)
	var mu sync.Mutex
	err := runEachMode(p, r.mode, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
		drive := r.drive
		if drive == nil {
			drive = func(_ *comm.Comm, s *sim.Simulation) error { _, err := s.Run(treeSteps); return err }
		}
		if err := drive(c, s); err != nil {
			t.Error(err)
			return
		}
		h, err := s.FieldHash()
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		r.hash = h
		r.allocated[c.Rank()], r.block[c.Rank()] = s.FieldCells()
		r.collect(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return r
}

// collect records every interior PDF and the allocation window of the
// rank's blocks.
func (r *treeRun) collect(s *sim.Simulation) {
	for _, bd := range s.Blocks {
		f := bd.Src
		var bits []uint64
		for z := 0; z < f.Nz; z++ {
			for y := 0; y < f.Ny; y++ {
				for x := 0; x < f.Nx; x++ {
					for a := 0; a < f.Stencil.Q; a++ {
						bits = append(bits, math.Float64bits(f.At(x, y, z, lattice.Direction(a))))
					}
				}
			}
		}
		r.bits[bd.Block.Coord] = bits
		r.windows[bd.Block.Coord] = f.Window()
	}
}

// sameAs requires the run to end on the hash, on every interior PDF and —
// when the other run cropped too — on the allocation windows of want.
func (r *treeRun) sameAs(t *testing.T, label string, want *treeRun) {
	t.Helper()
	if r.hash != want.hash {
		t.Errorf("%s: field hash %016x, want %016x", label, r.hash, want.hash)
	}
	if len(r.bits) != len(want.bits) {
		t.Fatalf("%s: %d blocks, want %d", label, len(r.bits), len(want.bits))
	}
	for coord, wb := range want.bits {
		gb := r.bits[coord]
		if len(gb) != len(wb) {
			t.Fatalf("%s: block %v has %d values, want %d", label, coord, len(gb), len(wb))
		}
		for i := range wb {
			if gb[i] != wb[i] {
				t.Fatalf("%s: block %v value %d: bits %016x, want %016x", label, coord, i, gb[i], wb[i])
			}
		}
		if !want.wholeBlocks && r.windows[coord] != want.windows[coord] {
			t.Errorf("%s: block %v window %v, want %v", label, coord, r.windows[coord], want.windows[coord])
		}
	}
}

// TestTreeWindowsMatchWholeBlocks: on the voxelized tree, in both layouts,
// on one rank and two, for every worker count and exchange mode, fields
// cropped to their fluid end on the hash and on every interior PDF of
// fields that store whole blocks.
func TestTreeWindowsMatchWholeBlocks(t *testing.T) {
	for _, layout := range []sim.LayoutChoice{sim.LayoutSoA, sim.LayoutAoS} {
		want := (&treeRun{ranks: 1, workers: 1, mode: sim.ExchangePerPair, layout: layout, wholeBlocks: true}).run(t)
		if want.allocated[0] != want.block[0] {
			t.Fatalf("%s: oracle stores %d of %d cells, want whole blocks", layout, want.allocated[0], want.block[0])
		}
		for _, ranks := range []int{1, 2} {
			for _, workers := range []int{1, 2, 4} {
				for _, mode := range []sim.ExchangeMode{sim.ExchangeAggregated, sim.ExchangePerPair} {
					got := (&treeRun{ranks: ranks, workers: workers, mode: mode, layout: layout}).run(t)
					got.sameAs(t, fmt.Sprintf("%s ranks=%d workers=%d %v", layout, ranks, workers, mode), want)
				}
			}
		}
	}
}

// recoverTree runs the smoke tree under the resilient driver on `active`
// ranks plus `spares` parked ones, crashes `victim` at step 17 and returns
// what the ranks that finished the run hold, with their recovery stats.
func recoverTree(t *testing.T, rc sim.ResilienceConfig, active, spares, victim int) (*treeRun, []sim.RecoveryStats) {
	t.Helper()
	testutil.CheckLeaks(t)
	p := problemFor(t, treeDoc(2, 0.05, active))
	forest, err := p.BuildForest()
	if err != nil {
		t.Fatal(err)
	}
	header := &blockforest.BlockForest{Domain: forest.Domain, GridSize: forest.GridSize, CellsPerBlock: forest.CellsPerBlock}
	rc.CheckpointEvery, rc.MaxFailures = 5, 4
	rc.BackoffBase, rc.BackoffMax = time.Millisecond, 10*time.Millisecond
	r := &treeRun{bits: make(map[[3]int][]uint64), windows: make(map[[3]int]field.Window)}
	var mu sync.Mutex
	var stats []sim.RecoveryStats
	finish := func(s *sim.Simulation, m sim.Metrics) {
		h, err := s.FieldHash()
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		r.hash = h
		stats = append(stats, m.Recovery)
		r.collect(s)
	}
	opts := comm.Options{Faults: &comm.FaultPlan{Seed: 3, Crashes: []comm.CrashSpec{{Rank: victim, Step: 17}}}}
	comm.RunWithOptions(active+spares, opts, func(c *comm.Comm) {
		cfg := p.SimConfig()
		if c.WorldRank() >= active {
			s, m, joined, err := sim.RunSpareCtx(context.Background(), c, active, header, cfg, treeSteps, rc)
			if err != nil {
				t.Errorf("spare %d: %v", c.WorldRank(), err)
			} else if joined {
				finish(s, m)
			}
			return
		}
		ac := c
		if spares > 0 {
			ac = c.GrowWorld(active)
		}
		var in *blockforest.SetupForest
		if ac.Rank() == 0 {
			in = forest
		}
		bf, err := blockforest.Distribute(ac, in)
		if err != nil {
			t.Error(err)
			return
		}
		s, err := sim.New(ac, bf, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := s.RunResilient(treeSteps, rc)
		if errors.Is(err, sim.ErrRetired) && c.WorldRank() == victim {
			return
		}
		if err != nil {
			t.Errorf("rank %d: %v", c.WorldRank(), err)
			return
		}
		finish(s, m)
	})
	if t.Failed() {
		t.FailNow()
	}
	return r, stats
}

// TestTreeRecoveryRebuildsWindows: a block that is restored, migrated or
// adopted comes back with the allocation window its flags imply and the
// state it had — rewind from a disk set, shrink onto the survivors, heal
// through a spare (both from buddy memory, without touching the disk) and
// a rebalance that moves every block all end on the fault-free hash, PDFs
// and windows.
func TestTreeRecoveryRebuildsWindows(t *testing.T) {
	want := (&treeRun{ranks: 1, workers: 1}).run(t)
	if want.allocated[0] >= want.block[0] {
		t.Fatalf("reference tree stores %d of %d cells: nothing cropped", want.allocated[0], want.block[0])
	}
	inMemory := func(t *testing.T, stats []sim.RecoveryStats) {
		t.Helper()
		restores := 0
		for _, r := range stats {
			restores += r.BuddyRestores
			if r.DiskRestores != 0 || r.DiskReadsDuringRecovery != 0 {
				t.Errorf("recovery touched the disk: %+v", r)
			}
		}
		if restores == 0 {
			t.Errorf("no rank restored from buddy memory: %+v", stats)
		}
	}
	t.Run("rewind", func(t *testing.T) {
		got, stats := recoverTree(t, sim.ResilienceConfig{Mode: sim.RecoverRewind, Dir: t.TempDir()}, 2, 0, 1)
		got.sameAs(t, "rewind", want)
		for _, r := range stats {
			if r.Restores != 1 || r.StepsReplayed == 0 {
				t.Errorf("no rewind to a checkpoint set happened: %+v", r)
			}
		}
	})
	t.Run("shrink", func(t *testing.T) {
		got, stats := recoverTree(t, sim.ResilienceConfig{Mode: sim.RecoverShrink}, 3, 0, 1)
		got.sameAs(t, "shrink", want)
		inMemory(t, stats)
		adopted := 0
		for _, r := range stats {
			adopted += r.BlocksAdopted
		}
		if len(stats) != 2 || adopted == 0 {
			t.Errorf("%d survivors adopted %d blocks, want 2 survivors adopting the victim's", len(stats), adopted)
		}
	})
	t.Run("heal", func(t *testing.T) {
		got, stats := recoverTree(t, sim.ResilienceConfig{Mode: sim.RecoverHeal}, 2, 1, 1)
		got.sameAs(t, "heal", want)
		inMemory(t, stats)
		if len(stats) != 2 {
			t.Errorf("%d ranks finished the healed run, want 2", len(stats))
		}
	})
	t.Run("rebalance", func(t *testing.T) {
		forest, err := problemFor(t, treeDoc(2, 0.05, 2)).BuildForest()
		if err != nil {
			t.Fatal(err)
		}
		swap := make(map[[3]int]int)
		for _, b := range forest.Blocks() {
			swap[b.Coord] = 1 - b.Rank
		}
		got := (&treeRun{ranks: 2, workers: 2, drive: func(_ *comm.Comm, s *sim.Simulation) error {
			if _, err := s.Run(10); err != nil {
				return err
			}
			before := len(s.Blocks)
			if err := s.Rebalance(swap); err != nil {
				return err
			}
			if len(s.Blocks)+before != len(swap) {
				return fmt.Errorf("rank holds %d blocks after holding %d of %d: not every block moved", len(s.Blocks), before, len(swap))
			}
			_, err := s.Run(treeSteps - 10)
			return err
		}}).run(t)
		got.sameAs(t, "rebalance", want)
	})
}

// TestFieldMemoryFollowsFluid is the memory-proportionality gate: on the
// smoke tree the PDF fields store at most 0.4 of the cells of their
// ghosted blocks, no block more than its fluid's bounding box grown by one
// cell a side, and the world total is the same on 1, 2 and 4 ranks — what
// a rank allocates follows the fluid it owns, not the world's box or the
// rank count. All-fluid worlds store exactly their blocks. The gauges
// publish the same numbers.
func TestFieldMemoryFollowsFluid(t *testing.T) {
	footprint := func(doc string, perBlock func(bd *sim.BlockData)) (allocated, block int64) {
		p := problemFor(t, doc)
		regs := make([]*telemetry.Registry, p.Ranks)
		for i := range regs {
			regs[i] = telemetry.NewRegistry()
		}
		p.TelemetryFor = func(rank int) (*telemetry.Tracer, *telemetry.Registry) { return nil, regs[rank] }
		var mu sync.Mutex
		err := p.RunEach(0, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
			a, b := s.FieldCells()
			mu.Lock()
			defer mu.Unlock()
			allocated, block = allocated+a, block+b
			reg := regs[c.Rank()]
			if ga, gb := reg.Gauge("sim.field.allocated_cells").Value(), reg.Gauge("sim.field.block_cells").Value(); ga != float64(a) || gb != float64(b) {
				t.Errorf("rank %d: gauges say %v of %v cells, FieldCells %d of %d", c.Rank(), ga, gb, a, b)
			}
			for _, bd := range s.Blocks {
				if perBlock != nil {
					perBlock(bd)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return allocated, block
	}
	var world int64
	for _, ranks := range []int{1, 2, 4} {
		allocated, block := footprint(treeDoc(2, 0.05, ranks), func(bd *sim.BlockData) {
			box, limit := bd.Flags.Bounds(field.Fluid), 1
			for d := 0; d < 3; d++ {
				limit *= box.Hi[d] - box.Lo[d] + 2
			}
			if got := bd.Src.AllocatedCells(); got > limit || bd.Dst.AllocatedCells() != got || (box.Empty() && got != 0) {
				t.Errorf("block %v stores %d cells, its fluid box %v allows %d", bd.Block.Coord, got, box, limit)
			}
		})
		if 10*allocated > 4*block {
			t.Errorf("tree on %d ranks stores %d of %d cells, want at most 0.4", ranks, allocated, block)
		}
		if world == 0 {
			world = allocated
		}
		if allocated != world || allocated == 0 {
			t.Errorf("tree on %d ranks stores %d cells, on 1 rank %d", ranks, allocated, world)
		}
	}
	for name, doc := range map[string]string{
		"cavity":       fmt.Sprintf(cavityDoc, 8, 8, 8, 2),
		"taylor-green": fmt.Sprintf(taylorGreenDoc, 2),
	} {
		if allocated, block := footprint(doc, nil); allocated != block || block == 0 {
			t.Errorf("%s stores %d of %d cells, want exactly its blocks", name, allocated, block)
		}
	}
}

// BenchmarkNewSim times sim.New alone — flag setup, kernel and boundary
// construction, field allocation and initialization — on one rank over a
// forest built once: the sparse tree of BenchmarkPostExchange and the
// dense_node cavity. cells/op is the PDF field footprint per field.
func BenchmarkNewSim(b *testing.B) {
	for _, w := range []struct{ name, doc string }{
		{"tree", treeDoc(3, 0.012, 1)},
		{"dense32", fmt.Sprintf(cavityDoc, 32, 32, 32, 1)},
	} {
		b.Run(w.name, func(b *testing.B) {
			p := problemFor(b, w.doc)
			forest, err := p.BuildForest()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				comm.Run(1, func(c *comm.Comm) {
					bf, err := blockforest.Distribute(c, forest)
					if err != nil {
						b.Error(err)
						return
					}
					s, err := sim.New(c, bf, p.SimConfig())
					if err != nil {
						b.Error(err)
						return
					}
					allocated, _ := s.FieldCells()
					b.ReportMetric(float64(allocated), "cells/op")
				})
			}
		})
	}
}
