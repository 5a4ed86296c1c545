package sim_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"walberla/internal/amr"
	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/core"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/scenario"
	"walberla/internal/setup"
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
func treeDoc(depth int, dx float64, ranks int) string { return treeDocCells(depth, dx, 16, ranks) }

// treeDocCells is treeDoc in blocks of cells³.
func treeDocCells(depth int, dx float64, cells, ranks int) string {
	return fmt.Sprintf(`{"version": 1, "geometry": {"example": "tree", "tree_depth": %d, "dx": %g},
  "resolution": {"cells_per_block": [%d, %d, %d]}, "parallel": {"ranks": %d}, "run": {"steps": 1}}`, depth, dx, cells, cells, cells, ranks)
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
			"sim.exchange.local_floats":         es.LocalFloats,
			"sim.exchange.local_copies_elided":  es.LocalCopiesElided,
			"sim.exchange.local_floats_elided":  es.LocalFloatsElided,
			"sim.exchange.local_floats_aliased": es.LocalFloatsAliased,
		} {
			if got := regs[c.Rank()].Gauge(name).Value(); got != float64(want) {
				t.Errorf("rank %d: gauge %s = %v, ExchangeStats says %d", c.Rank(), name, got, want)
			}
		}
		sum.LocalCopies += es.LocalCopies
		sum.LocalFloats += es.LocalFloats
		sum.LocalCopiesElided += es.LocalCopiesElided
		sum.LocalFloatsElided += es.LocalFloatsElided
		sum.LocalFloatsAliased += es.LocalFloatsAliased
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
// What an all-fluid rank's arena shares does not move either, but it is
// aliased, not elided: the same-rank slabs are all moved or aliased.
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
			if es.LocalFloats+es.LocalFloatsAliased == 0 || es.LocalFloatsAliased == 0 {
				t.Errorf("%s on %d ranks: no local slabs, or none aliased: %+v", name, ranks, es)
			}
			if es.LocalCopiesElided != 0 || es.LocalFloatsElided != 0 {
				t.Errorf("%s on %d ranks: elided %d copies, %d values; want exactly 0",
					name, ranks, es.LocalCopiesElided, es.LocalFloatsElided)
			}
		}
	}
}

// benchWorldDocs are the worlds of bench/workloads.go at their smoke size
// (dense_node, halo_unix, tree_sparse, amr_shear), and halo_unix at its
// timed size.
var benchWorldDocs = []struct{ name, doc string }{
	{"dense_node", `{"version": 1, "geometry": {"example": "cavity", "lid_velocity": 0.05},
  "resolution": {"grid": [2, 2, 2], "cells_per_block": [8, 8, 8]}, "collision": {"tau": 0.65},
  "parallel": {"ranks": 1, "workers": 2}, "run": {"steps": 1}}`},
	{"halo_unix", `{"version": 1, "geometry": {"example": "taylor-green", "amplitude": 0.02},
  "resolution": {"grid": [2, 2, 2], "cells_per_block": [8, 8, 8]}, "collision": {"tau": 0.8},
  "parallel": {"ranks": 2}, "run": {"steps": 1}}`},
	{"tree_sparse", treeDoc(2, 0.05, 2)},
	{"amr_shear", `{"version": 1, "geometry": {"example": "taylor-green", "amplitude": 0.05},
  "resolution": {"grid": [16, 1, 1], "cells_per_block": [4, 4, 4]}, "collision": {"tau": 0.53},
  "refinement": {"max_level": 2, "criterion": "gradient", "refine_above": 0.0015, "coarsen_below": 0.0004, "interval": 4},
  "physics": {"initial_velocity": [0.04, 0, 0]}, "parallel": {"ranks": 2}, "run": {"steps": 1}}`},
	{"halo_unix timed", fmt.Sprintf(taylorGreenDoc, 2)},
}

// TestRunShapesByWorld logs the run-shape histogram of each bench world's
// exchange plan — per shape of execRuns, the rows and values same-rank
// copies and remote packs and unpacks move per step — and pins what rank
// arenas leave of the same-rank copies: on the halo world at its timed
// size a rank's same-rank values fall by at least 75 % (only the periodic
// x and y wraps copy), on dense_node to none.
func TestRunShapesByWorld(t *testing.T) {
	for _, w := range benchWorldDocs {
		var mu sync.Mutex
		err := problemFor(t, w.doc).RunEach(0, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
			h, es := s.RunShapes(), s.ExchangeStats()
			mu.Lock()
			defer mu.Unlock()
			var keys []string
			for k := range h {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				t.Logf("%s rank %d: %-16s %6d rows %7d values", w.name, c.Rank(), k, h[k].Rows, h[k].Values)
			}
			same := 0
			for _, k := range keys {
				if strings.HasPrefix(k, "same-rank ") {
					same += h[k].Values
				}
			}
			if same != es.LocalFloats {
				t.Errorf("%s rank %d: the same-rank runs move %d values, ExchangeStats %d", w.name, c.Rank(), same, es.LocalFloats)
			}
			switch w.name {
			case "dense_node":
				if same != 0 || es.LocalFloatsAliased == 0 {
					t.Errorf("dense_node: %d same-rank values copied (%d aliased), want none", same, es.LocalFloatsAliased)
				}
			case "halo_unix timed":
				if 4*same > same+es.LocalFloatsAliased {
					t.Errorf("halo rank %d copies %d same-rank values of %d, want at most a quarter", c.Rank(), same, same+es.LocalFloatsAliased)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestArenaRankCountOracle: Taylor–Green in 4x4x4 blocks of 8³ ends on
// one field hash on 1, 2 and 3 ranks with 1 and 2 workers, in process and
// over unix sockets. On 1 and 2 ranks every rank's blocks fill a box and
// share its one arena; the Morton thirds of 3 ranks fill none, and every
// rank covers its blocks with several (logged).
func TestArenaRankCountOracle(t *testing.T) {
	const steps = 10
	var want uint64
	for _, network := range []string{"inproc", "unix"} {
		for _, ranks := range []int{1, 2, 3} {
			for _, workers := range []int{1, 2} {
				doc := fmt.Sprintf(`{"version": 1, "geometry": {"example": "taylor-green"},
  "resolution": {"grid": [4, 4, 4], "cells_per_block": [8, 8, 8]}, "parallel": {"ranks": %d, "workers": %d},
  "transport": {"network": %q}, "run": {"steps": 1}}`, ranks, workers, network)
				label := fmt.Sprintf("%s ranks=%d workers=%d", network, ranks, workers)
				var mu sync.Mutex
				var hash uint64
				err := problemFor(t, doc).RunEach(steps, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
					h, err := s.FieldHash()
					arenas := s.ArenaBoxes(false)
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						t.Errorf("%s: %v", label, err)
					}
					if c.Rank() == 0 {
						hash = h
					}
					if ranks < 3 && len(arenas) != 1 || ranks == 3 && len(arenas) < 2 {
						t.Errorf("%s: rank %d forms %d arenas", label, c.Rank(), len(arenas))
					}
					for _, a := range arenas {
						t.Logf("%s rank %d: %v", label, c.Rank(), a)
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if want == 0 {
					want = hash
				}
				if hash != want {
					t.Errorf("%s: field hash %016x, want %016x", label, hash, want)
				}
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
// 8^3). Its tree-2ranks row splits the tree over two ranks; a post may
// repack a send buffer only after the peer unpacked it, so that row times
// whole exchanges — pack, send, same-rank copies, receive, unpack — and
// reports rank 0's remote values (sent plus received) per exchange.
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
	b.Run("tree-2ranks", func(b *testing.B) {
		p := problemFor(b, treeDoc(3, 0.012, 2))
		err := p.RunEach(0, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
			c.Barrier()
			if c.Rank() == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if err := s.ExchangeGhostLayers(); err != nil {
					b.Error(err)
					return
				}
			}
			if c.Rank() == 0 {
				b.StopTimer()
				es := s.ExchangeStats()
				b.ReportMetric(float64(es.LocalCopies), "copies/op")
				b.ReportMetric(float64(es.LocalFloats), "values/op")
				b.ReportMetric(float64(es.SendFloats+es.RecvFloats), "remote-values/op")
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
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

// TestNewOnWorkersBuildsSerialBlocks: sim.New assembles a rank's blocks
// on the worker pool. On 4 workers it builds what 1 builds — the same
// blocks in the same (forest) order, with the same flags, fluid counts and
// kernels — and the world ends on the same hash after 10 steps. The
// trimmed tree lands its flags from the forest build's voxels; the
// Taylor–Green world calls a per-cell InitialState from every worker.
func TestNewOnWorkersBuildsSerialBlocks(t *testing.T) {
	type built struct {
		ids    []blockforest.BlockID
		flags  [][]field.CellType
		fluid  []int
		kernel []string
	}
	for _, w := range []struct{ name, doc string }{
		{"trimmed tree", treeDocCells(2, 0.02, 8, 2)},
		{"taylor-green", fmt.Sprintf(taylorGreenDoc, 2)},
	} {
		t.Run(w.name, func(t *testing.T) {
			run := func(workers int) ([]built, uint64) {
				p := problemFor(t, w.doc)
				p.Workers = workers
				ranks := make([]built, p.Ranks)
				var hash uint64
				err := p.RunEach(10, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
					var b built
					for _, bd := range s.Blocks {
						b.ids = append(b.ids, bd.Block.ID)
						b.flags = append(b.flags, slices.Clone(bd.Flags.Data()))
						b.fluid = append(b.fluid, bd.Fluid)
						b.kernel = append(b.kernel, bd.Kernel.Name())
					}
					ranks[c.Rank()] = b
					h, err := s.FieldHash()
					if err != nil {
						t.Error(err)
					}
					if c.Rank() == 0 {
						hash = h
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				return ranks, hash
			}
			want, wantHash := run(1)
			got, gotHash := run(4)
			for r := range want {
				if !reflect.DeepEqual(got[r], want[r]) {
					t.Errorf("rank %d: the blocks built on 4 workers differ from those built on 1", r)
				}
			}
			if gotHash != wantHash {
				t.Errorf("hash after 10 steps: %#x on 4 workers, %#x on 1", gotHash, wantHash)
			}
		})
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
	bits             map[[3]int][]uint64    // every interior PDF, by block
	rows             map[[3]int]*field.Rows // allocation rows, by block
	allocated, block []int64                // FieldCells by rank
}

const treeSteps = 30

// run builds the smoke tree, advances it treeSteps steps (or calls drive)
// and records the outcome.
func (r *treeRun) run(t *testing.T) *treeRun {
	t.Helper()
	p := problemFor(t, treeDoc(2, 0.05, r.ranks))
	p.Workers, p.Layout = r.workers, r.layout
	if r.wholeBlocks {
		p.InitialState = func(float64, float64, float64) (float64, float64, float64, float64) {
			return 1, p.InitialVelocity[0], p.InitialVelocity[1], p.InitialVelocity[2]
		}
	}
	if p.InitialRho != 0 && p.InitialRho != 1 {
		t.Fatalf("tree scenario starts at density %v, the whole-block oracle assumes 1", p.InitialRho)
	}
	r.bits, r.rows = make(map[[3]int][]uint64), make(map[[3]int]*field.Rows)
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

// collect records every interior PDF and the allocation rows of the
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
		r.rows[bd.Block.Coord] = f.Rows()
	}
}

// sameAs requires the run to end on the hash, on every interior PDF and —
// when the other run cropped too — on the allocation rows of want.
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
		if !want.wholeBlocks && !r.rows[coord].Equal(want.rows[coord]) {
			t.Errorf("%s: block %v stores rows of %d cells in %v, want %d in %v", label, coord,
				r.rows[coord].Cells(), r.rows[coord].Window(), want.rows[coord].Cells(), want.rows[coord].Window())
		}
	}
}

// TestTreeWindowsMatchWholeBlocks: on the voxelized tree, in both layouts,
// on one rank and two, for every worker count and exchange mode, fields
// stored in allocation rows around their fluid end on the hash and on
// every interior PDF of fields that store whole blocks.
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
	r := &treeRun{bits: make(map[[3]int][]uint64), rows: make(map[[3]int]*field.Rows)}
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
			s, m, joined, err := sim.RunSpareCtx(context.Background(), c, active, sim.Spare(header, cfg), treeSteps, rc)
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
// adopted comes back with the allocation rows its flags imply and the
// state it had — rewind from a disk set, shrink onto the survivors, heal
// through a spare (both from buddy memory, without touching the disk) and
// a rebalance that moves every block all end on the fault-free hash, PDFs
// and rows.
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
			if err := s.Rebalance(sim.ByCoord(s, swap)); err != nil {
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

// builtState is what construction fixes of one block besides its fields:
// the owner, the flag field (ghost layers included) and the neighborhood.
type builtState struct {
	rank      int
	flags     []field.CellType
	neighbors []blockforest.Neighbor
	view      bool // the block's fields are views of its rank's arena
}

// builtStates records the built state of every block of the rank.
func builtStates(s *sim.Simulation, mu *sync.Mutex, into map[[3]int]builtState) {
	mu.Lock()
	defer mu.Unlock()
	for _, bd := range s.Blocks {
		into[bd.Block.Coord] = builtState{s.Comm.Rank(), slices.Clone(bd.Flags.Data()), slices.Clone(bd.Block.Neighbors), bd.Src.Rows().View()}
	}
}

// TestShrinkAndRebalanceMatchConstruction: blocks that change owner carry
// their fields alone, and the world they land in rebuilds the rest. After
// a shrink and after a rebalance, every block — kept, adopted or moved —
// holds bit for bit the flag field and the neighbor list (IDs, offsets,
// owners) that sim.New builds for that block when the forest assigns it
// there from the start. Three worlds: the smoke tree, whose flags come from
// its signed distance function on a sparse forest with missing neighbors;
// the tree in blocks of 8³ at dx 0.02, whose geometry trims blocks from
// the grid, so blocks land next to a trimmed region; and the cavity, whose
// flags read neighbor existence. The smoke tree once more on two workers,
// which build the adopted blocks in parallel.
//
// No row holds memory after it ends, but the refined cavity's shrink row
// peaks at about 0.9 GB of live heap: five copies of its 576 leaves' fields
// (the blocks, two own snapshot generations and two decoded replica
// generations). A GC target of 25 % keeps the garbage beside them small,
// which under -race also shrinks the shadow memory, and every row hands
// its heap back to the OS when it ends.
func TestShrinkAndRebalanceMatchConstruction(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	worlds := []struct {
		name, doc string
		workers   int
		trimmed   bool
	}{
		{"tree", treeDoc(2, 0.05, 3), 1, false},
		{"trimmed tree", treeDocCells(2, 0.02, 8, 3), 1, true},
		{"cavity", fmt.Sprintf(cavityDoc, 8, 8, 8, 3), 1, false},
		{"tree on 2 workers", treeDoc(2, 0.05, 3), 2, false},
		// Every rank's Morton third is a 2x2x2 box of all-fluid blocks: an
		// arena, re-formed after the shrink and the rebalance.
		{"arenas", strings.Replace(fmt.Sprintf(cavityDoc, 4, 4, 4, 3), "[2, 2, 2]", "[2, 2, 6]", 1), 1, false},
	}
	for _, w := range worlds {
		p := problemFor(t, w.doc)
		p.Workers = w.workers
		forest, err := p.BuildForest()
		if err != nil {
			t.Fatal(err)
		}
		if w.trimmed {
			_, st, _, err := setup.BuildForest(p.Geometry, setup.Options{CellsPerBlock: p.CellsPerBlock, Dx: p.Dx, Ranks: p.Ranks})
			if err != nil {
				t.Fatal(err)
			}
			if st.DiscardedBlocks == 0 {
				t.Fatalf("%s: the geometry trims no block", w.name)
			}
		}
		// build runs the forest with every block on the given owner, drives
		// it and records the built state of every block.
		build := func(t *testing.T, ranks int, opts comm.Options, owner map[[3]int]int, drive func(*comm.Comm, *sim.Simulation) error) map[[3]int]builtState {
			t.Helper()
			for _, b := range forest.Blocks() {
				b.Rank = owner[b.Coord]
			}
			var mu sync.Mutex
			got := make(map[[3]int]builtState)
			var errs []error
			comm.RunWithOptions(ranks, opts, func(c *comm.Comm) {
				var in *blockforest.SetupForest
				if c.Rank() == 0 {
					in = forest
				}
				bf, err := blockforest.Distribute(c, in)
				var s *sim.Simulation
				if err == nil {
					s, err = sim.New(c, bf, p.SimConfig())
				}
				if err == nil {
					err = drive(c, s)
				}
				switch {
				case errors.Is(err, sim.ErrRetired):
				case err != nil:
					mu.Lock()
					errs = append(errs, fmt.Errorf("rank %d: %w", c.Rank(), err))
					mu.Unlock()
				default:
					builtStates(s, &mu, got)
				}
			})
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			return got
		}
		initial := make(map[[3]int]int)
		for _, b := range forest.Blocks() {
			initial[b.Coord] = b.Rank
		}
		sparse := false
		for _, st := range build(t, 3, comm.Options{}, initial, func(*comm.Comm, *sim.Simulation) error { return nil }) {
			sparse = sparse || len(st.neighbors) < 26
		}
		if !sparse {
			t.Fatalf("%s: every block has all 26 neighbors", w.name)
		}
		for _, ev := range []struct {
			name  string
			ranks int
			opts  comm.Options
			drive func(*comm.Comm, *sim.Simulation) error
		}{
			{"shrink", 2, comm.Options{Faults: &comm.FaultPlan{Seed: 5, Crashes: []comm.CrashSpec{{Rank: 1, Step: 3}}}},
				func(_ *comm.Comm, s *sim.Simulation) error {
					m, err := s.RunResilient(6, sim.ResilienceConfig{Mode: sim.RecoverShrink, CheckpointEvery: 2,
						MaxFailures: 2, BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond})
					if err == nil && m.Recovery.Shrinks != 1 {
						err = fmt.Errorf("%d shrinks, want 1", m.Recovery.Shrinks)
					}
					return err
				}},
			{"rebalance", 3, comm.Options{}, func(c *comm.Comm, s *sim.Simulation) error {
				if _, err := s.Run(2); err != nil {
					return err
				}
				rotate := make(map[[3]int]int, len(initial))
				for coord, r := range initial {
					rotate[coord] = (r + 1) % c.Size()
				}
				return s.Rebalance(sim.ByCoord(s, rotate))
			}},
		} {
			t.Run(w.name+"/"+ev.name, func(t *testing.T) {
				defer debug.FreeOSMemory()
				got := build(t, 3, ev.opts, initial, ev.drive)
				owner := make(map[[3]int]int, len(got))
				moved := 0
				for coord, st := range got {
					owner[coord] = st.rank
					if st.rank != initial[coord] {
						moved++
					}
				}
				if len(got) != len(initial) || moved == 0 {
					t.Fatalf("%d of %d blocks after the %s, %d on another rank", len(got), len(initial), ev.name, moved)
				}
				if w.trimmed && !landsBesideTrimmed(got, initial, forest.GridSize) {
					t.Errorf("no block that changed owner lacks a neighbor inside the grid")
				}
				want := build(t, ev.ranks, comm.Options{}, owner, func(*comm.Comm, *sim.Simulation) error { return nil })
				views := 0
				for coord, w := range want {
					g := got[coord]
					if !slices.Equal(g.flags, w.flags) {
						t.Errorf("block %v: flag field differs from construction's", coord)
					}
					if !slices.Equal(g.neighbors, w.neighbors) {
						t.Errorf("block %v: neighbors %v, construction builds %v", coord, g.neighbors, w.neighbors)
					}
					if g.view != w.view {
						t.Errorf("block %v: an arena member %v, in construction %v", coord, g.view, w.view)
					}
					if w.view {
						views++
					}
				}
				if w.name == "arenas" && views != len(want) {
					t.Errorf("%d of %d blocks are arena members, want all", views, len(want))
				}
			})
		}
	}
	refinedLandingMatchesConstruction(t)
}

// landsBesideTrimmed reports whether a block of got that is not on its
// initial owner lacks a neighbor at an offset inside the grid: the gap a
// block the geometry trimmed leaves, not the domain boundary.
func landsBesideTrimmed(got map[[3]int]builtState, initial map[[3]int]int, grid [3]int) bool {
	for coord, st := range got {
		if st.rank == initial[coord] {
			continue
		}
		listed := make(map[[3]int]bool, len(st.neighbors))
		for _, n := range st.neighbors {
			listed[n.Offset] = true
		}
		for oi := range 27 {
			o := [3]int{oi%3 - 1, oi/3%3 - 1, oi/9 - 1}
			inside := o != [3]int{}
			for d := range 3 {
				c := coord[d] + o[d]
				inside = inside && c >= 0 && c < grid[d]
			}
			if inside && !listed[o] {
				return true
			}
		}
	}
	return false
}

// refinedLandingMatchesConstruction holds the refined runtime's landings
// to the same standard: the non-periodic cavity, whose flags read
// neighbor existence, refined twice in its upper root layer, to level 2,
// on 3 ranks. After a
// rewind, after a shrink onto 2 ranks and after a migration, every leaf —
// kept, adopted or moved — holds the flag field and the neighbor list
// that a fresh build of the world's leaf set with its owners gives it:
// the neighborhood from blockforest.Index, the flags from the scenario's
// flag function on that header. A rewind keeps the BlockData of every leaf
// the rank held before it and holds after it.
func refinedLandingMatchesConstruction(t *testing.T) {
	sc, err := scenario.Parse([]byte(fmt.Sprintf(cavityDoc, 8, 8, 8, 3)))
	if err == nil {
		sc.Resolution.Grid = [3]int{4, 2, 2}
		sc.Refinement = scenario.RefinementSpec{MaxLevel: 2, RefineAbove: 1, CoarsenBelow: 0.5}
		err = sc.Validate()
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.AMRConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Refinement.Interval = 0 // the leaf set changes by ApplyMarks alone
	// refine marks the leaves of the given root layer along z.
	refine := func(s *amr.Sim, z int) error {
		marks := map[blockforest.BlockID]blockforest.Mark{}
		for _, l := range s.Leaves() {
			if l.Coord[2] == z {
				marks[l.ID] = blockforest.MarkRefine
			}
		}
		return s.ApplyMarks(marks)
	}
	rc := sim.ResilienceConfig{Mode: sim.RecoverShrink, CheckpointEvery: 2, MaxFailures: 2,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond}
	for _, ev := range []struct {
		name  string
		opts  comm.Options
		drive func(s *amr.Sim, dir string) error
	}{
		{"rewind", comm.Options{}, func(s *amr.Sim, dir string) error {
			if _, err := s.WriteCheckpointSet(dir, s.Steps()); err != nil {
				return err
			}
			if err := refine(s, 0); err != nil {
				return err
			}
			if _, err := s.Plane().Run(1); err != nil {
				return err
			}
			held := map[blockforest.BlockID]*sim.BlockData{}
			for _, b := range s.OwnedBlocks() {
				held[b.ID] = b.BlockData
			}
			if _, err := s.RestoreLatestCheckpointSet(dir); err != nil {
				return err
			}
			kept := 0
			for _, b := range s.OwnedBlocks() {
				if bd, ok := held[b.ID]; ok && bd != b.BlockData {
					return fmt.Errorf("leaf %v: the rewind reassembled a block the rank still holds", b.ID)
				} else if ok {
					kept++
				}
			}
			if kept == 0 {
				return fmt.Errorf("the rank holds none of its %d leaves after the rewind", len(held))
			}
			return nil
		}},
		{"shrink", comm.Options{Faults: &comm.FaultPlan{Seed: 5, Crashes: []comm.CrashSpec{{Rank: 1, Step: 3}}}},
			func(s *amr.Sim, _ string) error {
				m, err := s.Plane().RunResilient(4, rc)
				if err == nil && m.Recovery.Shrinks != 1 {
					err = fmt.Errorf("%d shrinks, want 1", m.Recovery.Shrinks)
				}
				return err
			}},
		{"migrate", comm.Options{}, func(s *amr.Sim, _ string) error { return refine(s, 0) }},
	} {
		t.Run("refined cavity/"+ev.name, func(t *testing.T) {
			defer debug.FreeOSMemory()
			dir := t.TempDir()
			var mu sync.Mutex
			var leaves []amr.Leaf
			owned := map[blockforest.BlockID]int{}
			var errs []error
			comm.RunWithOptions(3, ev.opts, func(c *comm.Comm) {
				s, err := amr.New(c, cfg)
				for range 2 {
					if err == nil {
						err = refine(s, 1)
					}
				}
				if err == nil {
					_, err = s.Plane().Run(2)
				}
				if err == nil {
					err = ev.drive(s, dir)
				}
				mu.Lock()
				defer mu.Unlock()
				switch {
				case errors.Is(err, sim.ErrRetired):
					return
				case err != nil:
					errs = append(errs, fmt.Errorf("rank %d: %w", c.Rank(), err))
					return
				}
				leaves = s.Leaves()
				x := blockforest.NewIndex(bfLeaves(leaves), cfg.Grid, cfg.Periodic)
				for _, b := range s.OwnedBlocks() {
					owned[b.ID] = s.Plane().Comm.Rank()
					l := blockforest.Leaf{ID: b.ID, Coord: b.Coord, Rank: s.Plane().Comm.Rank()}
					want := &blockforest.Block{ID: b.ID, Coord: b.Coord, Cells: cfg.Cells, Neighbors: x.Neighbors(l)}
					flags := field.NewFlagField(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], 1)
					cfg.SetupFlags(want, nil, flags)
					if !slices.Equal(b.Flags.Data(), flags.Data()) {
						errs = append(errs, fmt.Errorf("leaf %v: flag field differs from a fresh build's", b.ID))
					}
					if !slices.Equal(b.Block.Neighbors, want.Neighbors) {
						errs = append(errs, fmt.Errorf("leaf %v: neighbors %v, a fresh build gives %v", b.ID, b.Block.Neighbors, want.Neighbors))
					}
				}
			})
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			levels := map[int]bool{}
			for _, l := range leaves {
				levels[l.Level()] = true
				if r, ok := owned[l.ID]; !ok || r != l.Rank {
					t.Errorf("leaf %v of rank %d is owned by rank %d (held: %v)", l.ID, l.Rank, r, ok)
				}
			}
			if len(owned) != len(leaves) || !levels[2] {
				t.Errorf("%d blocks owned for %d leaves, levels %v", len(owned), len(leaves), levels)
			}
		})
	}
}

// bfLeaves converts a refined world's leaves to blockforest form.
func bfLeaves(ls []amr.Leaf) []blockforest.Leaf {
	out := make([]blockforest.Leaf, len(ls))
	for i, l := range ls {
		out[i] = blockforest.Leaf{ID: l.ID, Coord: l.Coord, Rank: l.Rank}
	}
	return out
}

// linkedHull is the storage rule written out cell by cell: the x-hull of
// the cells of row (y, z) that a velocity of st links to an interior fluid
// cell of flags, clipped to the ghosted block; (0, 0) when there is none.
func linkedHull(st *lattice.Stencil, flags *field.FlagField, y, z int) (lo, hi int) {
	lo, hi = flags.Nx+1, -1
	for a := 0; a < st.Q; a++ {
		fy, fz := y+st.Cy[a], z+st.Cz[a]
		if fy < 0 || fy >= flags.Ny || fz < 0 || fz >= flags.Nz {
			continue
		}
		for x := 0; x < flags.Nx; x++ {
			if flags.Get(x, fy, fz) == field.Fluid {
				lo, hi = min(lo, x-st.Cx[a]), max(hi, x-st.Cx[a]+1)
			}
		}
	}
	if lo >= hi {
		return 0, 0
	}
	return max(lo, -flags.Ghost), min(hi, flags.Nx+flags.Ghost)
}

// TestFieldMemoryFollowsFluid is the memory-proportionality gate. On the
// smoke tree every block stores, per row, exactly the x-hull of the cells a
// D3Q19 velocity links to its interior fluid (an all-fluid block its whole
// box), Src and Dst share those rows, the PDF fields store at most 0.05 of
// the cells of their ghosted blocks (measured: 782 of 23 328 = 0.034; the
// fluid's bounding boxes grown by one held 2 661 = 0.114), and the world
// total is the same on 1, 2 and 4 ranks — what a rank allocates follows the
// fluid it owns, not the world's box or the rank count. All-fluid worlds
// store exactly their ranks' arenas — each rank's blocks as one box with
// one ghost layer — and index each block with the box formula of its
// arena. The gauges publish the same numbers.
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
				perBlock(bd)
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
			f, rows := bd.Src, bd.Src.Rows()
			if bd.Dst.Rows() != rows {
				t.Errorf("block %v: Src and Dst do not share their rows", bd.Block.Coord)
			}
			if bd.Fluid == f.InteriorCells() {
				if !rows.Full() {
					t.Errorf("all-fluid block %v stores %d cells in %v, want its whole box", bd.Block.Coord, rows.Cells(), rows.Window())
				}
				return
			}
			for z := -f.Ghost; z < f.Nz+f.Ghost; z++ {
				for y := -f.Ghost; y < f.Ny+f.Ghost; y++ {
					lo, hi := rows.Span(y, z)
					if wlo, whi := linkedHull(f.Stencil, bd.Flags, y, z); lo != wlo || hi != whi {
						t.Fatalf("block %v row (y=%d,z=%d) stores [%d,%d), the cells linked to its fluid span [%d,%d)",
							bd.Block.Coord, y, z, lo, hi, wlo, whi)
					}
				}
			}
		})
		if 20*allocated > block {
			t.Errorf("tree on %d ranks stores %d of %d cells, want at most 0.05", ranks, allocated, block)
		}
		if world == 0 {
			world = allocated
		}
		if allocated != world || allocated == 0 {
			t.Errorf("tree on %d ranks stores %d cells, on 1 rank %d", ranks, allocated, world)
		}
	}
	// Two ranks: the cavity's 2x2x2 blocks of 8³ are two arenas of
	// 18x18x10 cells, Taylor–Green's 4x4x4 two of 34x34x18.
	for name, world := range map[string]struct {
		doc   string
		arena int64
	}{
		"cavity":       {fmt.Sprintf(cavityDoc, 8, 8, 8, 2), 18 * 18 * 10},
		"taylor-green": {fmt.Sprintf(taylorGreenDoc, 2), 34 * 34 * 18},
	} {
		allocated, block := footprint(world.doc, func(bd *sim.BlockData) {
			f := bd.Src
			sy, sz := f.Rows().Strides()
			if !f.Rows().View() || sy*sz == 0 {
				t.Fatalf("%s block %v stores no arena view (strides %d, %d)", name, bd.Block.Coord, sy, sz)
			}
			box := field.FullWindow(f.Nx, f.Ny, f.Nz, f.Ghost)
			origin := f.CellIndex(box.Lo[0], box.Lo[1], box.Lo[2])
			for z := box.Lo[2]; z < box.Hi[2]; z++ {
				for y := box.Lo[1]; y < box.Hi[1]; y++ {
					for x := box.Lo[0]; x < box.Hi[0]; x++ {
						want := origin + (z-box.Lo[2])*sz + (y-box.Lo[1])*sy + x - box.Lo[0]
						if got := f.CellIndex(x, y, z); got != want {
							t.Fatalf("%s block %v: CellIndex(%d,%d,%d) = %d, arena box formula %d", name, bd.Block.Coord, x, y, z, got, want)
						}
					}
				}
			}
		})
		if allocated != 2*world.arena || block == 0 {
			t.Errorf("%s stores %d of %d cells, want its two arenas' %d", name, allocated, block, 2*world.arena)
		}
	}
}

// TestStepZeroAllocTree extends the allocation-regression gate to row
// storage: the smoke tree on two ranks — fields stored in allocation rows,
// interval kernels pulling with per-row vectors, receiver-masked local
// copies, inflow and outflow conditions — steps with zero heap
// allocations after warm-up.
func TestStepZeroAllocTree(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const runs = 20
	p := problemFor(t, treeDoc(2, 0.05, 2))
	p.Workers = 1
	err := runEachMode(p, sim.ExchangeAggregated, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
		compact, interval := 0, 0
		for _, bd := range s.Blocks {
			if bd.Fluid > 0 && !bd.Src.Rows().Full() {
				compact++
			}
			if bd.Kernel.Name() == string(sim.KernelSparse) {
				interval++
			}
		}
		if es := s.ExchangeStats(); compact == 0 || interval == 0 || es.LocalFloatsElided == 0 {
			t.Errorf("rank %d: %d row-compact blocks, %d interval kernels, %d values elided: not the world under test",
				c.Rank(), compact, interval, es.LocalFloatsElided)
		}
		step := func() {
			if err := s.Step(); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if c.Rank() != 0 {
			// Feed rank 0's receives through its warm-up and measured runs.
			for i := 0; i < runs+1; i++ {
				step()
			}
			return
		}
		if avg := testing.AllocsPerRun(runs, step); avg != 0 {
			t.Errorf("tree Step allocates %.1f objects per step in steady state, want 0", avg)
		}
	})
	if err != nil {
		t.Fatal(err)
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

// BenchmarkRebuildPlan times one exchange plan rebuild alone — transfer
// enumeration, need-masks, lowering and send buffers — on one rank of the
// worlds of BenchmarkNewSim, each built once.
func BenchmarkRebuildPlan(b *testing.B) {
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
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.RebuildPlan(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
