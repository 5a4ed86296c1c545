package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// allFluid is the SetupFlags of the fully periodic test scenarios.
func allFluid(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
	flags.Fill(field.Fluid)
}

// TestAggregatedBitIdenticalToPerPair: the rank-aggregated wire format is
// a pure transport change — for every worker count it must reproduce the
// legacy per-block-pair exchange bit for bit.
func TestAggregatedBitIdenticalToPerPair(t *testing.T) {
	const steps = 30
	ref := taylorGreenBitsMode(t, 1, steps, ExchangePerPair)
	if t.Failed() {
		t.Fatal("per-pair reference failed")
	}
	for _, workers := range []int{1, 2, 4, 7} {
		got := taylorGreenBitsMode(t, workers, steps, ExchangeAggregated)
		compareBits(t, ref, got, "aggregated workers="+string(rune('0'+workers)))
	}
}

// TestAggregatedPlanSingleRank: on one rank every exchange is a direct
// local copy — no channels, no messages — or none at all: the eight
// blocks form one arena, which shares the ghost slots toward a block
// across a face or edge, so only the periodic wraps copy.
func TestAggregatedPlanSingleRank(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 2, 2}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	f.BalanceMorton(1)
	comm.Run(1, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, f)
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, Config{SetupFlags: allFluid})
		if err != nil {
			t.Error(err)
			return
		}
		p := &s.levels[0]
		if len(s.levels) != 1 || len(p.channels) != 0 {
			t.Errorf("single-rank plan has %d levels and %d channels, want 1 and 0", len(s.levels), len(p.channels))
		}
		// 8 blocks x 18 non-corner offsets (6 faces + 12 edges for D3Q19),
		// two blocks per axis: half of them wrap.
		if len(p.locals) != 8*18/2 {
			t.Errorf("plan has %d local copies, want %d", len(p.locals), 8*18/2)
		}
		st := s.ExchangeStats()
		slabs := 8 * (6*5*4*4 + 12*4) // values of the full slabs
		if st.MessagesPerStep != 0 || st.NeighborRanks != 0 || st.LocalCopies != 8*18/2 ||
			st.LocalFloatsElided != 0 || st.LocalFloats+st.LocalFloatsAliased != slabs || st.LocalFloats > slabs/2 {
			t.Errorf("unexpected ExchangeStats %+v", st)
		}
	})
}

// TestAggregatedPlanManifest checks the channel invariants on a two-rank
// split: canonical manifest order, contiguous buffer windows, and
// symmetric send/receive volumes.
func TestAggregatedPlanManifest(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{4, 2, 1}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	f.BalanceMorton(2)
	comm.Run(2, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, Config{SetupFlags: allFluid})
		if err != nil {
			t.Error(err)
			return
		}
		if len(s.levels) != 1 || len(s.levels[0].channels) != 1 {
			t.Fatalf("rank %d: %d levels, want 1 with 1 channel", c.Rank(), len(s.levels))
		}
		ch := &s.levels[0].channels[0]
		if ch.rank == c.Rank() {
			t.Errorf("channel to self (rank %d)", ch.rank)
		}
		check := func(slabs []slabOp, total int, label string) {
			off := 0
			for i := range slabs {
				sl := &slabs[i]
				// Every slot crosses but where an arena position takes it
				// from an earlier slab (claims.take).
				if sl.off != off || sl.n > len(sl.dirs)*sl.reg.cells() {
					t.Errorf("rank %d: %s slab %d window [%d,%d) not contiguous at %d",
						c.Rank(), label, i, sl.off, sl.off+sl.n, off)
				}
				off += sl.n
				if i > 0 && !slabs[i-1].key.less(sl.key) {
					t.Errorf("rank %d: %s manifest not strictly ordered at %d", c.Rank(), label, i)
				}
			}
			if off != total {
				t.Errorf("rank %d: %s windows cover %d floats, channel says %d", c.Rank(), label, off, total)
			}
		}
		check(ch.send, ch.sendFloats, "send")
		check(ch.recv, ch.recvFloats, "recv")
		if len(ch.bufs[0]) != ch.sendFloats || len(ch.bufs[1]) != ch.sendFloats {
			t.Errorf("rank %d: buffer lengths %d/%d, want %d",
				c.Rank(), len(ch.bufs[0]), len(ch.bufs[1]), ch.sendFloats)
		}
		// The decomposition is symmetric, so volumes must match.
		if ch.sendFloats != ch.recvFloats {
			t.Errorf("rank %d: sendFloats %d != recvFloats %d", c.Rank(), ch.sendFloats, ch.recvFloats)
		}
	})
}

// TestAggregatedOneMessagePerNeighborRank is the tentpole acceptance
// test: with many blocks per rank, the steady-state aggregated exchange
// sends exactly one message per neighbor rank per step, while the
// per-pair format sends one per remote boundary slab.
func TestAggregatedOneMessagePerNeighborRank(t *testing.T) {
	const warmup, measured = 2, 5
	run := func(mode ExchangeMode) {
		f := blockforest.NewSetupForest(
			blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
			[3]int{4, 2, 1}, [3]int{4, 4, 4}, [3]bool{true, true, true})
		f.BalanceMorton(2)
		comm.Run(2, func(c *comm.Comm) {
			forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
			if err != nil {
				t.Error(err)
				return
			}
			s, err := newWithExchange(c, forest, Config{SetupFlags: allFluid}, mode)
			if err != nil {
				t.Error(err)
				return
			}
			es := s.ExchangeStats()
			if es.RemoteSlabs <= es.NeighborRanks {
				t.Errorf("rank %d: %d remote slabs over %d neighbor ranks — scenario does not aggregate",
					c.Rank(), es.RemoteSlabs, es.NeighborRanks)
			}
			// Step (not Run) so no collectives pollute the send counters.
			for i := 0; i < warmup; i++ {
				if err := s.Step(); err != nil {
					t.Error(err)
					return
				}
			}
			c.ResetStats()
			for i := 0; i < measured; i++ {
				if err := s.Step(); err != nil {
					t.Error(err)
					return
				}
			}
			st := c.Stats()
			if want := int64(measured * es.MessagesPerStep); st.Sends != want {
				t.Errorf("rank %d mode %v: %d sends over %d steps, want %d",
					c.Rank(), mode, st.Sends, measured, want)
			}
			if mode == ExchangeAggregated {
				if es.MessagesPerStep != es.NeighborRanks {
					t.Errorf("rank %d: %d messages/step, want %d (one per neighbor rank)",
						c.Rank(), es.MessagesPerStep, es.NeighborRanks)
				}
				// Per-destination counters: every neighbor got exactly one
				// message per step, everyone else none.
				for dst, ps := range st.Peers {
					want := int64(0)
					for _, ch := range s.levels[0].channels {
						if ch.rank == dst {
							want = measured
						}
					}
					if ps.Sends != want {
						t.Errorf("rank %d: %d sends to rank %d, want %d", c.Rank(), ps.Sends, dst, want)
					}
				}
			} else if es.MessagesPerStep != es.RemoteSlabs {
				t.Errorf("rank %d: per-pair sends %d messages/step, want %d (one per slab)",
					c.Rank(), es.MessagesPerStep, es.RemoteSlabs)
			}
		})
	}
	run(ExchangeAggregated)
	run(ExchangePerPair)
}

// TestExchangeStatsVolumesMatch: on an all-fluid world, where every block
// reads every ghost slot, aggregation batches messages but changes the
// communicated payload volume only by what the ranks' arenas share: ghost
// slots that are a member's cells do not move, and an arena position two
// slabs name crosses once.
func TestExchangeStatsVolumesMatch(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{4, 2, 1}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	f.BalanceMorton(2)
	var mu sync.Mutex
	stats := make(map[ExchangeMode]ExchangeStats)
	for _, mode := range []ExchangeMode{ExchangeAggregated, ExchangePerPair} {
		comm.Run(2, func(c *comm.Comm) {
			forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
			if err != nil {
				t.Error(err)
				return
			}
			s, err := newWithExchange(c, forest, Config{SetupFlags: allFluid}, mode)
			if err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == 0 {
				mu.Lock()
				stats[mode] = s.ExchangeStats()
				mu.Unlock()
			}
		})
	}
	a, p := stats[ExchangeAggregated], stats[ExchangePerPair]
	if a.SendFloats != a.RecvFloats || a.RecvFloats+a.RemoteFloatsElided != p.RecvFloats || p.SendFloats != p.RecvFloats {
		t.Errorf("payload volumes differ: aggregated %d/%d (%d elided) vs per-pair %d/%d floats",
			a.SendFloats, a.RecvFloats, a.RemoteFloatsElided, p.SendFloats, p.RecvFloats)
	}
	if a.RemoteSlabs != p.RemoteSlabs || a.LocalCopies >= p.LocalCopies || a.LocalFloatsElided != 0 ||
		a.LocalFloats+a.LocalFloatsAliased != p.LocalFloats {
		t.Errorf("slab counts differ: aggregated %+v vs per-pair %+v", a, p)
	}
	if a.MessagesPerStep >= p.MessagesPerStep {
		t.Errorf("aggregation does not reduce messages: %d vs %d", a.MessagesPerStep, p.MessagesPerStep)
	}
}

// flagPattern assigns a cell type to every cell of a world from its global
// coordinate and the coordinate of the block whose flag field is being
// filled (patterns that ignore the block see one consistent geometry).
type flagPattern struct {
	name string
	at   func(block [3]int, x, y, z int) field.CellType
}

// hashType draws Fluid : NoSlip : Outside as 6 : 2 : 2 from a seeded hash
// of the inputs. Outside cells next to fluid ones are deliberate: no hull
// separates them, so the kernels pull from them and the need-mask must
// keep them.
func hashType(seed uint64, v ...int) field.CellType {
	h := fnvMix(fnvOffset, seed)
	for _, c := range v {
		h = fnvMix(h, uint64(int64(c)))
	}
	switch r := h >> 33 % 10; {
	case r < 6:
		return field.Fluid
	case r < 8:
		return field.NoSlip
	}
	return field.Outside
}

// maskCells is the block shape of the need-mask tests: three different
// extents, so an axis mix-up in the lowering cannot cancel out.
var maskCells = [3]int{5, 4, 3}

// maskPatterns are the geometries of the need-mask differential tests.
func maskPatterns() []flagPattern {
	random := func(seed uint64) flagPattern {
		return flagPattern{fmt.Sprintf("random%d", seed), func(_ [3]int, x, y, z int) field.CellType {
			return hashType(seed, x, y, z)
		}}
	}
	constant := func(name string, t field.CellType) flagPattern {
		return flagPattern{name, func([3]int, int, int, int) field.CellType { return t }}
	}
	return []flagPattern{
		random(1), random(2), random(3),
		constant("all-solid", field.Outside),
		constant("all-fluid", field.Fluid),
		{"single-fluid", func(_ [3]int, x, y, z int) field.CellType {
			// The last cell of block (0,0,0): all its upstream cells are walls.
			if x == maskCells[0]-1 && y == maskCells[1]-1 && z == maskCells[2]-1 {
				return field.Fluid
			}
			return field.NoSlip
		}},
		{"checkerboard", func(_ [3]int, x, y, z int) field.CellType {
			if (x+y+z)%2 == 0 {
				return field.Fluid
			}
			return field.NoSlip
		}},
		{"wall-inside-face", func(_ [3]int, x, y, z int) field.CellType {
			// A wall one cell inside the +x face of the x == 0 blocks, with a
			// fluid layer between it and the face.
			if x == maskCells[0]-2 {
				return field.NoSlip
			}
			return field.Fluid
		}},
		// Geometries whose fluid leaves most of a block empty, the case the
		// allocation windows crop: a tube along x through the y = z = 0
		// blocks, crossing a block face, and thinly scattered fluid.
		{"tube", func(_ [3]int, x, y, z int) field.CellType {
			if x >= 1 && x < 2*maskCells[0]-2 && y >= 1 && y <= 2 && z == 1 {
				return field.Fluid
			}
			return field.NoSlip
		}},
		{"scattered", func(_ [3]int, x, y, z int) field.CellType {
			if h := fnvMix(fnvMix(fnvMix(fnvOffset, uint64(x)), uint64(y)), uint64(z)); h>>33%16 == 0 {
				return field.Fluid
			}
			if t := hashType(6, x, y, z); t != field.Fluid {
				return t
			}
			return field.NoSlip
		}},
		// The two sides of a block face disagree about the shared cells: the
		// receiver's own flags decide what it reads.
		{"inconsistent", func(b [3]int, x, y, z int) field.CellType {
			return hashType(7, b[0], b[1], b[2], x, y, z)
		}},
	}
}

// maskModels are the stencil/layout combinations of the need-mask tests.
var maskModels = []struct {
	name    string
	stencil *lattice.Stencil
	layout  LayoutChoice
}{
	{"d3q19-soa", lattice.D3Q19(), LayoutSoA},
	{"d3q19-aos", lattice.D3Q19(), LayoutAoS},
	{"d3q27-aos", lattice.D3Q27(), LayoutAoS},
}

// maskConfig is the solver configuration of one need-mask case on a 2x2x2
// world: pattern flags with no-slip walls around a non-periodic domain, and
// a spatially varying initial state plus a body force so that every PDF of
// every cell is distinct.
func maskConfig(p flagPattern, periodic bool, stencil *lattice.Stencil, layout LayoutChoice) Config {
	n := [3]int{2 * maskCells[0], 2 * maskCells[1], 2 * maskCells[2]}
	return Config{
		Stencil: stencil,
		Layout:  layout,
		Tau:     0.8,
		Force:   [3]float64{1e-6, -2e-6, 3e-6},
		InitialState: func(fx, fy, fz float64) (float64, float64, float64, float64) {
			return 1 + 0.01*math.Sin(fx+2*fy+3*fz), 0.02 * math.Cos(fy), 0.02 * math.Sin(fz), 0.02 * math.Cos(fx)
		},
		SetupFlags: func(b *blockforest.Block, _ *blockforest.BlockForest, flags *field.FlagField) {
			for z := -1; z <= flags.Nz; z++ {
				for y := -1; y <= flags.Ny; y++ {
					for x := -1; x <= flags.Nx; x++ {
						g := [3]int{b.Coord[0]*flags.Nx + x, b.Coord[1]*flags.Ny + y, b.Coord[2]*flags.Nz + z}
						t := field.NoSlip
						if periodic {
							for d := range g {
								g[d] = (g[d] + n[d]) % n[d]
							}
							t = p.at(b.Coord, g[0], g[1], g[2])
						} else if g[0] >= 0 && g[0] < n[0] && g[1] >= 0 && g[1] < n[1] && g[2] >= 0 && g[2] < n[2] {
							t = p.at(b.Coord, g[0], g[1], g[2])
						}
						flags.Set(x, y, z, t)
					}
				}
			}
		},
	}
}

// interiorBits snapshots the exact bit pattern of every interior PDF of
// every block in canonical (z, y, x, direction) order. Ghost slots are left
// out: the ones no fluid cell reads are unspecified.
func interiorBits(s *Simulation, mu *sync.Mutex, into map[[3]int][]uint64) {
	mu.Lock()
	defer mu.Unlock()
	for _, bd := range s.Blocks {
		into[bd.Block.Coord] = fieldBits(bd.Src)
	}
}

// fieldBits is the bit pattern of f's interior PDFs in canonical order.
func fieldBits(f *field.PDFField) []uint64 {
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
	return bits
}

// runMaskCase steps one need-mask case over the given exchange and returns
// its field hash and interior bits. With poison set, every ghost slot the
// plan does not write is overwritten with NaN before every step.
func runMaskCase(t *testing.T, cfg Config, mode ExchangeMode, periodic bool, ranks, steps int, poison bool) (uint64, map[[3]int][]uint64) {
	t.Helper()
	return runMaskCaseOn(t, comm.Options{}, cfg, mode, periodic, ranks, steps, poison)
}

// runMaskCaseOn is runMaskCase on a world with the given communicator
// options.
func runMaskCaseOn(t *testing.T, opts comm.Options, cfg Config, mode ExchangeMode, periodic bool, ranks, steps int, poison bool) (uint64, map[[3]int][]uint64) {
	t.Helper()
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 2, 2}, maskCells, [3]bool{periodic, periodic, periodic})
	f.BalanceMorton(ranks)
	var mu sync.Mutex
	var hash uint64
	bits := make(map[[3]int][]uint64)
	comm.RunWithOptions(ranks, opts, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
		if err != nil {
			t.Error(err)
			return
		}
		s, err := newWithExchange(c, forest, cfg, mode)
		if err != nil {
			t.Error(err)
			return
		}
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
		interiorBits(s, &mu, bits)
	})
	if t.Failed() {
		t.FailNow()
	}
	return hash, bits
}

// TestCompiledLocalCopiesMatchPerPair is the differential test of the
// need-mask: on every geometry × world × stencil/layout × decomposition ×
// worker count the aggregated exchange, whose same-rank copies move only
// the ghost slots the receiver reads, ends on the field hash and on every
// interior PDF of the per-pair exchange, which copies full slabs — and
// still does when every slot it leaves unwritten holds NaN.
func TestCompiledLocalCopiesMatchPerPair(t *testing.T) {
	const steps = 30
	for _, p := range maskPatterns() {
		for _, periodic := range []bool{false, true} {
			for _, m := range maskModels {
				world := "walled"
				if periodic {
					world = "periodic"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", p.name, world, m.name), func(t *testing.T) {
					cfg := maskConfig(p, periodic, m.stencil, m.layout)
					wantHash, wantBits := runMaskCase(t, cfg, ExchangePerPair, periodic, 1, steps, false)
					for _, w := range wantBits {
						for _, b := range w {
							if v := math.Float64frombits(b); v != v {
								t.Fatal("per-pair reference holds NaN")
							}
						}
					}
					for _, ranks := range []int{1, 2} {
						for _, workers := range []int{1, 2, 4} {
							for _, poison := range []bool{false, true} {
								cfg.Workers = workers
								label := fmt.Sprintf("ranks=%d workers=%d poison=%v", ranks, workers, poison)
								hash, bits := runMaskCase(t, cfg, ExchangeAggregated, periodic, ranks, steps, poison)
								if hash != wantHash {
									t.Errorf("%s: field hash %016x, per-pair %016x", label, hash, wantHash)
								}
								compareBits(t, wantBits, bits, label)
							}
						}
					}
				})
			}
		}
	}
}

// windowConfig is maskConfig started from a uniform state, so that blocks
// store allocation rows around their fluid. With full set the same state
// arrives through an InitialState func, which makes every block allocate
// its whole ghosted box — the oracle the row-compact runs must match.
func windowConfig(p flagPattern, periodic bool, stencil *lattice.Stencil, layout LayoutChoice, full bool) Config {
	cfg := maskConfig(p, periodic, stencil, layout)
	rho, v := 1.02, [3]float64{0.01, -0.02, 0.015}
	cfg.InitialRho, cfg.InitialVelocity, cfg.InitialState = rho, v, nil
	if full {
		cfg.InitialState = func(float64, float64, float64) (float64, float64, float64, float64) { return rho, v[0], v[1], v[2] }
	}
	return cfg
}

// fieldCells builds the single-rank world of a need-mask case and returns
// its PDF field footprint, and whether each of its blocks stores its whole
// block.
func fieldCells(t *testing.T, cfg Config, periodic bool) (allocated, block int64, full bool) {
	t.Helper()
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 2, 2}, maskCells, [3]bool{periodic, periodic, periodic})
	f.BalanceMorton(1)
	comm.Run(1, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, f)
		if err != nil {
			t.Error(err)
			return
		}
		s, err := New(c, forest, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		allocated, block = s.FieldCells()
		full = true
		for _, bd := range s.Blocks {
			full = full && bd.Src.Rows().Full()
		}
	})
	return allocated, block, full
}

// TestAllocationWindowsInvisible is the differential test of the
// allocation rows: on every geometry of the need-mask matrix — blocks
// without any fluid and a block with one fluid cell in a corner among them
// — × world × stencil/layout × decomposition × worker count × exchange
// mode, a run whose fields store only the cells linked to their fluid ends
// on the field hash and on every interior PDF of the run that stores whole
// blocks.
func TestAllocationWindowsInvisible(t *testing.T) {
	const steps = 30
	for _, p := range maskPatterns() {
		for _, periodic := range []bool{false, true} {
			for _, m := range maskModels {
				world := "walled"
				if periodic {
					world = "periodic"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", p.name, world, m.name), func(t *testing.T) {
					ref := windowConfig(p, periodic, m.stencil, m.layout, true)
					wantHash, wantBits := runMaskCase(t, ref, ExchangePerPair, periodic, 1, steps, false)
					if allocated, block, full := fieldCells(t, ref, periodic); !full {
						t.Fatalf("oracle stores %d of %d cells, want whole blocks", allocated, block)
					}
					cfg := windowConfig(p, periodic, m.stencil, m.layout, false)
					allocated, block, full := fieldCells(t, cfg, periodic)
					switch p.name {
					case "all-solid":
						if allocated != 0 {
							t.Errorf("blocks without fluid store %d cells", allocated)
						}
					case "single-fluid":
						if want := int64(m.stencil.Q); !periodic && allocated != want {
							t.Errorf("one fluid cell in a corner stores %d cells, want the %d its velocities link", allocated, want)
						}
					case "all-fluid":
						// One arena of 2x2x2 blocks: the box and one ghost layer.
						c := maskCells
						if arena := int64((2*c[0] + 2) * (2*c[1] + 2) * (2*c[2] + 2)); !full || allocated != arena {
							t.Errorf("all-fluid blocks store %d of %d cells, want their arena's %d", allocated, block, arena)
						}
					case "tube", "scattered":
						if !periodic && 4*allocated > 3*block {
							t.Errorf("%s stores %d of %d cells, want windows well inside the blocks", p.name, allocated, block)
						}
					}
					for _, ranks := range []int{1, 2} {
						for _, workers := range []int{1, 2, 4} {
							for _, mode := range []ExchangeMode{ExchangeAggregated, ExchangePerPair} {
								cfg.Workers = workers
								label := fmt.Sprintf("ranks=%d workers=%d %v", ranks, workers, mode)
								hash, bits := runMaskCase(t, cfg, mode, periodic, ranks, steps, false)
								if hash != wantHash {
									t.Errorf("%s: field hash %016x, whole-block run %016x", label, hash, wantHash)
								}
								compareBits(t, wantBits, bits, label)
							}
						}
					}
				})
			}
		}
	}
}

// TestNeedMaskIsReadSet checks the mask from the other side: on a periodic
// world every ghost cell has a source, on one rank a same-rank one, on two
// ranks a same-rank or a remote one. The compiled copies and the received
// windows together move exactly one value per ghost slot that the
// stream-pull of an interior fluid cell reads from a non-boundary cell —
// no slot more, on either side of a rank border.
func TestNeedMaskIsReadSet(t *testing.T) {
	for _, m := range maskModels {
		for _, ranks := range []int{1, 2} {
			f := blockforest.NewSetupForest(
				blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
				[3]int{2, 2, 2}, maskCells, [3]bool{true, true, true})
			f.BalanceMorton(ranks)
			comm.Run(ranks, func(c *comm.Comm) {
				forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
				if err != nil {
					t.Error(err)
					return
				}
				s, err := New(c, forest, maskConfig(maskPatterns()[0], true, m.stencil, m.layout))
				if err != nil {
					t.Error(err)
					return
				}
				st, want := s.Stencil, 0
				for _, bd := range s.Blocks {
					fl := bd.Flags
					for z := 0; z < fl.Nz; z++ {
						for y := 0; y < fl.Ny; y++ {
							for x := 0; x < fl.Nx; x++ {
								if fl.Get(x, y, z) != field.Fluid {
									continue
								}
								for a := 1; a < st.Q; a++ {
									gx, gy, gz := x-st.Cx[a], y-st.Cy[a], z-st.Cz[a]
									ghost := gx < 0 || gx >= fl.Nx || gy < 0 || gy >= fl.Ny || gz < 0 || gz >= fl.Nz
									if ghost && !fl.Get(gx, gy, gz).IsBoundary() {
										want++
									}
								}
							}
						}
					}
				}
				es := s.ExchangeStats()
				label := fmt.Sprintf("%s ranks=%d rank %d", m.name, ranks, c.Rank())
				if es.LocalFloats+es.RecvFloats != want || want == 0 {
					t.Errorf("%s: plan moves %d local + %d received values, the read set has %d", label, es.LocalFloats, es.RecvFloats, want)
				}
				if es.LocalFloatsElided == 0 {
					t.Errorf("%s: nothing elided locally on a random geometry: %+v", label, es)
				}
				if remote := ranks > 1; remote != (es.RemoteFloatsElided > 0) || remote != (es.RecvFloats > 0) {
					t.Errorf("%s: %d received, %d elided remote values", label, es.RecvFloats, es.RemoteFloatsElided)
				}
			})
		}
	}
}

// sendBuffers returns the backing array of every channel send buffer of
// the plans of s.
func sendBuffers(s *Simulation) []unsafe.Pointer {
	var arrays []unsafe.Pointer
	for l := range s.levels {
		for _, ch := range s.levels[l].channels {
			for _, b := range ch.bufs {
				if cap(b) > 0 {
					arrays = append(arrays, unsafe.Pointer(unsafe.SliceData(b)))
				}
			}
		}
	}
	return arrays
}

// TestRebuildTakesFreshSendBuffers pins the ownership rule of a plan
// rebuild: no send buffer of a retired plan — which a peer's zero-copy
// unpack may have read last, a failed peer's too — backs a buffer of the
// new plans, so none is ever repacked. Each row records the buffers of
// every rank before the rebuild (keeping them reachable, so a fresh
// allocation cannot reuse their memory) and looks for them among the new
// plans' buffers: a rebalance swap, the SetBlocks an amr re-grade
// (migrate) installs its leaves through, and a shrink recovery's Install.
func TestRebuildTakesFreshSendBuffers(t *testing.T) {
	periodic := func() *blockforest.SetupForest {
		f := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
			[3]int{2, 1, 1}, [3]int{8, 8, 8}, [3]bool{true, true, true})
		f.BalanceMorton(2)
		return f
	}
	crash := comm.Options{Faults: &comm.FaultPlan{Seed: 11, Crashes: []comm.CrashSpec{{Rank: 1, Step: 5}}}}
	rows := []struct {
		name    string
		ranks   int
		forest  *blockforest.SetupForest
		cfg     Config
		opts    comm.Options
		rebuild func(*Simulation) error
	}{
		{"rebalance", 2, periodic(), Config{SetupFlags: allFluid}, comm.Options{}, func(s *Simulation) error {
			if _, err := s.Run(2); err != nil {
				return err
			}
			return s.Rebalance(ByCoord(s, map[[3]int]int{{0, 0, 0}: 1, {1, 0, 0}: 0}))
		}},
		{"regrade", 2, periodic(), Config{SetupFlags: allFluid}, comm.Options{}, func(s *Simulation) error {
			if _, err := s.Run(2); err != nil {
				return err
			}
			return s.SetBlocks(s.Blocks, nil)
		}},
		{"shrink", 3, shrinkForest(3), cavityConfig(), crash, func(s *Simulation) error {
			m, err := s.RunResilient(8, ResilienceConfig{Mode: RecoverShrink, CheckpointEvery: 2, MaxFailures: 4,
				BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond})
			if err == nil && m.Recovery.Shrinks != 1 {
				err = fmt.Errorf("%d shrinks, want 1", m.Recovery.Shrinks)
			}
			return err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var mu sync.Mutex
			var retired, fresh []unsafe.Pointer
			comm.RunWithOptions(row.ranks, row.opts, func(c *comm.Comm) {
				forest, err := blockforest.Distribute(c, forestFor(c.Rank(), row.forest))
				if err != nil {
					t.Error(err)
					return
				}
				s, err := New(c, forest, row.cfg)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				retired = append(retired, sendBuffers(s)...)
				mu.Unlock()
				if err := row.rebuild(s); errors.Is(err, ErrRetired) {
					return // the shrink row's victim
				} else if err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
					return
				}
				if _, err := s.Run(2); err != nil {
					t.Errorf("rank %d: stepping the new plan: %v", c.Rank(), err)
				}
				mu.Lock()
				fresh = append(fresh, sendBuffers(s)...)
				mu.Unlock()
			})
			if len(retired) == 0 || len(fresh) == 0 {
				t.Fatalf("%d retired and %d new send buffers; the row exchanges nothing", len(retired), len(fresh))
			}
			old := make(map[unsafe.Pointer]bool, len(retired))
			for _, a := range retired {
				old[a] = true
			}
			for _, a := range fresh {
				if old[a] {
					t.Errorf("a new plan's send buffer is a retired one (%p)", a)
				}
			}
		})
	}
}

// zeroResampler writes zeros for every transfer between levels.
type zeroResampler struct{}

func (zeroResampler) Resample(_ *Transfer, buf []float64, _, _ int) { clear(buf) }

// twoLevelBlocks is a refined 2×1×1 forest of 4³ all-fluid blocks on one
// rank: the root of tree 0 at level 0 beside the eight level-1 children of
// tree 1, each with its whole neighborhood (same-level, coarser and finer
// neighbors) as blockforest.Index lists it.
func twoLevelBlocks(s *Simulation) ([]*BlockData, error) {
	leaves := []blockforest.Leaf{{}}
	for oct := range 8 {
		leaves = append(leaves, blockforest.Leaf{ID: blockforest.BlockID{Tree: 1}.Child(oct), Coord: [3]int{1, 0, 0}})
	}
	x := blockforest.NewIndex(leaves, [3]int{2, 1, 1}, [3]bool{})
	var blocks []*BlockData
	for _, l := range leaves {
		b := &blockforest.Block{ID: l.ID, Coord: l.Coord, Cells: [3]int{4, 4, 4}, Neighbors: x.Neighbors(l)}
		flags := field.NewFlagField(4, 4, 4, 1)
		flags.Fill(field.Fluid)
		bd, err := s.AssembleBlock(b, flags, nil, nil)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, bd)
	}
	return blocks, nil
}

// TestOwnRankChannelHoldsOneBuffer: the transfers between levels of a
// refined world that stay on the rank travel on a channel to the own rank,
// whose aggregate is handed from pack to unpack and never alternates, so
// the plan gives it one send buffer; remote channels keep two.
func TestOwnRankChannelHoldsOneBuffer(t *testing.T) {
	comm.Run(1, func(c *comm.Comm) {
		s, err := New(c, &blockforest.BlockForest{NumRanks: 1, GridSize: [3]int{2, 1, 1}, CellsPerBlock: [3]int{4, 4, 4}}, Config{})
		if err != nil {
			t.Error(err)
			return
		}
		blocks, err := twoLevelBlocks(s)
		if err == nil {
			err = s.SetBlocks(blocks, zeroResampler{})
		}
		if err != nil {
			t.Error(err)
			return
		}
		own := 0
		for l := range s.levels {
			for _, ch := range s.levels[l].channels {
				if ch.rank != c.Rank() {
					continue
				}
				own++
				if len(ch.bufs[0]) != ch.sendFloats || ch.sendFloats == 0 || ch.bufs[1] != nil {
					t.Errorf("level %d: own-rank channel of %d floats holds buffers of %d and %d floats",
						l, ch.sendFloats, len(ch.bufs[0]), len(ch.bufs[1]))
				}
			}
		}
		if own == 0 {
			t.Error("the refined world has no own-rank channel")
		}
		for range 2 { // both parities of every other channel
			if err := s.Step(); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// TestClaimsPerArena: a rank holding two arenas of one shape — the
// all-fluid blocks of a periodic row of five beside a block with a solid
// cell in the middle — claims the ghost positions of each in its own
// table: the two arenas' ghost slots share storage positions, filled from
// different cells. The row ends on the field hash of five ranks, one block
// each and no arena.
func TestClaimsPerArena(t *testing.T) {
	flags := func(b *blockforest.Block, _ *blockforest.BlockForest, f *field.FlagField) {
		f.Fill(field.Fluid)
		if b.Coord[0] == 2 {
			f.Set(1, 1, 1, field.NoSlip)
		}
	}
	var hashes [2]uint64
	for i, ranks := range []int{1, 5} {
		comm.Run(ranks, func(c *comm.Comm) {
			f := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{}, [3]float64{5, 1, 1}), [3]int{5, 1, 1}, [3]int{4, 4, 4}, [3]bool{true, true, true})
			f.BalanceMorton(ranks)
			forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
			var s *Simulation
			if err == nil {
				s, err = New(c, forest, Config{Tau: 0.7, SetupFlags: flags, InitialVelocity: [3]float64{0.02, 0.01, 0}})
			}
			if err == nil {
				_, err = s.Run(10)
			}
			var h uint64
			if err == nil {
				h, err = s.FieldHash()
			}
			if err != nil {
				t.Error(err)
				return
			}
			if ranks == 1 && (len(s.arenas) != 2 || s.arenas[0].ext != s.arenas[1].ext) {
				t.Errorf("one rank forms %d arenas, want two of one shape", len(s.arenas))
			}
			if c.Rank() == 0 {
				hashes[i] = h
			}
		})
	}
	if hashes[0] != hashes[1] || hashes[0] == 0 {
		t.Errorf("two arenas end on %016x, five ranks on %016x", hashes[0], hashes[1])
	}
}

// TestWrongSizedMaskRefused: a peer's need-mask that does not fit the
// manifest it is meant for fails the plan build with an error naming the
// peer, whatever slabs the manifest holds.
func TestWrongSizedMaskRefused(t *testing.T) {
	comm.Run(2, func(c *comm.Comm) {
		f := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{}, [3]float64{2, 1, 1}), [3]int{2, 1, 1}, [3]int{4, 4, 4}, [3]bool{true, true, true})
		f.BalanceMorton(2)
		forest, err := blockforest.Distribute(c, forestFor(c.Rank(), f))
		var s *Simulation
		if err == nil {
			s, err = New(c, forest, Config{Tau: 0.7})
		}
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 1 {
			if err := c.SendErr(0, tagNeedMask, []byte{0xff}); err != nil {
				t.Error(err)
			}
			return
		}
		if _, err := buildPlans(s); err == nil || !strings.Contains(err.Error(), "need-mask from rank 1 does not fit") {
			t.Errorf("a one-byte mask from rank 1: plan build error %v", err)
		}
	})
}
