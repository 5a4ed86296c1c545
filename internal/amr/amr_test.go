package amr

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

// baseConfig is the shared refined-world test scenario: a periodic
// 4×2×2 root grid of 8³-cell blocks with a localized shear layer that
// drives the gradient criterion in the domain's left half.
func baseConfig(workers int, layout sim.LayoutChoice) Config {
	return Config{
		Config: sim.Config{
			Layout:       layout,
			Tau:          0.8,
			Workers:      workers,
			InitialState: jet,
		},
		Grid:     [3]int{4, 2, 2},
		Cells:    [3]int{8, 8, 8},
		Periodic: [3]bool{true, true, true},
		Refinement: Refinement{
			MaxLevel:     2,
			Criterion:    CriterionGradient,
			RefineAbove:  0.008,
			CoarsenBelow: 0.001,
			Interval:     4,
		},
	}
}

// jet is a narrow jet centered at x=8 (inside the left half of the
// 32-cell-wide domain): |∂uy/∂x| peaks at 0.015 near the jet and falls
// below 1e-4 past x=16, so with the hysteresis band of baseConfig the
// controller refines a strict subset with clear threshold margins on both
// sides.
func jet(x, y, z float64) (float64, float64, float64, float64) {
	return 1.0, 0, 0.05 * math.Exp(-(x-8)*(x-8)/8), 0
}

// run advances s by steps coarse steps on its data plane.
func run(s *Sim, steps int) error {
	_, err := s.plane.Run(steps)
	return err
}

// TestConfigValidate: Config.Validate refuses what a refined world cannot
// run, the settings of the embedded sim.Config included, naming each.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"body force", func(c *Config) { c.Force = [3]float64{1e-6, 0, 0} }, "body force"},
		{"d3q27 stencil", func(c *Config) { c.Stencil = lattice.D3Q27() }, "d3q19"},
		{"d2q9 stencil", func(c *Config) { c.Stencil, c.Layout = lattice.D2Q9(), sim.LayoutAoS }, "d3q19"},
		{"sparse kernel", func(c *Config) { c.Kernel = sim.KernelSparse }, "sparse"},
		{"tau", func(c *Config) { c.Tau = 0.5 }, "tau"},
		{"odd cells", func(c *Config) { c.Cells = [3]int{8, 7, 8} }, "even"},
		{"max level", func(c *Config) { c.Refinement.MaxLevel = 9 }, "max level"},
	} {
		cfg := baseConfig(1, sim.LayoutAuto)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	cfg := baseConfig(1, sim.LayoutAuto)
	if err := cfg.Validate(); err != nil || cfg.Stencil != lattice.D3Q19() || cfg.Tau != 0.8 {
		t.Errorf("base config: Validate = %v, stencil %v, tau %v", err, cfg.Stencil, cfg.Tau)
	}
}

// runRefined executes the scenario and returns the final field hash,
// the total coarse steps and the leaf count per level.
func runRefined(t *testing.T, ranks, steps int, cfg Config, opts comm.Options) (uint64, []int) {
	t.Helper()
	var mu sync.Mutex
	var hash uint64
	var levels []int
	comm.RunWithOptions(ranks, opts, func(c *comm.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := run(s, steps); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		h, err := s.FieldHash()
		if err != nil {
			t.Errorf("rank %d: hash: %v", c.Rank(), err)
			return
		}
		mu.Lock()
		hash = h
		levels = s.LevelCounts()
		mu.Unlock()
	})
	if t.Failed() {
		t.FailNow()
	}
	return hash, levels
}

// TestRefinedRunProducesMixedLevels is the controller smoke test: the
// shear scenario must actually refine (a strict subset of the domain)
// and keep the forest 2:1 graded and volume-conserving.
func TestRefinedRunProducesMixedLevels(t *testing.T) {
	_, levels := runRefined(t, 2, 8, baseConfig(1, sim.LayoutAoS), comm.Options{})
	if len(levels) < 2 {
		t.Fatalf("controller never refined: level counts %v", levels)
	}
	fine := 0
	for l := 1; l < len(levels); l++ {
		fine += levels[l]
	}
	if fine == 0 {
		t.Fatalf("no refined leaves: %v", levels)
	}
	if levels[0] == 0 {
		t.Fatalf("everything refined — criterion is not localized: %v", levels)
	}
	// Volume conservation: sum of 8^-level over leaves equals the root
	// tree count.
	vol := 0.0
	for l, n := range levels {
		vol += float64(n) / math.Pow(8, float64(l))
	}
	if math.Abs(vol-16) > 1e-9 {
		t.Fatalf("volume not conserved: %g root blocks from %v", vol, levels)
	}
}

// TestConstantStateInvariant checks the whole level machinery —
// exchange at level interfaces, interpolation, restriction, sub-step
// scheduling — on the one flow whose exact solution is known: a uniform
// equilibrium state must stay uniform on a mixed-level world to machine
// precision (trilinear weights sum to 1 and the non-equilibrium part is
// zero, so the only error is float64 round-off in the re-derived
// equilibrium).
func TestConstantStateInvariant(t *testing.T) {
	cfg := baseConfig(2, sim.LayoutAoS)
	cfg.InitialState = nil
	cfg.InitialRho = 1
	cfg.Refinement.Interval = 0 // static forest; pre-refine explicitly
	comm.Run(2, func(c *comm.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := refineLeftHalf(s); err != nil {
			t.Error(err)
			return
		}
		if s.MaxLevel() != 2 {
			t.Errorf("expected max level 2, got %d", s.MaxLevel())
			return
		}
		if err := run(s, 6); err != nil {
			t.Error(err)
			return
		}
		// Moments stay at rest to round-off on every cell of every leaf.
		C := s.cfg.Cells
		f := make([]float64, s.cfg.Stencil.Q)
		for _, b := range s.OwnedBlocks() {
			for z := 0; z < C[2]; z++ {
				for y := 0; y < C[1]; y++ {
					for x := 0; x < C[0]; x++ {
						for a := range f {
							f[a] = b.Src.Get(x, y, z, lattice.Direction(a))
						}
						rho, ux, uy, uz := s.cfg.Stencil.Moments(f)
						if math.Abs(rho-1) > 1e-12 ||
							math.Abs(ux) > 1e-12 || math.Abs(uy) > 1e-12 || math.Abs(uz) > 1e-12 {
							t.Errorf("leaf %v cell (%d,%d,%d) drifted: rho=%g u=(%g,%g,%g)",
								b.ID, x, y, z, rho, ux, uy, uz)
							return
						}
					}
				}
			}
		}
	})
}

// TestWorkerInvariance: the refined run is bit-identical for any
// intra-rank worker count.
func TestWorkerInvariance(t *testing.T) {
	want, wantLevels := runRefined(t, 2, 8, baseConfig(1, sim.LayoutAoS), comm.Options{})
	for _, w := range []int{2, 4, 7} {
		got, gotLevels := runRefined(t, 2, 8, baseConfig(w, sim.LayoutAoS), comm.Options{})
		if got != want {
			t.Errorf("workers=%d: hash %016x != serial %016x (levels %v vs %v)", w, got, want, gotLevels, wantLevels)
		}
	}
}

// TestArenaJunction: one coarse leaf feeds the face ghost of one member of
// a refined arena and the edge ghost of another at the same arena
// position — root (1,0,0) beside the children of root (0,0,0): child
// (1,1,0)'s +x face and child (1,0,0)'s +x+y edge. The second transfer's
// unpack leaves that position to the first, so unpacks on two workers
// write disjoint slots (go test -race), and the field ends as with one.
func TestArenaJunction(t *testing.T) {
	var hashes []uint64
	for _, workers := range []int{1, 2} {
		for _, ranks := range []int{1, 2} {
			comm.Run(ranks, func(c *comm.Comm) {
				cfg := baseConfig(workers, sim.LayoutSoA)
				cfg.Refinement.Interval = 0
				s, err := New(c, cfg)
				if err == nil {
					err = s.ApplyMarks(map[blockforest.BlockID]blockforest.Mark{{}: blockforest.MarkRefine})
				}
				if err == nil {
					err = run(s, 4)
				}
				h, herr := s.FieldHash()
				if err = errors.Join(err, herr); err != nil {
					t.Error(err)
					return
				}
				if c.Rank() == 0 {
					hashes = append(hashes, h)
				}
				for _, l := range s.Leaves() {
					if l.ID.Level == 1 && l.Rank != s.Leaves()[0].Rank {
						t.Errorf("ranks=%d: the children of root 0 are on several ranks", ranks)
					}
				}
			})
		}
	}
	if len(hashes) != 4 || slices.Contains(hashes, 0) || slices.IndexFunc(hashes, func(h uint64) bool { return h != hashes[0] }) >= 0 {
		t.Errorf("field hashes %x, want one", hashes)
	}
}

// TestRankInvariance: the refined run is bit-identical for any rank
// count — the forest order, grading and interpolation are all
// placement-independent.
func TestRankInvariance(t *testing.T) {
	want, _ := runRefined(t, 1, 8, baseConfig(1, sim.LayoutAoS), comm.Options{})
	for _, ranks := range []int{2, 3, 4} {
		got, _ := runRefined(t, ranks, 8, baseConfig(2, sim.LayoutAoS), comm.Options{})
		if got != want {
			t.Errorf("ranks=%d: hash %016x != single-rank %016x", ranks, got, want)
		}
	}
}

// TestLayoutInvariance: AoS and SoA runs (which select different kernel
// implementations) produce the same bits — the split SoA kernel is an
// exact reimplementation, and the hash reads cells layout-agnostically.
func TestLayoutInvariance(t *testing.T) {
	want, _ := runRefined(t, 2, 8, baseConfig(2, sim.LayoutAoS), comm.Options{})
	got, _ := runRefined(t, 2, 8, baseConfig(2, sim.LayoutSoA), comm.Options{})
	if got != want {
		t.Errorf("SoA hash %016x != AoS %016x", got, want)
	}
}

// TestTransportInvariance: the refined run over unix-domain sockets is
// bit-identical to the in-process run — migration and level-tagged
// exchange survive real serialization.
func TestTransportInvariance(t *testing.T) {
	want, _ := runRefined(t, 2, 8, baseConfig(2, sim.LayoutAoS), comm.Options{})
	got, _ := runRefined(t, 2, 8, baseConfig(2, sim.LayoutAoS), comm.Options{Net: &comm.NetOptions{Network: "unix"}})
	if got != want {
		t.Errorf("unix-socket hash %016x != in-process %016x", got, want)
	}
}

// TestRefinedLevelsOverlap: a refined world steps every level the way a
// uniform world steps: post the level's exchange, sweep its interior
// blocks while the remote slabs travel, wait, sweep its frontier. On a
// static three-level forest over two ranks, in process and over unix
// sockets, refined blocks without a remote neighbour exist and sweep
// inside the exchange window (Overlap().Interior), every level present
// accounts sweep and exchange time, and the field ends bit-identical to
// the single-rank run. The 8×2×2 root grid leaves blocks away from the
// rank border; on 4×2×2 every level-0 block touches the other rank.
func TestRefinedLevelsOverlap(t *testing.T) {
	const steps = 4
	cfg := baseConfig(1, sim.LayoutSoA)
	cfg.Grid, cfg.Cells = [3]int{8, 2, 2}, [3]int{4, 4, 4}
	cfg.Refinement.Interval = 0
	run := func(ranks int, opts comm.Options) (hash uint64, refinedInterior int) {
		var mu sync.Mutex
		comm.RunWithOptions(ranks, opts, func(c *comm.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := refineFirstColumn(s); err != nil {
				t.Error(err)
				return
			}
			if err := run(s, steps); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			h, err := s.FieldHash()
			if err != nil {
				t.Errorf("rank %d: hash: %v", c.Rank(), err)
				return
			}
			if s.MaxLevel() != 2 {
				t.Errorf("forest has max level %d, want 2", s.MaxLevel())
			}
			alone := 0
			for _, b := range s.OwnedBlocks() {
				if b.Level() == 0 {
					continue
				}
				local := true
				for _, n := range b.Block.Neighbors {
					local = local && n.Rank == c.Rank()
				}
				if local {
					alone++
				}
			}
			if o := s.plane.Overlap(); o.Interior <= 0 {
				t.Errorf("ranks=%d rank %d: no interior sweep overlapped an exchange (%v)", ranks, c.Rank(), o)
			}
			st := s.GetStats()
			for l := 0; l <= s.MaxLevel(); l++ {
				if st.SweepNs[l] <= 0 || st.ExchangeNs[l] <= 0 {
					t.Errorf("ranks=%d rank %d: level %d accounts sweep %d ns, exchange %d ns", ranks, c.Rank(), l, st.SweepNs[l], st.ExchangeNs[l])
				}
			}
			mu.Lock()
			hash, refinedInterior = h, refinedInterior+alone
			mu.Unlock()
		})
		if t.Failed() {
			t.FailNow()
		}
		return hash, refinedInterior
	}
	want, _ := run(1, comm.Options{})
	for _, net := range []*comm.NetOptions{nil, {Network: "unix"}} {
		got, alone := run(2, comm.Options{Net: net})
		if got != want {
			t.Errorf("net=%v: two-rank hash %016x != single-rank %016x", net, got, want)
		}
		if alone == 0 {
			t.Errorf("net=%v: no refined block lacks a remote neighbour", net)
		}
	}
}

// TestRegradeStats: the controller reports splits/merges/migrations
// consistently with the observed forest, and cuts it by level.
func TestRegradeStats(t *testing.T) {
	comm.Run(2, func(c *comm.Comm) {
		s, err := New(c, baseConfig(1, sim.LayoutAoS))
		if err != nil {
			t.Error(err)
			return
		}
		if err := run(s, 8); err != nil {
			t.Error(err)
			return
		}
		st := s.GetStats()
		if st.Regrades == 0 {
			t.Error("no regrade passes recorded")
		}
		if st.Splits == 0 {
			t.Error("no splits recorded despite refinement")
		}
		// NumLeaves = roots + 7 per net split octet.
		roots := 16
		net := (st.Splits - st.Merges) / 8 * 7
		if got := s.NumLeaves(); got != roots+net {
			t.Errorf("leaf accounting: %d leaves, expected %d (splits=%d merges=%d)",
				got, roots+net, st.Splits, st.Merges)
		}
		// On this all-fluid world (as on the amr_shear benchmark's) the
		// static weights, fluid cells × 2^level, cut as 2^level alone does.
		leaves := s.Leaves()
		w := make([]float64, len(leaves))
		for i, l := range leaves {
			w[i] = float64(int(1) << l.Level())
		}
		for i, r := range blockforest.AssignContiguous(w, 2) {
			if leaves[i].Rank != r {
				t.Errorf("leaf %d of %d on rank %d, the level-weighted cut gives %d", i, len(leaves), leaves[i].Rank, r)
				break
			}
		}
	})
}

// TestGradedWeight: a kept leaf keeps its weight, measured time included;
// a leaf a regrade makes weighs the static weight its fluid has at its
// level: a split child twice its parent's, a merged parent a sixteenth of
// its children's sum — so an all-fluid forest cuts by 2^level across a
// regrade that changes it.
func TestGradedWeight(t *testing.T) {
	kept, merged := blockforest.BlockID{Tree: 3}, blockforest.BlockID{Tree: 5}
	old := map[blockforest.BlockID]sim.Weight{kept: {Static: 512, Measured: 9}}
	for o := range 8 {
		old[merged.Child(o)] = sim.Weight{Static: 1024}
	}
	for _, tc := range []struct {
		id   blockforest.BlockID
		want sim.Weight
	}{
		{kept, sim.Weight{Static: 512, Measured: 9}},
		{kept.Child(2), sim.Weight{Static: 1024}},
		{merged, sim.Weight{Static: 512}},
	} {
		if got := gradedWeight(tc.id, old); got != tc.want {
			t.Errorf("leaf %v weighs %+v, want %+v", tc.id, got, tc.want)
		}
	}
}

// refineLeftHalf refines the left half of the domain twice: levels 0..2
// coexist in a static forest.
func refineLeftHalf(s *Sim) error {
	for round := 0; round < 2; round++ {
		marks := map[blockforest.BlockID]blockforest.Mark{}
		for _, l := range s.Leaves() {
			if l.Idx[0] < s.cfg.Grid[0]<<uint(l.Level())/2 {
				marks[l.ID] = blockforest.MarkRefine
			}
		}
		if err := s.ApplyMarks(marks); err != nil {
			return err
		}
	}
	return nil
}

// refineFirstColumn refines the leaves of the first column of roots
// twice: level 2 there, its neighbours graded to level 1, the columns
// beyond at level 0.
func refineFirstColumn(s *Sim) error {
	for round := 0; round < 2; round++ {
		marks := map[blockforest.BlockID]blockforest.Mark{}
		for _, l := range s.Leaves() {
			if l.Coord[0] == 0 {
				marks[l.ID] = blockforest.MarkRefine
			}
		}
		if err := s.ApplyMarks(marks); err != nil {
			return err
		}
	}
	return nil
}

// interiorBits is the exact bit pattern of a field's interior, in
// (z, y, x, direction) order.
func interiorBits(f *field.PDFField) []uint64 {
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

// TestUniformMatchesLevelZero: a uniform grid is a one-level forest. With
// refinement disabled the AMR driver must advance exactly like the uniform
// solver (internal/sim) on the same periodic box and initial state —
// sim's cell (x, y, z) is amr's position x+0.5 — so every block ends
// bit-equal, in both layouts, on one rank and two.
func TestUniformMatchesLevelZero(t *testing.T) {
	const steps = 6
	for _, layout := range []sim.LayoutChoice{sim.LayoutAoS, sim.LayoutSoA} {
		for _, ranks := range []int{1, 2} {
			cfg := baseConfig(2, layout)
			cfg.Refinement = Refinement{}
			var mu sync.Mutex
			refined, uniform := map[[3]int][]uint64{}, map[[3]int][]uint64{}
			comm.Run(ranks, func(c *comm.Comm) {
				s, err := New(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if err := run(s, steps); err != nil {
					t.Error(err)
					return
				}
				if levels := s.LevelCounts(); len(levels) != 1 || levels[0] != 16 {
					t.Errorf("uniform run refined: %v", levels)
				}
				mu.Lock()
				defer mu.Unlock()
				for _, b := range s.OwnedBlocks() {
					refined[b.Coord] = interiorBits(b.Src)
				}
			})
			f := blockforest.NewSetupForest(blockforest.NewAABB([3]float64{}, [3]float64{4, 2, 2}), cfg.Grid, cfg.Cells, cfg.Periodic)
			f.BalanceMorton(ranks)
			comm.Run(ranks, func(c *comm.Comm) {
				var in *blockforest.SetupForest
				if c.Rank() == 0 {
					in = f
				}
				forest, err := blockforest.Distribute(c, in)
				if err != nil {
					t.Error(err)
					return
				}
				s, err := sim.New(c, forest, cfg.Config)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Run(steps); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				for _, bd := range s.Blocks {
					uniform[bd.Block.Coord] = interiorBits(bd.Src)
				}
			})
			if t.Failed() {
				t.FailNow()
			}
			if len(refined) != 16 || len(uniform) != 16 {
				t.Fatalf("%v ranks=%d: %d refined and %d uniform blocks, want 16", layout, ranks, len(refined), len(uniform))
			}
			for coord, want := range uniform {
				got := refined[coord]
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%v ranks=%d: block %v value %d: bits %016x, uniform %016x", layout, ranks, coord, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestDepthZeroIsUniform: a uniform world is a refined world at depth 0,
// bit for bit. The same dense periodic world with a Gaussian jet, on 4×2×2
// and on 4×4×4 roots of 16³ cells, built once by sim.New on a distributed
// forest and once by New with refinement off, ends 100 steps with every
// block's interior bit-equal, on 2 ranks × 2 workers. (The two hash
// differently: Simulation.FieldHash keys a refined world's blocks by
// their leaf identity.)
func TestDepthZeroIsUniform(t *testing.T) {
	const steps = 100
	for _, grid := range [][3]int{{4, 2, 2}, {4, 4, 4}} {
		cfg := baseConfig(2, sim.LayoutAuto)
		cfg.Grid, cfg.Cells, cfg.Refinement = grid, [3]int{16, 16, 16}, Refinement{}
		refined := func(c *comm.Comm, cfg Config) (*sim.Simulation, error) {
			s, err := New(c, cfg)
			if err != nil {
				return nil, err
			}
			return s.Plane(), nil
		}
		var mu sync.Mutex
		bits := [2]map[[3]int][]uint64{{}, {}}
		for i, build := range []func(*comm.Comm, Config) (*sim.Simulation, error){uniformTwin, refined} {
			comm.Run(2, func(c *comm.Comm) {
				s, err := build(c, cfg)
				if err == nil {
					_, err = s.Run(steps)
				}
				if err != nil {
					t.Errorf("grid %v world %d rank %d: %v", grid, i, c.Rank(), err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				for _, bd := range s.Blocks {
					bits[i][bd.Block.Coord] = interiorBits(bd.Src)
				}
			})
		}
		if t.Failed() {
			t.FailNow()
		}
		if n := grid[0] * grid[1] * grid[2]; len(bits[0]) != n || len(bits[1]) != n {
			t.Fatalf("grid %v: %d uniform and %d refined blocks, want %d", grid, len(bits[0]), len(bits[1]), n)
		}
		for coord, want := range bits[0] {
			if !slices.Equal(bits[1][coord], want) {
				t.Errorf("grid %v: refined world at depth 0 differs from the uniform world in block %v", grid, coord)
			}
		}
	}
}

// TestRefinedMetricsCountSweeps: a refined run's metrics count the cell
// updates its sweeps performed. On a static three-level forest a level-ℓ
// leaf updates its cells 2^ℓ times per coarse step, so the run's updates
// (MLUPS × wall time) are Σ cells·2^ℓ·steps; TotalCells counts each leaf
// once.
func TestRefinedMetricsCountSweeps(t *testing.T) {
	const steps = 3
	cfg := baseConfig(1, sim.LayoutSoA)
	cfg.Refinement.Interval = 0
	cells := int64(cfg.Cells[0] * cfg.Cells[1] * cfg.Cells[2])
	comm.Run(2, func(c *comm.Comm) {
		s, err := New(c, cfg)
		if err == nil {
			err = refineLeftHalf(s)
		}
		var m sim.Metrics
		if err == nil {
			m, err = s.plane.Run(steps)
		}
		if err != nil {
			t.Error(err)
			return
		}
		var want int64
		for _, l := range s.Leaves() {
			want += cells << l.Level() * steps
		}
		for name, rate := range map[string]float64{"MLUPS": m.MLUPS, "MFLUPS": m.MFLUPS} {
			if got := rate * m.WallTime.Seconds() * 1e6; math.Abs(got-float64(want)) > 1e-9*float64(want) {
				t.Errorf("rank %d: %s counts %.0f updates, want %d (levels %v)", c.Rank(), name, got, want, s.LevelCounts())
			}
		}
		if m.Steps != steps || m.TotalCells != cells*int64(s.NumLeaves()) {
			t.Errorf("rank %d: %d steps over %d cells, want %d over %d", c.Rank(), m.Steps, m.TotalCells, steps, cells*int64(s.NumLeaves()))
		}
	})
}

// stepZeroAllocRefined is the allocation gate of the refined step: on a
// static three-level forest over two ranks, a steady-state coarse step —
// every level's exchange, resampled interface transfers included, and
// every level's sweeps, refined leaves sweeping in arena boxes — performs
// zero heap allocations. Workers is 1
// because the pool's per-region goroutine spawns are the one deliberate
// exception (as in sim's TestStepZeroAlloc).
func stepZeroAllocRefined(t *testing.T, traced bool) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const runs = 20
	trace := telemetry.NewTrace()
	comm.Run(2, func(c *comm.Comm) {
		cfg := baseConfig(1, sim.LayoutSoA)
		cfg.Refinement.Interval = 0
		if traced {
			cfg.Tracer, cfg.Metrics = trace.NewTracer(c.Rank(), 1, 0), telemetry.NewRegistry()
		}
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := refineLeftHalf(s); err != nil {
			t.Error(err)
			return
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
			// Feed rank 0's receives through AllocsPerRun's runs+1 calls; rank
			// 0's global malloc counter still sees this rank's steps.
			for i := 0; i < runs+1; i++ {
				step()
			}
			return
		}
		if s.MaxLevel() != 2 {
			t.Errorf("forest has max level %d, want 2", s.MaxLevel())
		}
		if s.plane.BoxSweeps(1)+s.plane.BoxSweeps(2) == 0 {
			t.Error("no refined leaves share an arena swept as a box")
		}
		if avg := testing.AllocsPerRun(runs, step); avg != 0 {
			t.Errorf("refined Step allocates %.1f objects per coarse step in steady state, want 0", avg)
		}
		if traced && s.tel.driver.Len() == 0 {
			t.Error("tracing was attached but no spans were recorded")
		}
		if n := countSpans(cfg.Tracer, telemetry.PhaseResample); traced && n == 0 {
			t.Error("a traced refined step recorded no resample spans")
		}
	})
}

// countSpans counts the retained spans of one phase on all lanes of tr.
func countSpans(tr *telemetry.Tracer, p telemetry.Phase) int {
	n := 0
	for _, l := range tr.Lanes() {
		l.Each(func(sp telemetry.Span) {
			if sp.Phase == p {
				n++
			}
		})
	}
	return n
}

func TestStepZeroAllocRefined(t *testing.T)       { stepZeroAllocRefined(t, false) }
func TestStepZeroAllocRefinedTraced(t *testing.T) { stepZeroAllocRefined(t, true) }
