package sim_test

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"walberla/internal/amr"
	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/core"
	"walberla/internal/scenario"
	"walberla/internal/sim"
)

// refinedDoc is a periodic Taylor–Green world of 4x2x2 roots of 8³ cells
// that refines to level 2, for the given ranks, workers and network.
const refinedDoc = `{"version": 1, "geometry": {"example": "taylor-green", "amplitude": 0.02},
  "resolution": {"grid": [4, 2, 2], "cells_per_block": [8, 8, 8]}, "collision": {"tau": 0.8},
  "refinement": {"max_level": 2, "refine_above": 1, "coarsen_below": 0.5},
  "parallel": {"ranks": %d, "workers": %d}, "transport": {"network": %q}, "run": {"steps": 1}}`

// staticThreeLevels builds the refined world of refinedDoc on c and
// refines its first column of roots twice: level 2 there, level 1 beside
// it, level 0 beyond, a forest no controller changes.
func staticThreeLevels(c *comm.Comm, sc *scenario.Scenario) (*amr.Sim, error) {
	cfg, err := sc.AMRConfig()
	if err != nil {
		return nil, err
	}
	cfg.Refinement.Interval = 0
	s, err := amr.New(c, cfg)
	for range 2 {
		if err != nil {
			return nil, err
		}
		marks := map[blockforest.BlockID]blockforest.Mark{}
		for _, l := range s.Leaves() {
			if l.Coord[0] == 0 {
				marks[l.ID] = blockforest.MarkRefine
			}
		}
		err = s.ApplyMarks(marks)
	}
	return s, err
}

// TestRefinedArenaOracle: a refined world ends on one field hash on 1, 2
// and 3 ranks with 1 and 2 workers, in process and over unix sockets,
// whatever arenas its ranks' leaves form level by level — the static
// three-level forest of staticThreeLevels, and amr-cavity.json on the hash
// its command line run pins. Each rank's cover is logged, and the static
// forest's refined leaves share arenas on every rank count.
func TestRefinedArenaOracle(t *testing.T) {
	raw, err := os.ReadFile("../scenario/testdata/amr-cavity.json")
	if err != nil {
		t.Fatal(err)
	}
	const cavityHash = 0xff71bdd150329bef
	var static uint64
	for _, network := range []string{"inproc", "unix"} {
		for _, ranks := range []int{1, 2, 3} {
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("%s ranks=%d workers=%d", network, ranks, workers)
				sc, err := scenario.Parse([]byte(fmt.Sprintf(refinedDoc, ranks, workers, network)))
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var hash uint64
				refined := 0
				comm.RunWithOptions(ranks, sc.CommOptions(), func(c *comm.Comm) {
					s, err := staticThreeLevels(c, sc)
					if err == nil {
						_, err = s.Plane().Run(4)
					}
					var h uint64
					if err == nil {
						h, err = s.FieldHash()
					}
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						t.Errorf("%s rank %d: %v", label, c.Rank(), err)
						return
					}
					hash = h
					for _, a := range s.Plane().ArenaBoxes(false) {
						t.Logf("static %s rank %d: %v", label, c.Rank(), a)
						if a.Level > 0 {
							refined++
						}
					}
				})
				if static == 0 {
					static = hash
				}
				if hash != static {
					t.Errorf("static %s: field hash %016x, want %016x", label, hash, static)
				}
				if refined == 0 {
					t.Errorf("static %s: no refined leaves share an arena", label)
				}

				doc := strings.Replace(string(raw), `"parallel": {"ranks": 2, "workers": 2}`, fmt.Sprintf(`"parallel": {"ranks": %d, "workers": %d}`, ranks, workers), 1)
				doc = strings.Replace(doc, `"transport": {}`, fmt.Sprintf(`"transport": {"network": %q}`, network), 1)
				err = problemFor(t, doc).RunEach(6, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
					h, err := s.FieldHash()
					mu.Lock()
					defer mu.Unlock()
					if err != nil || h != cavityHash {
						t.Errorf("amr-cavity %s rank %d: field hash %016x (%v), want %016x", label, c.Rank(), h, err, uint64(cavityHash))
					}
					for _, a := range s.ArenaBoxes(false) {
						t.Logf("amr-cavity %s rank %d: %v", label, c.Rank(), a)
					}
				})
				if err != nil {
					t.Fatalf("amr-cavity %s: %v", label, err)
				}
			}
		}
	}
}

// shearSteps is how many steps the drifting shear layer runs.
const shearSteps = 120

// driftingShear is a Gaussian shear layer drifting along x through 16 roots
// of 4³ cells on two ranks, which the controller regrades every 4 steps.
func driftingShear(t *testing.T) *core.Problem {
	const lx, drift = 64.0, 0.06
	p := problemFor(t, `{"version": 1, "geometry": {"example": "taylor-green", "amplitude": 0.05},
  "resolution": {"grid": [16, 1, 1], "cells_per_block": [4, 4, 4]}, "collision": {"tau": 0.53},
  "refinement": {"max_level": 2, "criterion": "gradient", "refine_above": 0.0015, "coarsen_below": 0.0004, "interval": 4},
  "physics": {"initial_velocity": [0.06, 0, 0]}, "parallel": {"ranks": 2}, "run": {"steps": 1}}`)
	p.InitialState = func(x, _, _ float64) (float64, float64, float64, float64) {
		return 1, drift, 0.05 * math.Exp(-(x-lx/2)*(x-lx/2)/4), 0
	}
	return p
}

// TestArenaCoverFollowsRegrades: while the controller follows a drifting
// shear layer, after every step each rank's arenas are the ones a fresh
// build of its leaf set forms, and every level on which the rank holds two
// face-adjacent leaves of one tree (of the grid, on level 0) shares ghost
// slots through an arena.
func TestArenaCoverFollowsRegrades(t *testing.T) {
	p := driftingShear(t)
	var mu sync.Mutex
	changes := 0
	err := p.RunEach(0, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
		prev := ""
		for step := range shearSteps {
			if err := s.Step(); err != nil {
				t.Error(err)
				return
			}
			got, want := fmt.Sprint(s.ArenaBoxes(false)), fmt.Sprint(s.ArenaBoxes(true))
			if got != want {
				t.Errorf("rank %d step %d: arenas %s, a fresh build forms %s", c.Rank(), step, got, want)
			}
			if got != prev && c.Rank() == 0 {
				mu.Lock()
				changes++
				mu.Unlock()
			}
			prev = got
			for l, n := range adjacentLeaves(s) {
				if n > 0 && s.LevelFloatsAliased(l) == 0 {
					t.Errorf("rank %d step %d: level %d holds %d adjacent leaf pairs and aliases nothing", c.Rank(), step, l, n)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rank 0's arenas changed %d times", changes)
	if changes < 3 {
		t.Errorf("rank 0's arenas changed %d times in %d steps, want a drifting cover", changes, shearSteps)
	}
}

// TestArenaRowsSweepWhole: no y-row of an arena is divided between
// sweeps, and a row sweeps in the frontier iff one of its members exchanges
// with another rank — on the static three-level forest and amr-cavity.json
// at 2 and 3 ranks with 1 and 2 workers, and after every step, regrades
// included, of the drifting shear layer. Some rows on the rank cut mix
// members of both kinds, so splitting rows would show.
func TestArenaRowsSweepWhole(t *testing.T) {
	raw, err := os.ReadFile("../scenario/testdata/amr-cavity.json")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	mixed := map[string]int{}
	check := func(world string, c *comm.Comm, s *sim.Simulation) {
		faults, n := s.RowSweepFaults()
		mu.Lock()
		defer mu.Unlock()
		for _, f := range faults {
			t.Errorf("%s rank %d: %s", world, c.Rank(), f)
		}
		mixed[strings.Fields(world)[0]] += n
	}
	for _, ranks := range []int{2, 3} {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("ranks=%d workers=%d", ranks, workers)
			sc, err := scenario.Parse([]byte(fmt.Sprintf(refinedDoc, ranks, workers, "inproc")))
			if err != nil {
				t.Fatal(err)
			}
			comm.RunWithOptions(ranks, sc.CommOptions(), func(c *comm.Comm) {
				s, err := staticThreeLevels(c, sc)
				if err == nil {
					_, err = s.Plane().Run(2)
				}
				if err != nil {
					t.Errorf("static %s rank %d: %v", label, c.Rank(), err)
					return
				}
				check("static "+label, c, s.Plane())
			})
			doc := strings.Replace(string(raw), `"parallel": {"ranks": 2, "workers": 2}`, fmt.Sprintf(`"parallel": {"ranks": %d, "workers": %d}`, ranks, workers), 1)
			err = problemFor(t, doc).RunEach(0, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
				for range 6 {
					if err := s.Step(); err != nil {
						t.Error(err)
						return
					}
					check("amr-cavity "+label, c, s)
				}
			})
			if err != nil {
				t.Fatalf("amr-cavity %s: %v", label, err)
			}
		}
	}
	err = driftingShear(t).RunEach(0, func(c *comm.Comm, s *sim.Simulation, _ sim.Metrics) {
		for step := range shearSteps {
			if err := s.Step(); err != nil {
				t.Error(err)
				return
			}
			check(fmt.Sprintf("shear step %d", step), c, s)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rows mixing frontier and interior members: %v", mixed)
	if mixed["static"] == 0 || mixed["shear"] == 0 {
		t.Errorf("rows mixing frontier and interior members: %v, want some on the static forest and the shear layer", mixed)
	}
}

// adjacentLeaves counts per level the pairs of all-fluid blocks of the rank
// that share a face within one tree (on level 0, within the grid).
func adjacentLeaves(s *sim.Simulation) map[int]int {
	at := map[[4]int]bool{}
	for _, bd := range s.Blocks {
		if bd.Fluid == bd.Src.InteriorCells() {
			p := blockforest.LevelIndex(bd.Block.Coord, bd.Block.ID)
			at[[4]int{int(bd.Block.ID.Level), p[0], p[1], p[2]}] = true
		}
	}
	n := map[int]int{}
	for k := range at {
		for d := 1; d < 4; d++ {
			q := k
			q[d]++
			if at[q] && (k[0] == 0 || k[d]>>k[0] == q[d]>>k[0]) {
				n[k[0]]++
			}
		}
	}
	return n
}

// TestRefinedGhostPoison: on the static three-level forest, whose leaves
// share arenas level by level, poisoning every ghost slot no plan of any
// level writes before every step leaves the field hash as it is.
func TestRefinedGhostPoison(t *testing.T) {
	var hashes [2]uint64
	for i, poison := range []bool{false, true} {
		sc, err := scenario.Parse([]byte(fmt.Sprintf(refinedDoc, 2, 2, "inproc")))
		if err != nil {
			t.Fatal(err)
		}
		comm.Run(2, func(c *comm.Comm) {
			s, err := staticThreeLevels(c, sc)
			if err != nil {
				t.Error(err)
				return
			}
			pre := func() {}
			if poison {
				pre = s.Plane().GhostPoisoner()
			}
			for range 6 {
				pre()
				if err := s.Step(); err != nil {
					t.Error(err)
					return
				}
			}
			if h, err := s.FieldHash(); err != nil {
				t.Error(err)
			} else if c.Rank() == 0 {
				hashes[i] = h
			}
		})
	}
	if hashes[0] != hashes[1] || hashes[0] == 0 {
		t.Errorf("poisoned field hash %016x, clean %016x", hashes[1], hashes[0])
	}
}

// TestRemoteTransfersCarryKeptSlots: a transfer between levels bound for
// another rank is masked like a slab of one level — on the static
// three-level forest over two ranks, the receiving arenas' claims drop
// slots of some, and every such transfer's window is exactly the slots
// its Kept reports, which the Resampler packs.
func TestRemoteTransfersCarryKeptSlots(t *testing.T) {
	sc, err := scenario.Parse([]byte(fmt.Sprintf(refinedDoc, 2, 1, "inproc")))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var transfers, masked int
	comm.Run(2, func(c *comm.Comm) {
		s, err := staticThreeLevels(c, sc)
		if err == nil {
			err = s.Step()
		}
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, x := range s.Plane().RemoteTransfers() {
			slots, kept, window := x[0], x[1], x[2]
			if window != kept {
				t.Errorf("rank %d: a transfer between levels of %d slots keeps %d and packs a window of %d", c.Rank(), slots, kept, window)
			}
			transfers++
			if kept < slots {
				masked++
			}
		}
	})
	if masked == 0 {
		t.Errorf("none of %d remote transfers between levels is masked", transfers)
	}
}
