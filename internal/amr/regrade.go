package amr

import (
	"fmt"
	"math"
	"slices"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/telemetry"
)

// The refine/coarsen controller. Every rank evaluates the flow
// criterion on its own blocks, the per-leaf marks are allgathered, and
// every rank independently runs the shared 2:1 grading routine plus the
// level-weighted balancer on the replicated leaf list — so the new
// forest and its rank assignment are computed identically everywhere
// without a coordinator, and the migration pattern is known without an
// all-to-all negotiation.

// markEntry is one leaf's criterion vote on the wire.
type markEntry struct {
	ID   blockforest.BlockID
	Mark blockforest.Mark
}

// Regrade runs one controller pass: criterion, marks, 2:1 grading,
// level-weighted rebalancing and block migration. A pass that changes
// nothing costs one allgather.
func (s *Sim) Regrade() error {
	_, err := s.regrade()
	return err
}

// regrade is Regrade plus a report of whether the forest changed, which
// the step-0 bootstrap uses to iterate to a fixpoint.
func (s *Sim) regrade() (changed bool, err error) {
	t0 := time.Now()
	lt0 := s.tel.driver.Start()
	local := make([]markEntry, 0, len(s.blocks))
	for _, b := range s.blocks {
		local = append(local, markEntry{ID: b.ID, Mark: s.markOf(b)})
	}
	gathered, err := s.Comm.AllgatherErr(local)
	if err != nil {
		return false, fmt.Errorf("amr: regrade allgather: %w", err)
	}
	marks := make(map[blockforest.BlockID]blockforest.Mark, len(s.leaves))
	for _, g := range gathered {
		for _, e := range g.([]markEntry) {
			marks[e.ID] = e.Mark
		}
	}
	s.stats.Regrades++
	s.tel.regrades.Inc()
	s.tel.driver.Span(telemetry.PhaseRegrade, s.step, int32(len(s.leaves)), lt0)
	ns := time.Since(t0).Nanoseconds()
	s.stats.RegradeNs += ns
	s.tel.regradeNs.Add(ns)
	return s.applyMarks(marks, s.cfg.Refinement.MaxLevel)
}

// ApplyMarks refines/coarsens explicitly marked leaves (unlisted leaves
// keep their level), bypassing the flow criterion: the static
// pre-refinement hook for geometry-driven setups and tests. The map
// must be identical on all ranks. The same 2:1 grading, level-weighted
// balancing and migration as the runtime controller apply.
func (s *Sim) ApplyMarks(m map[blockforest.BlockID]blockforest.Mark) error {
	maxLevel := s.cfg.Refinement.MaxLevel
	if maxLevel == 0 {
		maxLevel = maxRefineLevel
	}
	_, err := s.applyMarks(m, maxLevel)
	return err
}

// applyMarks grades the forest under the marks (absent leaves keep their
// level), assigns it by level-weighted cost and migrates to it if it
// differs from the current one, identity and placement included.
func (s *Sim) applyMarks(m map[blockforest.BlockID]blockforest.Mark, maxLevel int) (changed bool, err error) {
	marks := make([]blockforest.Mark, len(s.leaves))
	for i, l := range s.leaves {
		marks[i] = m[l.ID]
	}
	graded := blockforest.Grade(s.bfLeaves(), marks, s.cfg.Grid, s.cfg.Periodic, maxLevel)
	s.assignRanks(graded)
	if slices.EqualFunc(graded, s.leaves, func(g blockforest.Leaf, l Leaf) bool { return g.ID == l.ID && g.Rank == l.Rank }) {
		return false, nil
	}
	return true, s.migrate(graded)
}

// markOf evaluates the refinement criterion of one block and applies
// the hysteresis band.
func (s *Sim) markOf(b *Block) blockforest.Mark {
	r := &s.cfg.Refinement
	crit := s.criterion(b)
	if crit > r.RefineAbove && b.Level() < r.MaxLevel {
		return blockforest.MarkRefine
	}
	if crit < r.CoarsenBelow && b.Level() > 0 {
		return blockforest.MarkCoarsen
	}
	return blockforest.MarkKeep
}

// criterion computes the block's flow criterion in physical units: the
// maximum over interior cells of the velocity-gradient Frobenius norm
// or the vorticity magnitude, with lattice differences rescaled by the
// level's 1/h = 2^ℓ.
func (s *Sim) criterion(b *Block) float64 {
	C := s.cfg.Cells
	st := s.cfg.Stencil
	u, f := s.critU, s.critF
	idx := func(x, y, z int) int { return (z*C[1]+y)*C[0] + x }
	src := b.Src
	stored := src.Window().Covers(field.Window{Hi: C}) // else solid cells read as the fill
	for z := 0; z < C[2]; z++ {
		for y := 0; y < C[1]; y++ {
			for x := 0; x < C[0]; x++ {
				for a := 0; stored && a < st.Q; a++ {
					f[a] = src.Get(x, y, z, lattice.Direction(a))
				}
				for a := 0; !stored && a < st.Q; a++ {
					f[a] = src.At(x, y, z, lattice.Direction(a))
				}
				_, ux, uy, uz := st.Moments(f)
				u[idx(x, y, z)] = [3]float64{ux, uy, uz}
			}
		}
	}
	// One-sided differences at block edges, central inside; ghost
	// moments are never read, so the criterion is a pure function of
	// the block's interior state.
	diff := func(x, y, z, axis, comp int) float64 {
		lo, hi := [3]int{x, y, z}, [3]int{x, y, z}
		if lo[axis] > 0 {
			lo[axis]--
		}
		if hi[axis] < C[axis]-1 {
			hi[axis]++
		}
		if lo[axis] == hi[axis] {
			return 0
		}
		d := u[idx(hi[0], hi[1], hi[2])][comp] - u[idx(lo[0], lo[1], lo[2])][comp]
		return d / float64(hi[axis]-lo[axis])
	}
	h := float64(int(1) << uint(b.Level())) // 1/h: physical gradients
	var maxCrit float64
	for z := 0; z < C[2]; z++ {
		for y := 0; y < C[1]; y++ {
			for x := 0; x < C[0]; x++ {
				var crit float64
				if s.cfg.Refinement.Criterion == CriterionVorticity {
					wx := diff(x, y, z, 1, 2) - diff(x, y, z, 2, 1)
					wy := diff(x, y, z, 2, 0) - diff(x, y, z, 0, 2)
					wz := diff(x, y, z, 0, 1) - diff(x, y, z, 1, 0)
					crit = math.Sqrt(wx*wx + wy*wy + wz*wz)
				} else {
					var sum float64
					for axis := 0; axis < 3; axis++ {
						for comp := 0; comp < 3; comp++ {
							d := diff(x, y, z, axis, comp)
							sum += d * d
						}
					}
					crit = math.Sqrt(sum)
				}
				if crit *= h; crit > maxCrit {
					maxCrit = crit
				}
			}
		}
	}
	return maxCrit
}
