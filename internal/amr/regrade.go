package amr

import (
	"fmt"
	"math"
	"slices"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/lattice"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

// The refine/coarsen controller. Every rank evaluates the flow
// criterion on its own blocks, the per-leaf marks and weights are
// allgathered, and every rank independently runs the shared 2:1 grading
// routine plus the data plane's cut (sim.Simulation.Assign) on the
// replicated leaf list — so the new forest and its rank assignment are
// computed identically everywhere without a coordinator, and the
// migration pattern is known without an all-to-all negotiation.

// Regrade runs one controller pass: criterion, marks, 2:1 grading,
// balancing and block migration. A pass that changes nothing costs one
// allgather.
func (s *Sim) Regrade() error {
	_, err := s.regrade()
	return err
}

// regrade is Regrade plus a report of whether the forest changed, which
// the step-0 bootstrap uses to iterate to a fixpoint.
func (s *Sim) regrade() (changed bool, err error) {
	t0 := time.Now()
	lt0 := s.tel.driver.Start()
	ls, w, marks, err := s.gather(s.markOf)
	if err != nil {
		return false, fmt.Errorf("amr: regrade allgather: %w", err)
	}
	s.stats.Regrades++
	s.tel.regrades.Inc()
	s.tel.driver.Span(telemetry.PhaseRegrade, s.plane.WorldStep(), int32(len(s.leaves)), lt0)
	ns := time.Since(t0).Nanoseconds()
	s.stats.RegradeNs += ns
	s.tel.regradeNs.Add(ns)
	return s.applyMarks(ls, w, marks, s.cfg.Refinement.MaxLevel)
}

// ApplyMarks refines/coarsens explicitly marked leaves (unlisted leaves
// keep their level), bypassing the flow criterion: the static
// pre-refinement hook for geometry-driven setups and tests. The map
// must be identical on all ranks. The same gather (for the weights), 2:1
// grading, balancing and migration as the runtime controller apply.
func (s *Sim) ApplyMarks(m map[blockforest.BlockID]blockforest.Mark) error {
	ls, w, marks, err := s.gather(func(bd *sim.BlockData) blockforest.Mark { return m[bd.Block.ID] })
	if err == nil {
		_, err = s.applyMarks(ls, w, marks, refiner{s}.Depth())
	}
	return err
}

// gather is the plane's Gather of every block with its mark(block).
func (s *Sim) gather(mark func(*sim.BlockData) blockforest.Mark) ([]blockforest.Leaf, []sim.Weight, []int64, error) {
	bs := s.plane.Blocks
	return s.plane.Gather(len(bs), func(i int) (blockforest.BlockID, sim.Weight, int64) {
		return bs[i].Block.ID, bs[i].Weight(), int64(mark(bs[i]))
	})
}

// applyMarks grades the gathered leaves ls (weights w, marks m), assigns
// the graded forest by the weights of its leaves (gradedWeight) and
// migrates to it if it differs from the current one, identity and
// placement included.
func (s *Sim) applyMarks(ls []blockforest.Leaf, w []sim.Weight, m []int64, maxLevel int) (changed bool, err error) {
	marks, old := make([]blockforest.Mark, len(m)), make(map[blockforest.BlockID]sim.Weight, len(ls))
	for i, l := range ls {
		marks[i], old[l.ID] = blockforest.Mark(m[i]), w[i]
	}
	graded := blockforest.Grade(ls, marks, s.cfg.Grid, s.cfg.Periodic, maxLevel)
	weight := func(i int) sim.Weight { return gradedWeight(graded[i].ID, old) }
	for i, r := range s.plane.Assign(len(graded), weight) {
		graded[i].Rank = r
	}
	if slices.EqualFunc(graded, s.leaves, func(g blockforest.Leaf, l Leaf) bool { return g.ID == l.ID && g.Rank == l.Rank }) {
		return false, nil
	}
	return true, s.migrate(graded)
}

// gradedWeight is the weight of graded leaf id given the old leaves'
// weights: a kept leaf's own; a split child its parent's fluid at its own
// level (twice the parent's static weight), a merged parent its children's
// mean fluid at its own level (their sum / 16) — neither measured yet, so
// a grading that changes the leaf set cuts by static weights. A leaf that
// was not one weighs zero, so only the case that applies adds to the sum.
func gradedWeight(id blockforest.BlockID, old map[blockforest.BlockID]sim.Weight) sim.Weight {
	if own := old[id]; own != (sim.Weight{}) {
		return own
	}
	var sum int64
	if id.Level > 0 {
		sum = 32 * old[id.Parent()].Static
	}
	for o := range 8 {
		sum += old[id.Child(o)].Static
	}
	return sim.Weight{Static: sum / 16}
}

// markOf evaluates the refinement criterion of one block and applies
// the hysteresis band.
func (s *Sim) markOf(b *sim.BlockData) blockforest.Mark {
	r := &s.cfg.Refinement
	crit, level := s.criterion(b), int(b.Block.ID.Level)
	if crit > r.RefineAbove && level < r.MaxLevel {
		return blockforest.MarkRefine
	}
	if crit < r.CoarsenBelow && level > 0 {
		return blockforest.MarkCoarsen
	}
	return blockforest.MarkKeep
}

// criterion computes the block's flow criterion in physical units: the
// maximum over interior cells of the velocity-gradient Frobenius norm
// or the vorticity magnitude, with lattice differences rescaled by the
// level's 1/h = 2^ℓ. It maximizes the squared norm and takes one square
// root per block: sqrt is monotone and correctly rounded and 2^ℓ scales
// exactly, so that is the maximum of the per-cell norms bit for bit (a
// NaN cell never wins either comparison).
func (s *Sim) criterion(b *sim.BlockData) float64 {
	C := s.cfg.Cells
	st := s.cfg.Stencil
	u, f := s.critU, s.critF
	src := b.Src
	// A leaf storing its whole block — every leaf without solid cells, or
	// with a per-cell initial state — is read with constant strides; any
	// other through At, its cells outside the rows reading as the fill.
	stored := src.Rows().Full()
	data := src.Data()
	var ds, xs int
	if stored {
		p0 := src.Index(0, 0, 0, 0)
		ds, xs = src.Index(0, 0, 0, 1)-p0, src.Index(1, 0, 0, 0)-p0
	}
	i := 0
	for z := 0; z < C[2]; z++ {
		for y := 0; y < C[1]; y++ {
			p := 0
			if stored {
				p = src.Index(0, y, z, 0)
			}
			for x := 0; x < C[0]; x++ {
				if stored {
					for a := range f {
						f[a] = data[p+a*ds]
					}
					p += xs
				} else {
					for a := range f {
						f[a] = src.At(x, y, z, lattice.Direction(a))
					}
				}
				_, ux, uy, uz := st.Moments(f)
				u[i] = [3]float64{ux, uy, uz}
				i++
			}
		}
	}
	// One-sided differences at block edges, central inside; ghost
	// moments are never read, so the criterion is a pure function of
	// the block's interior state.
	stride := [3]int{1, C[0], C[0] * C[1]}
	vorticity := s.cfg.Refinement.Criterion == CriterionVorticity
	var maxSq float64
	i = 0
	for z := 0; z < C[2]; z++ {
		for y := 0; y < C[1]; y++ {
			for x := 0; x < C[0]; x++ {
				c := [3]int{x, y, z}
				var g [3][3]float64 // g[axis][comp]: ∂u_comp/∂x_axis in lattice units
				for axis := 0; axis < 3; axis++ {
					lo, hi, n := i, i, 0
					if c[axis] > 0 {
						lo -= stride[axis]
						n++
					}
					if c[axis] < C[axis]-1 {
						hi += stride[axis]
						n++
					}
					if n == 0 {
						continue
					}
					for comp := 0; comp < 3; comp++ {
						g[axis][comp] = (u[hi][comp] - u[lo][comp]) / float64(n)
					}
				}
				var sq float64
				if vorticity {
					wx := g[1][2] - g[2][1]
					wy := g[2][0] - g[0][2]
					wz := g[0][1] - g[1][0]
					sq = wx*wx + wy*wy + wz*wz
				} else {
					for axis := 0; axis < 3; axis++ {
						for comp := 0; comp < 3; comp++ {
							sq += g[axis][comp] * g[axis][comp]
						}
					}
				}
				if sq > maxSq {
					maxSq = sq
				}
				i++
			}
		}
	}
	return math.Sqrt(maxSq) * float64(int(1)<<uint(b.Block.ID.Level))
}
