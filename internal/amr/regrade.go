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
// criterion on its own blocks, the per-leaf marks are allgathered, and
// every rank independently runs the shared 2:1 grading routine plus the
// level-weighted balancer on the replicated leaf list — so the new
// forest and its rank assignment are computed identically everywhere
// without a coordinator, and the migration pattern is known without an
// all-to-all negotiation.

// appendID and idAt carry a leaf's BlockID in the []int64 records the
// controller allgathers: Tree, Path, Level.
func appendID(dst []int64, id blockforest.BlockID) []int64 {
	return append(dst, int64(id.Tree), int64(id.Path), int64(id.Level))
}

func idAt(w []int64) blockforest.BlockID {
	return blockforest.BlockID{Tree: uint32(w[0]), Path: uint64(w[1]), Level: uint8(w[2])}
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
	local := make([]int64, 0, 4*len(s.plane.Blocks)) // per leaf: ID, then mark
	for _, bd := range s.plane.Blocks {
		local = append(appendID(local, bd.Block.ID), int64(s.markOf(bd)))
	}
	gathered, err := s.plane.Comm.AllgatherErr(local)
	if err != nil {
		return false, fmt.Errorf("amr: regrade allgather: %w", err)
	}
	marks := make(map[blockforest.BlockID]blockforest.Mark, len(s.leaves))
	for _, g := range gathered {
		for w := g.([]int64); len(w) >= 4; w = w[4:] {
			marks[idAt(w)] = blockforest.Mark(w[3])
		}
	}
	s.stats.Regrades++
	s.tel.regrades.Inc()
	s.tel.driver.Span(telemetry.PhaseRegrade, s.plane.WorldStep(), int32(len(s.leaves)), lt0)
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
	_, err := s.applyMarks(m, refiner{s}.Depth())
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
