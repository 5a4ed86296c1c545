package setup

import (
	"fmt"
	"math"
	"sync/atomic"

	"walberla/internal/blockforest"
	"walberla/internal/distance"
	"walberla/internal/geometry"
)

// The scaling-experiment searches of section 2.3: a weak scaling needs a
// domain partitioning with a given number of blocks at fixed block size
// while varying the isotropic resolution dx; a strong scaling needs a
// fitting (cubic) block size at fixed dx. Both are solved by binary
// search; because the block count is not monotonic in either parameter and
// an exact solution may not exist, the search returns the partitioning
// with the most blocks that does not exceed the target.

// countBlocksAtDx classifies the grid at resolution dx and returns the
// number of blocks required by the simulation. Blocks are classified on
// GOMAXPROCS goroutines, as in BuildForest; the count does not depend on
// the order.
func countBlocksAtDx(sdf distance.SDF, cells [3]int, dx float64) int {
	grid, domain := GridForDx(sdf.Bounds(), cells, dx)
	var n atomic.Int64
	forEach(grid[0]*grid[1]*grid[2], func() func(int) {
		return func(i int) {
			c := [3]int{i % grid[0], i / grid[0] % grid[1], i / (grid[0] * grid[1])}
			if geometry.BlockIntersectsDomain(sdf, blockAABB(domain, grid, c), cells) {
				n.Add(1)
			}
		}
	})
	return int(n.Load())
}

func blockAABB(domain blockforest.AABB, grid, c [3]int) blockforest.AABB {
	s := domain.Size()
	var b blockforest.AABB
	for d := 0; d < 3; d++ {
		w := s[d] / float64(grid[d])
		b.Min[d] = domain.Min[d] + float64(c[d])*w
		b.Max[d] = domain.Min[d] + float64(c[d]+1)*w
	}
	return b
}

// FindWeakScalingDx searches the isotropic resolution dx at which the
// classified domain partitioning has as many blocks as possible without
// exceeding targetBlocks, for a fixed block size. Returns the resolution
// and the achieved block count.
func FindWeakScalingDx(sdf distance.SDF, cells [3]int, targetBlocks, iterations int) (float64, int, error) {
	if targetBlocks < 1 {
		return 0, 0, fmt.Errorf("setup: invalid block target %d", targetBlocks)
	}
	size := sdf.Bounds().Size()
	maxSize := math.Max(size[0], math.Max(size[1], size[2]))
	// dxHigh: one block covers the whole geometry.
	dxHigh := maxSize / float64(min3(cells))
	// Find dxLow with more blocks than the target.
	dxLow := dxHigh
	nLow := countBlocksAtDx(sdf, cells, dxLow)
	for tries := 0; nLow <= targetBlocks && tries < 60; tries++ {
		dxLow /= 2
		nLow = countBlocksAtDx(sdf, cells, dxLow)
	}
	if nLow <= targetBlocks {
		// Even the finest probed resolution stays under target; return it.
		return dxLow, nLow, nil
	}
	bestDx, bestN := dxHigh, countBlocksAtDx(sdf, cells, dxHigh)
	if bestN > targetBlocks {
		return 0, 0, fmt.Errorf("setup: coarsest partitioning already exceeds target %d", targetBlocks)
	}
	lo, hi := dxLow, dxHigh // blocks(lo) > target >= blocks(hi)
	for it := 0; it < iterations; it++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: dx spans decades
		n := countBlocksAtDx(sdf, cells, mid)
		if n > targetBlocks {
			lo = mid
			continue
		}
		if n > bestN {
			bestDx, bestN = mid, n
		}
		hi = mid
	}
	return bestDx, bestN, nil
}

func min3(v [3]int) int {
	m := v[0]
	if v[1] < m {
		m = v[1]
	}
	if v[2] < m {
		m = v[2]
	}
	return m
}

// FindStrongScalingEdge searches the cubic block edge length (in cells)
// at which the partitioning at fixed resolution dx has as many blocks as
// possible without exceeding targetBlocks. The search bisects over the
// integer edge length and then scans the neighborhood of the boundary, as
// the block count is not strictly monotonic.
func FindStrongScalingEdge(sdf distance.SDF, dx float64, targetBlocks, minEdge, maxEdge int) (int, int, error) {
	if targetBlocks < 1 || minEdge < 1 || maxEdge < minEdge {
		return 0, 0, fmt.Errorf("setup: invalid strong scaling search parameters")
	}
	count := func(edge int) int {
		return countBlocksAtDx(sdf, [3]int{edge, edge, edge}, dx)
	}
	if n := count(maxEdge); n > targetBlocks {
		return 0, 0, fmt.Errorf("setup: largest block edge %d still yields %d > %d blocks", maxEdge, n, targetBlocks)
	}
	// Bisect for the smallest edge whose count does not exceed the target.
	lo, hi := minEdge, maxEdge // count(hi) <= target
	if count(lo) <= targetBlocks {
		hi = lo
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if count(mid) <= targetBlocks {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	bestEdge, bestN := hi, count(hi)
	// Non-monotonicity scan around the boundary.
	for e := hi; e <= hi+3 && e <= maxEdge; e++ {
		if n := count(e); n <= targetBlocks && n > bestN {
			bestEdge, bestN = e, n
		}
	}
	return bestEdge, bestN, nil
}
