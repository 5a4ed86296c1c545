// Package geometry implements the initialization-phase geometry stages of
// section 2.3: deciding which blocks intersect the computational domain
// (with circumsphere/insphere early-outs around the block barycenter),
// voxelizing blocks against the signed distance function, computing the
// boundary hull of the fluid cells with a morphological dilation w.r.t.
// the LBM stencil, and assigning boundary conditions from surface colors.
// Voxelize is the one classification of cells: the forest build counts a
// block's fluid cells from its output, which the simulation then lands as
// the block's flags.
//
// Most hull cells need no color search. A hull cell p is Outside and is
// marked from a Fluid cell q = p + c_a, so the segment from p to q crosses
// the surface, and the triangle whose color p takes — the nearest one, or
// for a union the nearest one of the component realizing the minimum,
// which is no farther than the surface of any component q lies in — is at
// most |c_a·dx| from p. A triangle whose bounding box is farther from p
// than that can neither be the nearest nor tie with it. So when every box
// of distance.SDF.ColoredBoxes (the non-wall triangles) is that far, the
// color is ColorWall and DilateBoundary does not search. The comparison
// carries a relative margin and an absolute one in units of the block's
// coordinate magnitude, far above the rounding of the cell centers, the
// inside test and the computed distances, so the hull is bit-identical to
// searching at every hull cell. On the synthetic coronary tree only the
// root inlet and the leaf outlets are colored, and few hull cells search.
package geometry

import (
	"math"

	"walberla/internal/blockforest"
	"walberla/internal/distance"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/mesh"
)

// Classification is the result of testing a region against the domain.
type Classification int

// Region classifications.
const (
	// RegionOutside: no cell center of the region lies inside the domain.
	RegionOutside Classification = iota
	// RegionInside: every cell center of the region lies inside.
	RegionInside
	// RegionIntersecting: the region contains both kinds.
	RegionIntersecting
)

// ClassifyAABB classifies a box of points against the SDF using the
// paper's sphere tests: with c the barycenter, R the circumsphere radius,
// if phi(c) > R the box is entirely outside, if phi(c) < -R entirely
// inside; otherwise it intersects the surface (conservatively).
func ClassifyAABB(sdf distance.SDF, b blockforest.AABB) Classification {
	phi := sdf.Signed(b.Center())
	r := b.CircumsphereRadius()
	if phi > r {
		return RegionOutside
	}
	if phi < -r {
		return RegionInside
	}
	return RegionIntersecting
}

// BlockIntersectsDomain decides whether a block with the given cell grid
// is required by the simulation: true iff the center of any of its lattice
// cells lies within the domain. The test recurses over cell-index octants,
// pruning entire sub-regions with ClassifyAABB, so the number of
// point-surface distance evaluations is far below the cell count.
func BlockIntersectsDomain(sdf distance.SDF, block blockforest.AABB, cells [3]int) bool {
	// Quick whole-block tests on the block box itself (the barycenter /
	// circumsphere / insphere tests of the paper). The distance function
	// is 1-Lipschitz, so phi at the barycenter bounds phi everywhere in
	// the block.
	phi := sdf.Signed(block.Center())
	if phi > block.CircumsphereRadius() {
		return false // every point of the block is outside
	}
	dx := [3]float64{
		(block.Max[0] - block.Min[0]) / float64(cells[0]),
		(block.Max[1] - block.Min[1]) / float64(cells[1]),
		(block.Max[2] - block.Min[2]) / float64(cells[2]),
	}
	cellDiag := 0.5 * math.Sqrt(dx[0]*dx[0]+dx[1]*dx[1]+dx[2]*dx[2])
	if phi < -cellDiag {
		// The barycenter is deeper inside than half a cell diagonal, so
		// the cell center nearest to it is inside as well.
		return true
	}
	return anyCellInside(sdf, block, dx, [3]int{0, 0, 0}, cells)
}

// centerRegion returns the AABB spanned by the cell centers of the index
// range [lo, hi).
func centerRegion(block blockforest.AABB, dx [3]float64, lo, hi [3]int) blockforest.AABB {
	var b blockforest.AABB
	for d := 0; d < 3; d++ {
		b.Min[d] = block.Min[d] + (float64(lo[d])+0.5)*dx[d]
		b.Max[d] = block.Min[d] + (float64(hi[d]-1)+0.5)*dx[d]
	}
	return b
}

func anyCellInside(sdf distance.SDF, block blockforest.AABB, dx [3]float64, lo, hi [3]int) bool {
	nx, ny, nz := hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2]
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return false
	}
	region := centerRegion(block, dx, lo, hi)
	switch ClassifyAABB(sdf, region) {
	case RegionOutside:
		return false
	case RegionInside:
		return true
	}
	if nx == 1 && ny == 1 && nz == 1 {
		return sdf.Inside(region.Center())
	}
	// Split the longest axis.
	axis := 0
	if ny > nx {
		axis = 1
	}
	if nz > max(nx, ny) {
		axis = 2
	}
	mid := (lo[axis] + hi[axis]) / 2
	hiA, loB := hi, lo
	hiA[axis] = mid
	loB[axis] = mid
	return anyCellInside(sdf, block, dx, lo, hiA) || anyCellInside(sdf, block, dx, loB, hi)
}

// Voxelize marks the cells of a block's flag field as Fluid or Outside by
// testing cell centers against the SDF — including the ghost ring, whose
// classification the dilation pass and the distributed boundary setup
// need. The same octree-style recursion as the intersection test bulk-
// fills uniform regions.
func Voxelize(sdf distance.SDF, block blockforest.AABB, flags *field.FlagField) {
	g := flags.Ghost
	dx := [3]float64{
		(block.Max[0] - block.Min[0]) / float64(flags.Nx),
		(block.Max[1] - block.Min[1]) / float64(flags.Ny),
		(block.Max[2] - block.Min[2]) / float64(flags.Nz),
	}
	lo := [3]int{-g, -g, -g}
	hi := [3]int{flags.Nx + g, flags.Ny + g, flags.Nz + g}
	voxelizeRegion(sdf, block, dx, flags, lo, hi)
}

func voxelizeRegion(sdf distance.SDF, block blockforest.AABB, dx [3]float64, flags *field.FlagField, lo, hi [3]int) {
	nx, ny, nz := hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2]
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return
	}
	region := centerRegion(block, dx, lo, hi)
	switch ClassifyAABB(sdf, region) {
	case RegionOutside:
		fillRegion(flags, lo, hi, field.Outside)
		return
	case RegionInside:
		fillRegion(flags, lo, hi, field.Fluid)
		return
	}
	if nx*ny*nz <= 8 {
		for z := lo[2]; z < hi[2]; z++ {
			for y := lo[1]; y < hi[1]; y++ {
				for x := lo[0]; x < hi[0]; x++ {
					p := cellCenter(block, dx, x, y, z)
					if sdf.Inside(p) {
						flags.Set(x, y, z, field.Fluid)
					} else {
						flags.Set(x, y, z, field.Outside)
					}
				}
			}
		}
		return
	}
	axis := 0
	if ny > nx {
		axis = 1
	}
	if nz > max(nx, ny) {
		axis = 2
	}
	mid := (lo[axis] + hi[axis]) / 2
	hiA, loB := hi, lo
	hiA[axis] = mid
	loB[axis] = mid
	voxelizeRegion(sdf, block, dx, flags, lo, hiA)
	voxelizeRegion(sdf, block, dx, flags, loB, hi)
}

func fillRegion(flags *field.FlagField, lo, hi [3]int, c field.CellType) {
	for z := lo[2]; z < hi[2]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			for x := lo[0]; x < hi[0]; x++ {
				flags.Set(x, y, z, c)
			}
		}
	}
}

func cellCenter(block blockforest.AABB, dx [3]float64, x, y, z int) [3]float64 {
	return [3]float64{
		block.Min[0] + (float64(x)+0.5)*dx[0],
		block.Min[1] + (float64(y)+0.5)*dx[1],
		block.Min[2] + (float64(z)+0.5)*dx[2],
	}
}

// BoundaryTypeFromColor maps a surface color to the boundary condition it
// encodes: inflow surfaces impose a velocity, outflow surfaces a pressure,
// everything else is a no-slip wall.
func BoundaryTypeFromColor(c mesh.Color) field.CellType {
	switch c {
	case mesh.ColorInflow:
		return field.VelocityBounce
	case mesh.ColorOutflow:
		return field.PressureBounce
	default:
		return field.NoSlip
	}
}

// DilateBoundary computes the hull of the fluid cells with a morphological
// dilation w.r.t. the stencil: every Outside cell (interior or ghost)
// reachable from a fluid cell along a stencil direction becomes a boundary
// cell whose condition is taken from the color of the closest surface
// triangle. Returns the number of boundary cells created.
//
// The walk starts from the fluid cells, the few of a sparse block. An
// Outside cell p marked from the fluid cell p + c_a asks for the nearest
// color only if a colored triangle's box lies within |c_a·dx| of p
// (see the package comment); otherwise that color is ColorWall.
func DilateBoundary(sdf distance.SDF, block blockforest.AABB, flags *field.FlagField, s *lattice.Stencil) int {
	g := flags.Ghost
	dx := [3]float64{
		(block.Max[0] - block.Min[0]) / float64(flags.Nx),
		(block.Max[1] - block.Min[1]) / float64(flags.Ny),
		(block.Max[2] - block.Min[2]) / float64(flags.Nz),
	}
	lo, hi := [3]int{-g, -g, -g}, [3]int{flags.Nx + g, flags.Ny + g, flags.Nz + g}
	// reach[a] is |c_a·dx| widened by the rounding margins; near keeps the
	// colored boxes within the largest reach of some cell center.
	centers := centerRegion(block, dx, lo, hi)
	var scale float64
	for d := 0; d < 3; d++ {
		scale = max(scale, math.Abs(centers.Min[d]), math.Abs(centers.Max[d]))
	}
	reach := make([]float64, s.Q)
	var far float64
	for a := range reach {
		cx, cy, cz := float64(s.Cx[a])*dx[0], float64(s.Cy[a])*dx[1], float64(s.Cz[a])*dx[2]
		r := math.Sqrt(cx*cx+cy*cy+cz*cz)*(1+reachRelMargin) + reachAbsMargin*scale
		reach[a], far = r*r, max(far, r*r)
	}
	var near []blockforest.AABB
	for _, b := range sdf.ColoredBoxes() {
		if gapSq(centers, b) <= far {
			near = append(near, b)
		}
	}
	created := 0
	for z := lo[2]; z < hi[2]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			for x := lo[0]; x < hi[0]; x++ {
				if flags.Get(x, y, z) != field.Fluid {
					continue
				}
				for a := 0; a < s.Q; a++ {
					px, py, pz := x-s.Cx[a], y-s.Cy[a], z-s.Cz[a]
					if px < lo[0] || px >= hi[0] || py < lo[1] || py >= hi[1] || pz < lo[2] || pz >= hi[2] ||
						flags.Get(px, py, pz) != field.Outside {
						continue
					}
					p := cellCenter(block, dx, px, py, pz)
					color := mesh.ColorWall
					for _, b := range near {
						if gapSq(blockforest.AABB{Min: p, Max: p}, b) <= reach[a] {
							color = sdf.ClosestTriangleColor(p)
							break
						}
					}
					flags.Set(px, py, pz, BoundaryTypeFromColor(color))
					created++
				}
			}
		}
	}
	return created
}

// Margins of the wall-color early-out (see the package comment): relative
// to the reach, and absolute in units of the block's largest coordinate
// magnitude. Each is millions of roundoffs (2^-53).
const (
	reachRelMargin = 1e-9
	reachAbsMargin = 1e-9
)

// gapSq returns the squared distance between two boxes, zero if they
// overlap. It does not decrease when a is shrunk, so a box farther from
// a block's cell-center box than r is farther than r from every center.
func gapSq(a, b blockforest.AABB) float64 {
	var d float64
	for i := 0; i < 3; i++ {
		if v := b.Min[i] - a.Max[i]; v > 0 {
			d += v * v
		} else if v := a.Min[i] - b.Max[i]; v > 0 {
			d += v * v
		}
	}
	return d
}
