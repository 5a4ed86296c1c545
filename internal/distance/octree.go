package distance

import (
	"math"

	"walberla/internal/blockforest"
	"walberla/internal/mesh"
)

// Octree spatially subdivides the triangle set of a mesh (Payne and Toga)
// so that nearest-triangle queries prune whole subtrees by comparing the
// current best distance against the distance to a node's bounding box,
// and single triangles against the distance to their plane.
type Octree struct {
	m    *mesh.Mesh
	root *octreeNode
	// planes[t] is the plane of triangle t; see Nearest.
	planes []plane
	// planeAbs is the absolute margin of the plane test: planeAbsMargin
	// times the largest coordinate magnitude of the mesh.
	planeAbs float64
	// stats
	nodes, leaves int
}

type octreeNode struct {
	bounds   blockforest.AABB
	children [8]*octreeNode // nil for leaves
	tris     []int32        // triangle indices at leaves
	leaf     bool
}

// plane is a triangle's unit normal n and offset n·a: |n·p − off| is the
// distance of p to the triangle's plane, a lower bound of its distance to
// the triangle. The zero plane bounds nothing and never prunes.
type plane struct {
	n   [3]float64
	off float64
}

// Build parameters: leaves hold at most maxLeafTris triangles unless depth
// exceeds maxDepth.
const (
	maxLeafTris = 16
	maxDepth    = 12
)

// Margins of the plane test. The computed plane distance and the computed
// point–triangle distance each differ from the exact ones by a few unit
// roundoffs (2^-53) of the coordinates' magnitude — of the mesh's near it,
// of p's far from it, where the distance itself is that large. The margins
// are 2^13 roundoffs of the mesh's largest coordinate magnitude on
// distances and 2^23 roundoffs on squared distances: thousands of times
// the error either way.
const (
	planeAbsMargin = 0x1p-40
	planeRelMargin = 0x1p-30
)

// NewOctree builds the triangle octree of a mesh.
func NewOctree(m *mesh.Mesh) *Octree {
	o := &Octree{m: m}
	bounds := m.Bounds()
	var scale float64
	for i := 0; i < 3; i++ {
		scale = math.Max(scale, math.Max(math.Abs(bounds.Min[i]), math.Abs(bounds.Max[i])))
	}
	o.planeAbs = planeAbsMargin * scale
	o.planes = make([]plane, m.TriangleCount())
	for t := range o.planes {
		o.planes[t] = o.trianglePlane(t)
	}
	// Expand slightly so every triangle is strictly interior (guards
	// against degenerate flat domains).
	eps := 1e-9 + 1e-9*mesh.Norm(mesh.Sub(bounds.Max, bounds.Min))
	for i := 0; i < 3; i++ {
		bounds.Min[i] -= eps
		bounds.Max[i] += eps
	}
	all := make([]int32, m.TriangleCount())
	for i := range all {
		all[i] = int32(i)
	}
	o.root = o.build(bounds, all, 0)
	return o
}

// trianglePlane returns the plane of triangle t, or the zero plane when
// the triangle is degenerate: no normal, or a computed normal (a sliver's
// may be far off) that does not hold all three corners within half the
// absolute margin.
func (o *Octree) trianglePlane(t int) plane {
	a, b, c := o.m.TriangleVertices(t)
	n := o.m.UnitNormal(t)
	pl := plane{n: n, off: mesh.Dot(n, a)}
	for _, v := range [2][3]float64{b, c} {
		if !(math.Abs(mesh.Dot(n, v)-pl.off) <= o.planeAbs/2) {
			return plane{}
		}
	}
	return pl
}

// triBounds returns the bounding box of triangle t.
func (o *Octree) triBounds(t int32) blockforest.AABB {
	a, b, c := o.m.TriangleVertices(int(t))
	bb := blockforest.AABB{Min: a, Max: a}
	for _, v := range [][3]float64{b, c} {
		for i := 0; i < 3; i++ {
			if v[i] < bb.Min[i] {
				bb.Min[i] = v[i]
			}
			if v[i] > bb.Max[i] {
				bb.Max[i] = v[i]
			}
		}
	}
	return bb
}

func (o *Octree) build(bounds blockforest.AABB, tris []int32, depth int) *octreeNode {
	n := &octreeNode{bounds: bounds}
	o.nodes++
	if len(tris) <= maxLeafTris || depth >= maxDepth {
		n.tris = tris
		n.leaf = true
		o.leaves++
		return n
	}
	buckets := make([][]int32, 8)
	kept := tris[:0:0]
	for _, t := range tris {
		tb := o.triBounds(t)
		placed := false
		for i := 0; i < 8; i++ {
			oct := bounds.Octant(i)
			if containsBox(oct, tb) {
				buckets[i] = append(buckets[i], t)
				placed = true
				break
			}
		}
		if !placed {
			// Straddles octant boundaries: keep at this node.
			kept = append(kept, t)
		}
	}
	n.tris = kept
	subdivided := false
	for i := 0; i < 8; i++ {
		if len(buckets[i]) > 0 {
			n.children[i] = o.build(bounds.Octant(i), buckets[i], depth+1)
			subdivided = true
		}
	}
	if !subdivided {
		n.leaf = true
		o.leaves++
	}
	return n
}

func containsBox(outer, inner blockforest.AABB) bool {
	for i := 0; i < 3; i++ {
		if inner.Min[i] < outer.Min[i] || inner.Max[i] > outer.Max[i] {
			return false
		}
	}
	return true
}

// distSqToBox returns the squared distance from p to the box (zero if p is
// inside).
func distSqToBox(p [3]float64, b blockforest.AABB) float64 {
	var d float64
	for i := 0; i < 3; i++ {
		if p[i] < b.Min[i] {
			v := b.Min[i] - p[i]
			d += v * v
		} else if p[i] > b.Max[i] {
			v := p[i] - b.Max[i]
			d += v * v
		}
	}
	return d
}

// Nearest returns the triangle of the mesh closest to p, the closest point
// on it, the squared distance and the closest feature — the arg-min
// triangle t̂(p) of equation (11).
//
// The walk visits children nearest-box-first, skips a node whose box is
// not nearer than the best squared distance found so far, and takes a
// triangle only if it is strictly nearer; the result is the first
// minimiser in that traversal order. Before its exact test a triangle is
// skipped when its plane is farther away, with margins:
//
//	(|n·p − n·a| − planeAbs)² > best·(1 + planeRelMargin).
//
// The plane distance lower-bounds the distance to the triangle, and the
// margins exceed the rounding error of both computed distances, so a
// skipped triangle's computed squared distance is not below best: it could
// never have passed the strict d < best. The boxes, the child order and
// the in-node triangle order are those of the unpruned walk, so the result
// is the same first minimiser — the same triangle, the same closest and
// distSq bits and the same feature, hence the same pseudonormal sign and
// color.
func (o *Octree) Nearest(p [3]float64) (tri int, closest [3]float64, distSq float64, feat Feature) {
	best := math.Inf(1)
	var bestTri int = -1
	var bestPt [3]float64
	var bestFeat Feature
	var walk func(n *octreeNode)
	walk = func(n *octreeNode) {
		if n == nil || distSqToBox(p, n.bounds) >= best {
			return
		}
		for _, t := range n.tris {
			pl := &o.planes[t]
			h := math.Abs(pl.n[0]*p[0]+pl.n[1]*p[1]+pl.n[2]*p[2]-pl.off) - o.planeAbs
			if h > 0 && h*h > best*(1+planeRelMargin) {
				continue
			}
			a, b, c := o.m.TriangleVertices(int(t))
			d, q, f := PointTriangleDistSq(p, a, b, c)
			if d < best {
				best, bestTri, bestPt, bestFeat = d, int(t), q, f
			}
		}
		if n.leaf {
			return
		}
		// Visit children nearest-first for effective pruning.
		type cand struct {
			i int
			d float64
		}
		var order [8]cand
		cnt := 0
		for i := 0; i < 8; i++ {
			if n.children[i] != nil {
				order[cnt] = cand{i, distSqToBox(p, n.children[i].bounds)}
				cnt++
			}
		}
		for i := 1; i < cnt; i++ { // insertion sort on <= 8 entries
			for j := i; j > 0 && order[j].d < order[j-1].d; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for i := 0; i < cnt; i++ {
			walk(n.children[order[i].i])
		}
	}
	walk(o.root)
	return bestTri, bestPt, best, bestFeat
}

// Stats returns the node and leaf counts of the tree.
func (o *Octree) Stats() (nodes, leaves int) { return o.nodes, o.leaves }
