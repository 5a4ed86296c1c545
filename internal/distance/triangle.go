// Package distance implements the implicit signed distance function
// phi(p, Gamma) = z * d(p, Gamma) of section 2.3: the distance of a point
// to a triangle surface mesh (point-triangle distance after Jones), with
// the sign computed from angle-weighted pseudonormals (Bærentzen-Aanæs)
// of the closest feature, and an octree over the triangle set
// (Payne-Toga) reducing the number of point-triangle distances evaluated.
//
// Set-up runs hundreds of thousands of queries per block forest, so both
// searches prune more than the octree alone: Octree.Nearest skips a
// triangle whose plane is farther than the best distance found so far
// (with margins above the rounding error), and Union searches the
// component with the nearest box first. Neither changes the answer: the
// walk returns the same first minimiser of the unpruned traversal — same
// triangle, closest point and distance bits, feature, sign and color —
// and the union the value and color of its lowest-index minimiser, as the
// index-order scan does (see Octree.Nearest and Union for the arguments;
// the unpruned searches live on in the tests as the oracle).
package distance

import (
	"walberla/internal/mesh"
)

// Feature classifies the closest feature of a triangle to a query point;
// the sign computation selects the matching pseudonormal.
type Feature int

// Triangle features.
const (
	FeatureFace  Feature = iota
	FeatureEdge0         // edge (v0, v1)
	FeatureEdge1         // edge (v1, v2)
	FeatureEdge2         // edge (v2, v0)
	FeatureVertex0
	FeatureVertex1
	FeatureVertex2
)

// ClosestPointTriangle returns the point of triangle (a, b, c) closest to
// p and the feature it lies on. It is the standard Voronoi-region
// classification: barycentric coordinates decide whether the projection
// falls inside the face or must be clamped to an edge or vertex.
func ClosestPointTriangle(p, a, b, c [3]float64) (closest [3]float64, feat Feature) {
	ab := mesh.Sub(b, a)
	ac := mesh.Sub(c, a)
	ap := mesh.Sub(p, a)

	d1 := mesh.Dot(ab, ap)
	d2 := mesh.Dot(ac, ap)
	if d1 <= 0 && d2 <= 0 {
		return a, FeatureVertex0
	}

	bp := mesh.Sub(p, b)
	d3 := mesh.Dot(ab, bp)
	d4 := mesh.Dot(ac, bp)
	if d3 >= 0 && d4 <= d3 {
		return b, FeatureVertex1
	}

	vc := d1*d4 - d3*d2
	if vc <= 0 && d1 >= 0 && d3 <= 0 {
		v := d1 / (d1 - d3)
		return mesh.Add(a, mesh.Scale(ab, v)), FeatureEdge0
	}

	cp := mesh.Sub(p, c)
	d5 := mesh.Dot(ab, cp)
	d6 := mesh.Dot(ac, cp)
	if d6 >= 0 && d5 <= d6 {
		return c, FeatureVertex2
	}

	vb := d5*d2 - d1*d6
	if vb <= 0 && d2 >= 0 && d6 <= 0 {
		w := d2 / (d2 - d6)
		return mesh.Add(a, mesh.Scale(ac, w)), FeatureEdge2
	}

	va := d3*d6 - d5*d4
	if va <= 0 && (d4-d3) >= 0 && (d5-d6) >= 0 {
		w := (d4 - d3) / ((d4 - d3) + (d5 - d6))
		return mesh.Add(b, mesh.Scale(mesh.Sub(c, b), w)), FeatureEdge1
	}

	denom := 1.0 / (va + vb + vc)
	v := vb * denom
	w := vc * denom
	return mesh.Add(a, mesh.Add(mesh.Scale(ab, v), mesh.Scale(ac, w))), FeatureFace
}

// PointTriangleDistSq returns the squared distance from p to the triangle
// and the closest feature.
func PointTriangleDistSq(p, a, b, c [3]float64) (float64, [3]float64, Feature) {
	q, feat := ClosestPointTriangle(p, a, b, c)
	d := mesh.Sub(p, q)
	return mesh.Dot(d, d), q, feat
}
