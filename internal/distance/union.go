package distance

import (
	"math"

	"walberla/internal/blockforest"
	"walberla/internal/mesh"
)

// SDF is an implicit signed distance description of a domain: negative
// inside the fluid, positive outside. Field implements it for a single
// watertight mesh; Union combines several.
type SDF interface {
	// Signed returns phi(p).
	Signed(p [3]float64) float64
	// Inside reports phi(p) < 0.
	Inside(p [3]float64) bool
	// ClosestTriangleColor returns the boundary color of the nearest
	// surface element, used for boundary condition assignment.
	ClosestTriangleColor(p [3]float64) mesh.Color
	// Bounds returns an axis-aligned bounding box of the domain.
	Bounds() blockforest.AABB
	// ColoredBoxes returns the bounding boxes of the surface triangles
	// whose color is not ColorWall. ClosestTriangleColor(p) is the color
	// of a triangle |phi(p)| away from p, so it is ColorWall unless one of
	// these boxes lies within |phi(p)| of p.
	ColoredBoxes() []blockforest.AABB
}

// Bounds implements SDF for Field.
func (f *Field) Bounds() blockforest.AABB { return f.Mesh.Bounds() }

// ColoredBoxes implements SDF for Field.
func (f *Field) ColoredBoxes() []blockforest.AABB { return f.colored }

var _ SDF = (*Field)(nil)
var _ SDF = (*Union)(nil)

// Union is the implicit union of component domains:
//
//	phi_union(p) = min_i phi_i(p).
//
// The sign (the quantity the voxelization needs) is exact; the magnitude
// is a lower bound inside overlap regions. Component bounding boxes prune
// evaluations: a component whose box is farther away than the current best
// distance cannot improve the minimum.
//
// Signed and ClosestTriangleColor return the value and color of the
// lowest-index minimiser. The search starts at the component whose box is
// nearest to p, which usually holds the minimiser, so that its value
// prunes most of the others; the rest follow in index order. While best ≥ 0
// a component is skipped if its box distance exceeds best, or equals it
// and its index is above the current minimiser's: outside its box phi_i is
// at least the box distance, so it could neither beat nor tie-break the
// minimiser. Once best < 0 only components whose box contains p can go
// deeper. A value replaces the minimiser if it is smaller, or equal at a
// lower index. So no skipped component is the lowest-index minimiser, and
// the result is that minimiser whatever the visiting order — what the
// index-order scan returns.
type Union struct {
	components []SDF
	boxes      []blockforest.AABB
	bounds     blockforest.AABB
	colored    []blockforest.AABB
}

// NewUnion combines the given domains; at least one is required.
func NewUnion(components ...SDF) *Union {
	if len(components) == 0 {
		panic("distance: empty union")
	}
	u := &Union{components: components}
	u.boxes = make([]blockforest.AABB, len(components))
	for i, c := range components {
		u.boxes[i] = c.Bounds()
		u.colored = append(u.colored, c.ColoredBoxes()...)
	}
	u.bounds = u.boxes[0]
	for _, b := range u.boxes[1:] {
		for d := 0; d < 3; d++ {
			u.bounds.Min[d] = math.Min(u.bounds.Min[d], b.Min[d])
			u.bounds.Max[d] = math.Max(u.bounds.Max[d], b.Max[d])
		}
	}
	return u
}

// Bounds implements SDF.
func (u *Union) Bounds() blockforest.AABB { return u.bounds }

// ColoredBoxes implements SDF: those of every component.
func (u *Union) ColoredBoxes() []blockforest.AABB { return u.colored }

// Signed implements SDF.
func (u *Union) Signed(p [3]float64) float64 {
	v, _ := u.signedColor(p)
	return v
}

// colored is an SDF that reports phi(p) together with the boundary color
// of the nearest surface element, from the one search phi(p) takes anyway.
type colored interface {
	signedColor(p [3]float64) (float64, mesh.Color)
}

// signedColor returns the union value and the color of the surface element
// nearest to p in the minimizing component; see Union for the order.
func (u *Union) signedColor(p [3]float64) (float64, mesh.Color) {
	first, firstDist := 0, distSqToBox(p, u.boxes[0])
	for i := 1; i < len(u.boxes); i++ {
		if d := distSqToBox(p, u.boxes[i]); d < firstDist {
			first, firstDist = i, d
		}
	}
	best := math.Inf(1)
	arg := -1
	color, known := mesh.ColorWall, true
	// k = -1 visits the nearest component, then k runs over the others.
	for k := -1; k < len(u.components); k++ {
		i := k
		if k < 0 {
			i = first
		} else if k == first {
			continue
		}
		if arg >= 0 && best < 0 {
			// Already inside some component; a component can only deepen
			// the minimum if p is inside it, i.e. p must be in its box.
			if !u.boxes[i].Contains(p) {
				continue
			}
		} else if arg >= 0 {
			if d := math.Sqrt(distSqToBox(p, u.boxes[i])); d > best || d == best && i > arg {
				continue
			}
		}
		var v float64
		var col mesh.Color
		cc, ok := u.components[i].(colored)
		if ok {
			v, col = cc.signedColor(p)
		} else {
			v = u.components[i].Signed(p)
		}
		if v < best || v == best && i < arg {
			best, arg, color, known = v, i, col, ok
		}
	}
	if !known {
		color = u.components[arg].ClosestTriangleColor(p)
	}
	return best, color
}

// Inside implements SDF.
func (u *Union) Inside(p [3]float64) bool {
	for i, c := range u.components {
		if !u.boxes[i].Contains(p) {
			continue
		}
		if c.Inside(p) {
			return true
		}
	}
	return false
}

// ClosestTriangleColor implements SDF: the color comes from the component
// realizing the union minimum, found by the search that evaluated it.
func (u *Union) ClosestTriangleColor(p [3]float64) mesh.Color {
	_, color := u.signedColor(p)
	return color
}
