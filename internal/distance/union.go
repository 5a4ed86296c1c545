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
}

// Bounds implements SDF for Field.
func (f *Field) Bounds() blockforest.AABB { return f.Mesh.Bounds() }

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
type Union struct {
	components []SDF
	boxes      []blockforest.AABB
	bounds     blockforest.AABB
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
// nearest to p in the minimizing component.
func (u *Union) signedColor(p [3]float64) (float64, mesh.Color) {
	best := math.Inf(1)
	arg := -1
	color, known := mesh.ColorWall, true
	for i, c := range u.components {
		// A component cannot beat the current best if even its bounding
		// box is farther away (box distance lower-bounds |phi_i| outside).
		if arg >= 0 && best < 0 {
			// Already inside some component; a component can only deepen
			// the minimum if p is inside it, i.e. p must be in its box.
			if !u.boxes[i].Contains(p) {
				continue
			}
		} else if arg >= 0 {
			if d := math.Sqrt(distSqToBox(p, u.boxes[i])); d >= best {
				continue
			}
		}
		var v float64
		var col mesh.Color
		cc, ok := c.(colored)
		if ok {
			v, col = cc.signedColor(p)
		} else {
			v = c.Signed(p)
		}
		if v < best {
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
