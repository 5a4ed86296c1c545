package distance

import (
	"math"

	"walberla/internal/blockforest"
	"walberla/internal/mesh"
)

// Field is the implicit signed distance function phi(p, Gamma) of a
// watertight surface mesh: negative inside, positive outside, zero on the
// surface. Queries are accelerated by the triangle octree; the sign comes
// from the angle-weighted pseudonormal of the closest feature.
type Field struct {
	Mesh *mesh.Mesh

	tree *Octree
	pn   *Pseudonormals
	// colored holds the bounding box of every triangle whose color is
	// not ColorWall; see SDF.ColoredBoxes.
	colored []blockforest.AABB
}

// NewField builds the signed distance field of a mesh. The mesh must be
// watertight with outward-facing normals.
func NewField(m *mesh.Mesh) (*Field, error) {
	pn, err := NewPseudonormals(m)
	if err != nil {
		return nil, err
	}
	f := &Field{Mesh: m, tree: NewOctree(m), pn: pn}
	for t := range m.TriangleCount() {
		if m.TriangleColor(t) != mesh.ColorWall {
			f.colored = append(f.colored, f.tree.triBounds(int32(t)))
		}
	}
	return f, nil
}

// Nearest returns the closest triangle t̂(p) and the closest surface point.
func (f *Field) Nearest(p [3]float64) (tri int, closest [3]float64) {
	t, q, _, _ := f.tree.Nearest(p)
	return t, q
}

// Distance returns the unsigned distance d(p, Gamma).
func (f *Field) Distance(p [3]float64) float64 {
	_, _, d2, _ := f.tree.Nearest(p)
	return math.Sqrt(d2)
}

// Signed returns phi(p, Gamma) = z * d(p, Gamma) with z = -1 inside.
func (f *Field) Signed(p [3]float64) float64 {
	v, _ := f.signedColor(p)
	return v
}

// signedColor returns phi(p) and the boundary color of the nearest
// triangle, both from one nearest-triangle search.
func (f *Field) signedColor(p [3]float64) (float64, mesh.Color) {
	t, q, d2, feat := f.tree.Nearest(p)
	if t < 0 {
		return math.Inf(1), mesh.ColorWall
	}
	d := math.Sqrt(d2)
	if mesh.Dot(mesh.Sub(p, q), f.pn.Normal(t, feat)) < 0 {
		d = -d
	}
	return d, f.Mesh.TriangleColor(t)
}

// Inside reports whether p lies strictly inside the surface, i.e.
// d(p,Gamma)^2 has negative sign — the test used for lattice cell centers.
func (f *Field) Inside(p [3]float64) bool {
	t, q, _, feat := f.tree.Nearest(p)
	if t < 0 {
		return false
	}
	return mesh.Dot(mesh.Sub(p, q), f.pn.Normal(t, feat)) < 0
}

// ClosestTriangleColor returns the color of the closest triangle, used to
// assign boundary conditions to boundary lattice cells from the mesh's
// vertex colors.
func (f *Field) ClosestTriangleColor(p [3]float64) mesh.Color {
	t, _, _, _ := f.tree.Nearest(p)
	if t < 0 {
		return mesh.ColorWall
	}
	return f.Mesh.TriangleColor(t)
}

// Tree exposes the octree for statistics.
func (f *Field) Tree() *Octree { return f.tree }
