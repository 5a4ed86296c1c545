package distance

import (
	"math"

	"walberla/internal/blockforest"
	"walberla/internal/mesh"
)

// The unpruned queries: the oracle of the plane-bound and nearest-first
// pruning. nearestReference is Octree.Nearest without the plane test;
// unionReference scans the components in index order.

func nearestReference(o *Octree, p [3]float64) (tri int, closest [3]float64, distSq float64, feat Feature) {
	best := math.Inf(1)
	bestTri := -1
	var bestPt [3]float64
	var bestFeat Feature
	var walk func(n *octreeNode)
	walk = func(n *octreeNode) {
		if n == nil || distSqToBox(p, n.bounds) >= best {
			return
		}
		for _, t := range n.tris {
			a, b, c := o.m.TriangleVertices(int(t))
			d, q, f := PointTriangleDistSq(p, a, b, c)
			if d < best {
				best, bestTri, bestPt, bestFeat = d, int(t), q, f
			}
		}
		if n.leaf {
			return
		}
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
		for i := 1; i < cnt; i++ {
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

// refField answers every query of a Field through nearestReference.
type refField struct{ f *Field }

func (r refField) signedColor(p [3]float64) (float64, mesh.Color) {
	t, q, d2, feat := nearestReference(r.f.tree, p)
	if t < 0 {
		return math.Inf(1), mesh.ColorWall
	}
	d := math.Sqrt(d2)
	if mesh.Dot(mesh.Sub(p, q), r.f.pn.Normal(t, feat)) < 0 {
		d = -d
	}
	return d, r.f.Mesh.TriangleColor(t)
}

func (r refField) Signed(p [3]float64) float64 {
	v, _ := r.signedColor(p)
	return v
}

func (r refField) Inside(p [3]float64) bool {
	t, q, _, feat := nearestReference(r.f.tree, p)
	if t < 0 {
		return false
	}
	return mesh.Dot(mesh.Sub(p, q), r.f.pn.Normal(t, feat)) < 0
}

func (r refField) ClosestTriangleColor(p [3]float64) mesh.Color {
	t, _, _, _ := nearestReference(r.f.tree, p)
	if t < 0 {
		return mesh.ColorWall
	}
	return r.f.Mesh.TriangleColor(t)
}

func (r refField) Bounds() blockforest.AABB { return r.f.Bounds() }

func (r refField) ColoredBoxes() []blockforest.AABB { return r.f.ColoredBoxes() }

// refUnion answers a Union's queries by the index-order scan over
// reference components.
type refUnion struct{ u *Union }

func (r refUnion) signedColor(p [3]float64) (float64, mesh.Color) {
	u := r.u
	best := math.Inf(1)
	arg := -1
	color, known := mesh.ColorWall, true
	for i, c := range u.components {
		if arg >= 0 && best < 0 {
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

func (r refUnion) Signed(p [3]float64) float64 {
	v, _ := r.signedColor(p)
	return v
}

func (r refUnion) Inside(p [3]float64) bool {
	for i, c := range r.u.components {
		if !r.u.boxes[i].Contains(p) {
			continue
		}
		if c.Inside(p) {
			return true
		}
	}
	return false
}

func (r refUnion) ClosestTriangleColor(p [3]float64) mesh.Color {
	_, color := r.signedColor(p)
	return color
}

func (r refUnion) Bounds() blockforest.AABB { return r.u.Bounds() }

func (r refUnion) ColoredBoxes() []blockforest.AABB { return r.u.ColoredBoxes() }

// referenceSDF returns s with every query answered by the unpruned
// searches; Fields and Unions (of Fields and Unions) are rewritten, any
// other SDF is returned as it is.
func referenceSDF(s SDF) SDF {
	switch s := s.(type) {
	case *Field:
		return refField{s}
	case *Union:
		comps := make([]SDF, len(s.components))
		for i, c := range s.components {
			comps[i] = referenceSDF(c)
		}
		return refUnion{NewUnion(comps...)}
	}
	return s
}
