package distance

import (
	"math"
	"math/rand"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/mesh"
)

// fuzzScales multiplies every coordinate of a fuzzed geometry and its
// probe points: the margins of the plane test must follow the mesh.
var fuzzScales = [3]float64{1, 1e-6, 1e3}

// fuzzShape is a random primitive: a tube (axis from p0 to p1) most of
// the time, else a box or an icosphere.
type fuzzShape struct {
	m      *mesh.Mesh
	tube   bool
	p0, p1 [3]float64
}

var fuzzColors = [3]mesh.Color{mesh.ColorWall, mesh.ColorInflow, mesh.ColorOutflow}

func randUnit(r *rand.Rand) [3]float64 {
	for {
		v := [3]float64{r.Float64()*2 - 1, r.Float64()*2 - 1, r.Float64()*2 - 1}
		if n := mesh.Norm(v); n > 0.1 && n <= 1 {
			return mesh.Scale(v, 1/n)
		}
	}
}

func randPoint(r *rand.Rand) [3]float64 {
	return [3]float64{r.Float64()*2 - 1, r.Float64()*2 - 1, r.Float64()*2 - 1}
}

func newFuzzShape(r *rand.Rand, segs uint8, scale float64) fuzzShape {
	var s fuzzShape
	switch r.Intn(4) {
	case 0, 1:
		s.tube = true
		s.p0 = randPoint(r)
		s.p1 = mesh.Add(s.p0, mesh.Scale(randUnit(r), 0.2+1.8*r.Float64()))
		s.m = mesh.NewTube(s.p0, s.p1, 0.02+0.48*r.Float64(), 3+int(segs%22),
			fuzzColors[r.Intn(3)], fuzzColors[r.Intn(3)])
	case 2:
		lo := randPoint(r)
		hi := mesh.Add(lo, [3]float64{0.05 + r.Float64(), 0.05 + r.Float64(), 0.05 + r.Float64()})
		s.m = mesh.NewBox(blockforest.NewAABB(lo, hi))
	default:
		s.m = mesh.NewSphere(randPoint(r), 0.05+r.Float64(), r.Intn(3))
	}
	s.m.Transform(scale, [3]float64{})
	s.p0, s.p1 = mesh.Scale(s.p0, scale), mesh.Scale(s.p1, scale)
	return s
}

// probes returns the points where ties and rounding decide the arg-min:
// vertices, edge midpoints, face centroids, for tubes points on the axis
// and on both cap planes, then random points around the shape and points
// far outside.
func (s fuzzShape) probes(r *rand.Rand) [][3]float64 {
	m := s.m
	pts := append([][3]float64(nil), m.Vertices...)
	for t := range m.Triangles {
		a, b, c := m.TriangleVertices(t)
		pts = append(pts,
			mesh.Scale(mesh.Add(a, b), 0.5),
			mesh.Scale(mesh.Add(b, c), 0.5),
			mesh.Scale(mesh.Add(c, a), 0.5),
			mesh.Scale(mesh.Add(mesh.Add(a, b), c), 1.0/3))
	}
	if s.tube {
		ax := mesh.Sub(s.p1, s.p0)
		for _, f := range []float64{-0.5, 0, 0.1, 0.25, 0.5, 0.75, 1, 1.5, r.Float64()} {
			pts = append(pts, mesh.Add(s.p0, mesh.Scale(ax, f)))
		}
		// The first ring of NewTube lies in the cap plane at p0, the second
		// in the one at p1.
		segments := (len(m.Vertices) - 2) / 2
		for i := 0; i < 2*segments; i++ {
			c := s.p0
			if i >= segments {
				c = s.p1
			}
			for _, f := range []float64{0.3, 1, 1.3, 2 * r.Float64()} {
				pts = append(pts, mesh.Add(c, mesh.Scale(mesh.Sub(m.Vertices[i], c), f)))
			}
		}
	}
	b := m.Bounds()
	size := mesh.Norm(b.Size())
	for i := 0; i < 32; i++ {
		var p [3]float64
		for d := 0; d < 3; d++ {
			p[d] = b.Min[d] + (r.Float64()*2-0.5)*(b.Max[d]-b.Min[d])
		}
		pts = append(pts, p)
	}
	for _, f := range []float64{1e3, 1e6} {
		pts = append(pts, mesh.Add(b.Center(), mesh.Scale(randUnit(r), f*size)))
	}
	return pts
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzNearest compares the plane-pruned Octree.Nearest with the unpruned
// walk: the same triangle, the same closest-point and distance bits and
// the same feature at every probe point.
func FuzzNearest(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, uint8(seed*5), uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, segs, scale uint8) {
		r := rand.New(rand.NewSource(seed))
		s := newFuzzShape(r, segs, fuzzScales[scale%3])
		tree := NewOctree(s.m)
		for _, p := range s.probes(r) {
			gt, gq, gd, gf := tree.Nearest(p)
			wt, wq, wd, wf := nearestReference(tree, p)
			if gt != wt || gf != wf || !sameBits(gd, wd) ||
				!sameBits(gq[0], wq[0]) || !sameBits(gq[1], wq[1]) || !sameBits(gq[2], wq[2]) {
				t.Fatalf("Nearest(%v) = (%d, %v, %v, %d), unpruned (%d, %v, %v, %d)",
					p, gt, gq, gd, gf, wt, wq, wd, wf)
			}
		}
	})
}

// recolored returns a copy of m sharing its vertices whose every triangle
// has another color than in m: exact value ties with m, different colors.
func recolored(m *mesh.Mesh) *mesh.Mesh {
	c := *m
	c.TriColors = make([]mesh.Color, len(m.Triangles))
	for t := range c.TriColors {
		for i, col := range fuzzColors {
			if col == m.TriangleColor(t) {
				c.TriColors[t] = fuzzColors[(i+1)%3]
			}
		}
	}
	return &c
}

// FuzzUnionSignedColor compares the nearest-component-first union with
// the index-order scan over unpruned components: the same value bits and
// color, and the same Inside. Recolored copies of earlier components make
// exact ties whose winner shows in the color.
func FuzzUnionSignedColor(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed), uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, scale uint8) {
		r := rand.New(rand.NewSource(seed))
		var shapes []fuzzShape
		for k := 2 + int(n%5); len(shapes) < k; {
			if len(shapes) > 0 && r.Intn(3) == 0 {
				s := shapes[r.Intn(len(shapes))]
				s.m = recolored(s.m)
				shapes = append(shapes, s)
				continue
			}
			shapes = append(shapes, newFuzzShape(r, uint8(r.Intn(256)), fuzzScales[scale%3]))
		}
		r.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
		comps := make([]SDF, len(shapes))
		for i, s := range shapes {
			fld, err := NewField(s.m)
			if err != nil {
				t.Fatal(err)
			}
			comps[i] = fld
		}
		u := NewUnion(comps...)
		ref := referenceSDF(u).(refUnion)
		var pts [][3]float64
		for _, s := range shapes {
			pts = append(pts, s.probes(r)...)
		}
		for _, p := range pts {
			gv, gc := u.signedColor(p)
			wv, wc := ref.signedColor(p)
			if !sameBits(gv, wv) || gc != wc {
				t.Fatalf("union at %v = (%v, %v), index-order scan (%v, %v)", p, gv, gc, wv, wc)
			}
			if g, w := u.Inside(p), ref.Inside(p); g != w {
				t.Fatalf("union Inside(%v) = %v, index-order scan %v", p, g, w)
			}
		}
	})
}
