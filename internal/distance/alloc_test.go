package distance

import (
	"testing"

	"walberla/internal/mesh"
)

// TestQueriesAllocateNothing: set-up runs hundreds of thousands of queries
// per block forest, none of which may touch the heap.
func TestQueriesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	a := mustField(t, mesh.NewTube([3]float64{0, 0, 0}, [3]float64{0, 0, 1}, 0.2, 12, mesh.ColorInflow, mesh.ColorWall))
	b := mustField(t, mesh.NewTube([3]float64{0, 0, 1}, [3]float64{0.5, 0, 1.8}, 0.15, 12, mesh.ColorWall, mesh.ColorOutflow))
	c := mustField(t, mesh.NewSphere([3]float64{0.4, 0.3, 0.2}, 0.3, 2))
	u := NewUnion(a, b, c)
	pts := [][3]float64{{0, 0, 0.5}, {0.19, 0, 0.3}, {0.3, 0, 1.4}, {0.4, 0.3, 0.3}, {2, 2, 2}, {0, 0, -0.01}}
	for _, q := range []struct {
		name string
		sdf  SDF
	}{{"Field", a}, {"Union", u}} {
		for _, op := range []struct {
			name string
			fn   func(p [3]float64)
		}{
			{"Signed", func(p [3]float64) { q.sdf.Signed(p) }},
			{"Inside", func(p [3]float64) { q.sdf.Inside(p) }},
			{"ClosestTriangleColor", func(p [3]float64) { q.sdf.ClosestTriangleColor(p) }},
		} {
			if n := testing.AllocsPerRun(50, func() {
				for _, p := range pts {
					op.fn(p)
				}
			}); n != 0 {
				t.Errorf("%s.%s: %v allocations per run, want 0", q.name, op.name, n)
			}
		}
	}
}
