package geometry

import (
	"math"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/distance"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/mesh"
	"walberla/internal/vascular"
)

// dilateByScan is the dilation without the fluid-driven walk and the
// wall-color early-out: every Outside cell scans its stencil neighbors
// and, next to a fluid cell, searches the nearest color. It is the oracle
// of the hull tests.
func dilateByScan(sdf distance.SDF, block blockforest.AABB, flags *field.FlagField, s *lattice.Stencil) int {
	g := flags.Ghost
	dx := [3]float64{
		(block.Max[0] - block.Min[0]) / float64(flags.Nx),
		(block.Max[1] - block.Min[1]) / float64(flags.Ny),
		(block.Max[2] - block.Min[2]) / float64(flags.Nz),
	}
	created := 0
	for z := -g; z < flags.Nz+g; z++ {
		for y := -g; y < flags.Ny+g; y++ {
			for x := -g; x < flags.Nx+g; x++ {
				if flags.Get(x, y, z) != field.Outside {
					continue
				}
				adjacent := false
				for a := 0; a < s.Q && !adjacent; a++ {
					cx, cy, cz := s.Cx[a], s.Cy[a], s.Cz[a]
					if cx == 0 && cy == 0 && cz == 0 {
						continue
					}
					nx, ny, nz := x+cx, y+cy, z+cz
					if nx < -g || nx >= flags.Nx+g || ny < -g || ny >= flags.Ny+g || nz < -g || nz >= flags.Nz+g {
						continue
					}
					if flags.Get(nx, ny, nz) == field.Fluid {
						adjacent = true
					}
				}
				if !adjacent {
					continue
				}
				color := sdf.ClosestTriangleColor(cellCenter(block, dx, x, y, z))
				flags.Set(x, y, z, BoundaryTypeFromColor(color))
				created++
			}
		}
	}
	return created
}

// compareHull voxelizes a block and dilates it with DilateBoundary and
// with the oracle; the flags must be bit-identical and the created counts
// equal. It returns the number of inflow and outflow hull cells.
func compareHull(t testing.TB, sdf distance.SDF, block blockforest.AABB, cells [3]int) (colored int) {
	t.Helper()
	s := lattice.D3Q19()
	want := field.NewFlagField(cells[0], cells[1], cells[2], 1)
	Voxelize(sdf, block, want)
	got := field.NewFlagField(cells[0], cells[1], cells[2], 1)
	copy(got.Data(), want.Data())
	nWant := dilateByScan(sdf, block, want, s)
	nGot := DilateBoundary(sdf, block, got, s)
	if nGot != nWant {
		t.Errorf("block %v: created %d, the scan %d", block, nGot, nWant)
	}
	for i, c := range want.Data() {
		if got.Data()[i] != c {
			t.Fatalf("block %v: flag %d is %v, the scan's %v", block, i, got.Data()[i], c)
		}
		if c == field.VelocityBounce || c == field.PressureBounce {
			colored++
		}
	}
	return colored
}

// treeGrid returns the synthetic tree's SDF and the boxes of the block
// grid covering it at spacing dx, laid out as setup.GridForDx lays them.
func treeGrid(t testing.TB, depth int, dx float64, cells [3]int) (*distance.Union, []blockforest.AABB) {
	t.Helper()
	params := vascular.DefaultParams()
	params.Depth = depth
	sdf, err := vascular.Generate(params).SDF()
	if err != nil {
		t.Fatal(err)
	}
	bounds := sdf.Bounds()
	var grid [3]int
	var origin, edge [3]float64
	for d := 0; d < 3; d++ {
		edge[d] = float64(cells[d]) * dx
		size := bounds.Max[d] - bounds.Min[d]
		grid[d] = max(1, int(math.Ceil(size/edge[d]-1e-12)))
		origin[d] = bounds.Min[d] - (float64(grid[d])*edge[d]-size)/2
	}
	var blocks []blockforest.AABB
	for k := 0; k < grid[2]; k++ {
		for j := 0; j < grid[1]; j++ {
			for i := 0; i < grid[0]; i++ {
				lo := [3]float64{origin[0] + float64(i)*edge[0], origin[1] + float64(j)*edge[1], origin[2] + float64(k)*edge[2]}
				blocks = append(blocks, blockforest.NewAABB(lo, [3]float64{lo[0] + edge[0], lo[1] + edge[1], lo[2] + edge[2]}))
			}
		}
	}
	return sdf, blocks
}

func tubeField(t testing.TB, p0, p1 [3]float64, r float64, c0, c1 mesh.Color) *distance.Field {
	t.Helper()
	f, err := distance.NewField(mesh.NewTube(p0, p1, r, 12, c0, c1))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDilateBoundaryMatchesScan holds the fluid-driven dilation with the
// wall-color early-out to the scan that searches at every hull cell.
func TestDilateBoundaryMatchesScan(t *testing.T) {
	cells := [3]int{16, 16, 16}
	t.Run("smoke tree", func(t *testing.T) {
		sdf, blocks := treeGrid(t, 2, 0.05, cells)
		colored := 0
		for _, b := range blocks {
			colored += compareHull(t, sdf, b, cells)
		}
		if colored == 0 {
			t.Error("no inflow or outflow hull cell")
		}
	})
	t.Run("blocks cut by caps", func(t *testing.T) {
		// The benchmark's tree: every block a colored triangle touches.
		sdf, blocks := treeGrid(t, 4, 0.009, cells)
		cut, colored := 0, 0
		for _, b := range blocks {
			for _, c := range sdf.ColoredBoxes() {
				if b.Intersects(c) {
					cut++
					colored += compareHull(t, sdf, b, cells)
					break
				}
			}
		}
		if cut < 17 || colored == 0 {
			t.Errorf("%d blocks cut by caps with %d colored hull cells; the tree has 17 colored caps", cut, colored)
		}
	})
	t.Run("tie", func(t *testing.T) {
		// An outflow cap one float above the cell center q below it: q is
		// fluid, and the hull cell p one step above q is nearest to the
		// cap, at a computed distance past the step |c·dx| itself. The
		// tube is thinner than a cell, so q is p's only fluid neighbor.
		// Only the margins keep p's search; without them p turns to wall.
		block := blockforest.NewAABB([3]float64{0, 0, 0.7}, [3]float64{1, 1, 3.3})
		dx := [3]float64{1.0 / 16, 1.0 / 16, (block.Max[2] - block.Min[2]) / 16}
		q, p := cellCenter(block, dx, 8, 8, 9), cellCenter(block, dx, 8, 8, 10)
		top := [3]float64{q[0], q[1], math.Nextafter(q[2], math.Inf(1))}
		if v := p[2] - top[2]; !(v*v > dx[2]*dx[2]) {
			t.Fatalf("cap %v is not past the step from %v", top, p)
		}
		tube := tubeField(t, [3]float64{q[0], q[1], q[2] - 5*dx[2]}, top, 0.6*dx[0], mesh.ColorInflow, mesh.ColorOutflow)
		if !tube.Inside(q) || tube.ClosestTriangleColor(p) != mesh.ColorOutflow {
			t.Fatalf("q inside: %v, p's color: %v; want fluid below the cap and p nearest to it", tube.Inside(q), tube.ClosestTriangleColor(p))
		}
		if compareHull(t, tube, block, cells) == 0 {
			t.Error("no inflow or outflow hull cell")
		}
	})
	t.Run("anisotropic", func(t *testing.T) {
		tube := tubeField(t, [3]float64{0.2, 0.3, 0.15}, [3]float64{0.75, 0.9, 0.7}, 0.13, mesh.ColorInflow, mesh.ColorOutflow)
		block := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1.2, 0.9})
		if compareHull(t, tube, block, [3]int{10, 14, 18}) == 0 {
			t.Error("no inflow or outflow hull cell")
		}
	})
}

// addTubeSeeds adds the seed inputs of the random-tube fuzzers.
func addTubeSeeds(f *testing.F) {
	f.Add(0.2, 0.3, 0.15, 0.75, 0.9, 0.7, 0.13, uint8(1), uint8(2), 0.0, 0.0, 0.0, 1.0, 1.2, 0.9, uint8(10), uint8(14), uint8(18))
	f.Add(0.5, 0.5, -0.2, 0.5, 0.5, 0.55, 0.2, uint8(2), uint8(1), 0.1, 0.2, 0.05, 0.8, 0.9, 0.7, uint8(8), uint8(8), uint8(8))
	f.Add(-0.3, 0.1, 0.4, 1.4, 0.6, 0.5, 0.08, uint8(0), uint8(2), -0.1, 0.0, 0.1, 1.1, 0.9, 0.6, uint8(12), uint8(9), uint8(6))
}

// randomTube makes the fuzzers' input: a tube from (x0, y0, z0) to
// (x1, y1, z1) of radius r with cap colors c0 and c1, and a block at
// (bx, by, bz) of size (sx, sy, sz) with 2 + n%16 cells per axis. It skips
// inputs out of range.
func randomTube(t *testing.T, x0, y0, z0, x1, y1, z1, r float64, c0, c1 uint8,
	bx, by, bz, sx, sy, sz float64, nx, ny, nz uint8) (distance.SDF, blockforest.AABB, [3]int) {
	t.Helper()
	p0, p1 := [3]float64{x0, y0, z0}, [3]float64{x1, y1, z1}
	size := [3]float64{sx, sy, sz}
	for _, v := range []float64{x0, y0, z0, x1, y1, z1, bx, by, bz} {
		if !(math.Abs(v) <= 4) {
			t.Skip()
		}
	}
	for _, v := range size {
		if !(v >= 0.05 && v <= 4) {
			t.Skip()
		}
	}
	if !(r >= 0.01 && r <= 2) || mesh.Norm(mesh.Sub(p1, p0)) < 0.05 {
		t.Skip()
	}
	colors := []mesh.Color{mesh.ColorWall, mesh.ColorInflow, mesh.ColorOutflow}
	tube, err := distance.NewField(mesh.NewTube(p0, p1, r, 12, colors[int(c0)%3], colors[int(c1)%3]))
	if err != nil {
		t.Skip()
	}
	block := blockforest.NewAABB([3]float64{bx, by, bz}, [3]float64{bx + sx, by + sy, bz + sz})
	return tube, block, [3]int{int(nx%16) + 2, int(ny%16) + 2, int(nz%16) + 2}
}

// FuzzDilateBoundary holds DilateBoundary to the scan on a random tube
// with random cap colors, in a randomly placed block of random spacing.
func FuzzDilateBoundary(f *testing.F) {
	addTubeSeeds(f)
	f.Fuzz(func(t *testing.T, x0, y0, z0, x1, y1, z1, r float64, c0, c1 uint8,
		bx, by, bz, sx, sy, sz float64, nx, ny, nz uint8) {
		tube, block, cells := randomTube(t, x0, y0, z0, x1, y1, z1, r, c0, c1, bx, by, bz, sx, sy, sz, nx, ny, nz)
		compareHull(t, tube, block, cells)
	})
}

// FuzzVoxelCount: the fluid cells of a ghosted Voxelize's interior — the
// forest build's workload of a block — are the cell centers inside the
// domain, counted one query per cell, on a random tube in a randomly
// placed block of random spacing.
func FuzzVoxelCount(f *testing.F) {
	addTubeSeeds(f)
	f.Fuzz(func(t *testing.T, x0, y0, z0, x1, y1, z1, r float64, c0, c1 uint8,
		bx, by, bz, sx, sy, sz float64, nx, ny, nz uint8) {
		tube, block, cells := randomTube(t, x0, y0, z0, x1, y1, z1, r, c0, c1, bx, by, bz, sx, sy, sz, nx, ny, nz)
		flags := field.NewFlagField(cells[0], cells[1], cells[2], 1)
		Voxelize(tube, block, flags)
		dx := [3]float64{
			(block.Max[0] - block.Min[0]) / float64(cells[0]),
			(block.Max[1] - block.Min[1]) / float64(cells[1]),
			(block.Max[2] - block.Min[2]) / float64(cells[2]),
		}
		want := 0
		for z := 0; z < cells[2]; z++ {
			for y := 0; y < cells[1]; y++ {
				for x := 0; x < cells[0]; x++ {
					if tube.Inside(cellCenter(block, dx, x, y, z)) {
						want++
					}
				}
			}
		}
		if got := flags.Count(field.Fluid); got != want {
			t.Errorf("Voxelize counts %d fluid cells, %d cell centers are inside", got, want)
		}
	})
}
