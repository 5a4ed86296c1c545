package geometry

import (
	"math"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/distance"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/mesh"
)

func sphereSDF(t *testing.T, center [3]float64, r float64) *distance.Field {
	t.Helper()
	f, err := distance.NewField(mesh.NewSphere(center, r, 3))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func boxSDF(t *testing.T, b blockforest.AABB) *distance.Field {
	t.Helper()
	f, err := distance.NewField(mesh.NewBox(b))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestClassifyAABB(t *testing.T) {
	sdf := sphereSDF(t, [3]float64{0, 0, 0}, 1)
	inside := blockforest.NewAABB([3]float64{-0.1, -0.1, -0.1}, [3]float64{0.1, 0.1, 0.1})
	if ClassifyAABB(sdf, inside) != RegionInside {
		t.Error("small central box not classified inside")
	}
	outside := blockforest.NewAABB([3]float64{2, 2, 2}, [3]float64{2.1, 2.1, 2.1})
	if ClassifyAABB(sdf, outside) != RegionOutside {
		t.Error("far box not classified outside")
	}
	straddle := blockforest.NewAABB([3]float64{0.9, -0.1, -0.1}, [3]float64{1.1, 0.1, 0.1})
	if ClassifyAABB(sdf, straddle) != RegionIntersecting {
		t.Error("straddling box not classified intersecting")
	}
}

func TestBlockIntersectsDomain(t *testing.T) {
	sdf := sphereSDF(t, [3]float64{0.5, 0.5, 0.5}, 0.3)
	cells := [3]int{8, 8, 8}
	cases := []struct {
		b    blockforest.AABB
		want bool
	}{
		{blockforest.NewAABB([3]float64{0.4, 0.4, 0.4}, [3]float64{0.6, 0.6, 0.6}), true},   // inside sphere
		{blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}), true},               // contains sphere
		{blockforest.NewAABB([3]float64{2, 2, 2}, [3]float64{3, 3, 3}), false},              // far away
		{blockforest.NewAABB([3]float64{0.75, 0.4, 0.4}, [3]float64{0.95, 0.6, 0.6}), true}, // clips the side
		{blockforest.NewAABB([3]float64{0.85, 0.85, 0.85}, [3]float64{1, 1, 1}), false},     // near but outside
	}
	for i, tc := range cases {
		if got := BlockIntersectsDomain(sdf, tc.b, cells); got != tc.want {
			t.Errorf("case %d: intersects = %v, want %v", i, got, tc.want)
		}
	}
}

// The recursive voxelization must agree exactly with the brute-force
// cell-by-cell test.
func TestVoxelizeMatchesBruteForce(t *testing.T) {
	sdf := sphereSDF(t, [3]float64{0.5, 0.5, 0.5}, 0.35)
	block := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	const n = 16
	flags := field.NewFlagField(n, n, n, 1)
	Voxelize(sdf, block, flags)
	dx := 1.0 / n
	for z := -1; z < n+1; z++ {
		for y := -1; y < n+1; y++ {
			for x := -1; x < n+1; x++ {
				p := [3]float64{(float64(x) + 0.5) * dx, (float64(y) + 0.5) * dx, (float64(z) + 0.5) * dx}
				want := field.Outside
				if sdf.Inside(p) {
					want = field.Fluid
				}
				if got := flags.Get(x, y, z); got != want {
					t.Fatalf("cell (%d,%d,%d): %v, want %v", x, y, z, got, want)
				}
			}
		}
	}
}

func TestVoxelizeSphereVolume(t *testing.T) {
	sdf := sphereSDF(t, [3]float64{0.5, 0.5, 0.5}, 0.4)
	block := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	const n = 32
	flags := field.NewFlagField(n, n, n, 1)
	Voxelize(sdf, block, flags)
	gotFrac := flags.FluidFraction()
	wantFrac := 4.0 / 3.0 * math.Pi * 0.4 * 0.4 * 0.4
	if math.Abs(gotFrac-wantFrac) > 0.03 {
		t.Errorf("fluid fraction %v, want ~%v", gotFrac, wantFrac)
	}
}

func TestDilateBoundary(t *testing.T) {
	sdf := sphereSDF(t, [3]float64{0.5, 0.5, 0.5}, 0.3)
	block := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	const n = 16
	flags := field.NewFlagField(n, n, n, 1)
	Voxelize(sdf, block, flags)
	created := DilateBoundary(sdf, block, flags, lattice.D3Q19())
	if created == 0 {
		t.Fatal("no boundary cells created")
	}
	// Every fluid cell's stencil neighbors are fluid or boundary — the
	// invariant the kernels rely on (no pull from Outside).
	s := lattice.D3Q19()
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if flags.Get(x, y, z) != field.Fluid {
					continue
				}
				for a := 1; a < s.Q; a++ {
					nx, ny, nz := x+s.Cx[a], y+s.Cy[a], z+s.Cz[a]
					ct := flags.Get(nx, ny, nz)
					if ct != field.Fluid && !ct.IsBoundary() {
						t.Fatalf("fluid cell (%d,%d,%d) has %v neighbor", x, y, z, ct)
					}
				}
			}
		}
	}
	// Every boundary cell is adjacent to at least one fluid cell.
	g := flags.Ghost
	for z := -g; z < n+g; z++ {
		for y := -g; y < n+g; y++ {
			for x := -g; x < n+g; x++ {
				if !flags.Get(x, y, z).IsBoundary() {
					continue
				}
				found := false
				for a := 1; a < s.Q && !found; a++ {
					nx, ny, nz := x+s.Cx[a], y+s.Cy[a], z+s.Cz[a]
					if nx < -g || nx >= n+g || ny < -g || ny >= n+g || nz < -g || nz >= n+g {
						continue
					}
					if flags.Get(nx, ny, nz) == field.Fluid {
						found = true
					}
				}
				if !found {
					t.Fatalf("boundary cell (%d,%d,%d) has no fluid neighbor", x, y, z)
				}
			}
		}
	}
	// An all-wall sphere yields only NoSlip boundary cells.
	for z := -g; z < n+g; z++ {
		for y := -g; y < n+g; y++ {
			for x := -g; x < n+g; x++ {
				if ct := flags.Get(x, y, z); ct.IsBoundary() && ct != field.NoSlip {
					t.Fatalf("unexpected boundary type %v", ct)
				}
			}
		}
	}
}

func TestBoundaryTypesFromColoredTube(t *testing.T) {
	// A tube along z with colored caps: the dilated hull must contain
	// velocity cells near the inlet, pressure cells near the outlet.
	tube, err := distance.NewField(mesh.NewTube(
		[3]float64{0.5, 0.5, 0.1}, [3]float64{0.5, 0.5, 0.9}, 0.2, 16,
		mesh.ColorInflow, mesh.ColorOutflow))
	if err != nil {
		t.Fatal(err)
	}
	block := blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	const n = 24
	flags := field.NewFlagField(n, n, n, 1)
	Voxelize(tube, block, flags)
	DilateBoundary(tube, block, flags, lattice.D3Q19())
	if flags.Count(field.Fluid) == 0 {
		t.Fatal("tube produced no fluid cells")
	}
	counts := map[field.CellType]int{}
	g := flags.Ghost
	for z := -g; z < n+g; z++ {
		for y := -g; y < n+g; y++ {
			for x := -g; x < n+g; x++ {
				ct := flags.Get(x, y, z)
				if ct.IsBoundary() {
					counts[ct]++
				}
			}
		}
	}
	if counts[field.VelocityBounce] == 0 {
		t.Error("no velocity (inflow) boundary cells")
	}
	if counts[field.PressureBounce] == 0 {
		t.Error("no pressure (outflow) boundary cells")
	}
	if counts[field.NoSlip] == 0 {
		t.Error("no wall boundary cells")
	}
	if counts[field.NoSlip] <= counts[field.VelocityBounce] {
		t.Error("wall cells should dominate for a tube")
	}
}

func TestBoundaryTypeFromColor(t *testing.T) {
	if BoundaryTypeFromColor(mesh.ColorInflow) != field.VelocityBounce ||
		BoundaryTypeFromColor(mesh.ColorOutflow) != field.PressureBounce ||
		BoundaryTypeFromColor(mesh.ColorWall) != field.NoSlip ||
		BoundaryTypeFromColor(mesh.Color{R: 7, G: 7, B: 7}) != field.NoSlip {
		t.Error("color mapping wrong")
	}
}

// A sparse geometry must discard most blocks — the premise of the paper's
// block-based approach to vascular geometries.
func TestSparseGeometryDiscardsBlocks(t *testing.T) {
	sdf := sphereSDF(t, [3]float64{0.5, 0.5, 0.5}, 0.15)
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{8, 8, 8}, [3]int{8, 8, 8}, [3]bool{})
	f.Keep(func(b *blockforest.SetupBlock) bool { return BlockIntersectsDomain(sdf, b.AABB, f.CellsPerBlock) })
	if f.NumBlocks() >= 128 {
		t.Errorf("sphere of 1.5/8 radius kept %d of 512 blocks, expected far fewer", f.NumBlocks())
	}
	if f.NumBlocks() == 0 {
		t.Error("all blocks discarded")
	}
}
