package output

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

func randomPDF(t *testing.T, layout field.Layout) *field.PDFField {
	t.Helper()
	s := lattice.D3Q19()
	f := field.NewPDFField(s, 4, 3, 5, 1, layout)
	r := rand.New(rand.NewSource(1))
	for z := -1; z < f.Nz+1; z++ {
		for y := -1; y < f.Ny+1; y++ {
			for x := -1; x < f.Nx+1; x++ {
				for a := 0; a < s.Q; a++ {
					f.Set(x, y, z, lattice.Direction(a), r.Float64())
				}
			}
		}
	}
	return f
}

func TestCheckpointRoundTripExact(t *testing.T) {
	f := randomPDF(t, field.SoA)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := LoadCheckpoint(&buf, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	for z := -1; z < f.Nz+1; z++ {
		for y := -1; y < f.Ny+1; y++ {
			for x := -1; x < f.Nx+1; x++ {
				for a := 0; a < 19; a++ {
					d := lattice.Direction(a)
					if f.Get(x, y, z, d) != g.Get(x, y, z, d) {
						t.Fatalf("value differs at (%d,%d,%d,%d)", x, y, z, a)
					}
				}
			}
		}
	}
}

// A checkpoint loads in the layout it was saved in and restores exactly
// into the other — the format is canonical.
func TestCheckpointCrossLayout(t *testing.T) {
	f := randomPDF(t, field.AoS)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, f); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Layout != field.AoS {
		t.Fatal("stored layout not kept")
	}
	g := field.NewPDFField(lattice.D3Q19(), f.Nx, f.Ny, f.Nz, f.Ghost, field.SoA)
	g.CopyFrom(loaded)
	if f.Get(2, 1, 3, lattice.NE) != g.Get(2, 1, 3, lattice.NE) {
		t.Error("cross-layout restore lost values")
	}
}

func TestCheckpointRejectsWrongStencil(t *testing.T) {
	f := randomPDF(t, field.AoS)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(&buf, lattice.D2Q9()); err == nil {
		t.Error("Q mismatch accepted")
	}
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("XXXX")), lattice.D3Q19()); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestCheckpointTruncation(t *testing.T) {
	f := randomPDF(t, field.AoS)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, f); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadCheckpoint(bytes.NewReader(short), lattice.D3Q19()); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

func TestWriteVTKStructure(t *testing.T) {
	s := lattice.D3Q19()
	f := field.NewPDFField(s, 3, 2, 2, 1, field.AoS)
	f.FillEquilibrium(1.25, 0.1, 0, 0)
	flags := field.NewFlagField(3, 2, 2, 1)
	flags.FillInterior(field.Fluid)
	flags.Set(0, 0, 0, field.NoSlip)
	var buf bytes.Buffer
	if err := WriteVTK(&buf, "test block", f, flags, [3]float64{0.5, 0.5, 0.5}, 0.1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"DIMENSIONS 3 2 2",
		"ORIGIN 0.5 0.5 0.5",
		"SPACING 0.1 0.1 0.1",
		"POINT_DATA 12",
		"SCALARS density double 1",
		"VECTORS velocity double",
		"SCALARS celltype int 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VTK output missing %q", want)
		}
	}
	// The wall cell writes zeros; fluid cells write rho ~= 1.25 (floating
	// point summation may round the last digits).
	if !strings.Contains(out, "1.2") {
		t.Error("density value missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 8 header lines, then SCALARS + LOOKUP_TABLE, then the first cell —
	// the wall at (0,0,0), written as zero.
	if lines[10] != "0" {
		t.Errorf("wall cell density line = %q, want 0", lines[10])
	}
}

func TestWriteVTKShapeMismatch(t *testing.T) {
	s := lattice.D3Q19()
	f := field.NewPDFField(s, 3, 3, 3, 1, field.AoS)
	flags := field.NewFlagField(4, 3, 3, 1)
	if err := WriteVTK(&bytes.Buffer{}, "x", f, flags, [3]float64{}, 1); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestWriteVTKMesh(t *testing.T) {
	verts := [][3]float64{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}
	tris := [][3]int32{{0, 1, 2}}
	var buf bytes.Buffer
	err := WriteVTKMesh(&buf, "tri", verts, tris, func(t int) int { return 7 })
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"POINTS 3 double", "POLYGONS 1 4", "3 0 1 2", "CELL_DATA 1", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("mesh VTK missing %q", want)
		}
	}
}
