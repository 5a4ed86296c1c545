package field

import (
	"testing"

	"walberla/internal/lattice"
)

func TestLayoutStrings(t *testing.T) {
	if AoS.String() != "AoS" || SoA.String() != "SoA" {
		t.Error("layout names wrong")
	}
	if Layout(9).String() != "Layout(9)" {
		t.Errorf("invalid layout string %q", Layout(9).String())
	}
}

func TestConstructorPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	s := lattice.D3Q19()
	mustPanic("zero extent PDF", func() { NewPDFField(s, 0, 4, 4, 1, AoS) })
	mustPanic("negative ghost", func() { NewPDFField(s, 4, 4, 4, -1, AoS) })
	mustPanic("zero extent flags", func() { NewFlagField(4, 0, 4, 1) })
	mustPanic("zero extent scalar", func() { NewScalarField(4, 4, 0) })
	mustPanic("zero extent vector", func() { NewVectorField(0, 1, 1) })
}

func TestStrides(t *testing.T) {
	// A field storing its whole block indexes as a plain array: the row
	// table reproduces the box formula with strides 1, 6 and 6*7.
	s := lattice.D3Q19()
	f := NewPDFField(s, 4, 5, 6, 1, SoA)
	for z := -1; z <= 6; z++ {
		for y := -1; y <= 5; y++ {
			for x := -1; x <= 4; x++ {
				if got, want := f.CellIndex(x, y, z), (z+1)*42+(y+1)*6+x+1; got != want {
					t.Fatalf("CellIndex(%d,%d,%d) = %d, box formula %d", x, y, z, got, want)
				}
			}
		}
	}
	fl := NewFlagField(4, 5, 6, 1)
	fx, fy, fz := fl.Strides()
	if fx != 1 || fy != 6 || fz != 42 {
		t.Errorf("flag strides (%d,%d,%d)", fx, fy, fz)
	}
	if len(fl.Data()) != 6*7*8 {
		t.Errorf("flag data length %d", len(fl.Data()))
	}
}

func TestFlagFill(t *testing.T) {
	f := NewFlagField(3, 3, 3, 1)
	f.Fill(NoSlip)
	for _, v := range f.Data() {
		if v != NoSlip {
			t.Fatal("Fill missed a cell")
		}
	}
}

func TestScalarFieldData(t *testing.T) {
	f := NewScalarField(2, 3, 4)
	if len(f.Data()) != 24 {
		t.Errorf("data length %d", len(f.Data()))
	}
	f.Data()[f.Index(1, 2, 3)] = 5
	if f.Get(1, 2, 3) != 5 {
		t.Error("Data not aliased with Get")
	}
}

func TestGhostZeroField(t *testing.T) {
	// A ghost-free field is legal for pure post-processing containers.
	s := lattice.D2Q9()
	f := NewPDFField(s, 3, 3, 1, 0, AoS)
	if f.AllocatedCells() != 9 {
		t.Errorf("allocated %d, want 9", f.AllocatedCells())
	}
	f.Set(2, 2, 0, lattice.Direction(4), 1.5)
	if f.Get(2, 2, 0, lattice.Direction(4)) != 1.5 {
		t.Error("round trip failed")
	}
}
