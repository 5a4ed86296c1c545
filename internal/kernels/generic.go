package kernels

import (
	"fmt"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Generic is the naive, textbook-style stream-pull kernel: it works for an
// arbitrary lattice model (passed as data, mirroring the paper's template
// parameter) and an arbitrary collision operator behind an interface. It
// is the reference implementation every optimized kernel is validated
// against, and the slowest stage in the paper's Figure 3.
type Generic struct {
	Stencil *lattice.Stencil
	Op      collide.Operator
}

// NewGeneric constructs the generic kernel for the given lattice model and
// collision operator.
func NewGeneric(s *lattice.Stencil, op collide.Operator) *Generic {
	return &Generic{Stencil: s, Op: op}
}

// Name implements Kernel.
func (k *Generic) Name() string { return fmt.Sprintf("%s Generic", k.Op.Name()) }

// Layout implements Kernel. The generic kernel iterates cell by cell and
// therefore uses the array-of-structures layout.
func (k *Generic) Layout() field.Layout { return field.AoS }

// Sweep implements Kernel.
func (k *Generic) Sweep(src, dst *field.PDFField, flags *field.FlagField) {
	checkSweep(src, dst, flags, field.AoS)
	s := k.Stencil
	if src.Stencil != s {
		panic("kernels: field stencil does not match kernel stencil")
	}
	f := make([]float64, s.Q)
	for z := 0; z < src.Nz; z++ {
		for y := 0; y < src.Ny; y++ {
			for x := 0; x < src.Nx; x++ {
				if !isFluid(flags, x, y, z) {
					continue
				}
				// Streaming: pull each PDF from the upstream neighbor.
				for a := 0; a < s.Q; a++ {
					f[a] = src.Get(x-s.Cx[a], y-s.Cy[a], z-s.Cz[a], lattice.Direction(a))
				}
				// Collision.
				k.Op.Collide(s, f)
				for a := 0; a < s.Q; a++ {
					dst.Set(x, y, z, lattice.Direction(a), f[a])
				}
			}
		}
	}
}
