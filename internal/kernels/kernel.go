// Package kernels implements the fused stream-collide compute kernels of
// the paper in its three optimization stages:
//
//  1. Generic: a textbook stream-pull kernel parameterized over an
//     arbitrary lattice model and collision operator (the paper's
//     "SRT/TRT Generic").
//  2. D3Q19-specialized: streaming and collision fused with common
//     subexpressions eliminated, hard-coded against the D3Q19 ordering
//     (the paper's "SRT/TRT D3Q19").
//  3. Split: the SIMD kernel — structure-of-arrays layout, each row of
//     cells updated by direction from contiguous per-direction arrays (the
//     paper's "SRT/TRT SIMD", there implemented with SSE/AVX/QPX
//     intrinsics; here with AVX2 assembly, 4 cells per instruction, on
//     CPUs that have it, and with the bit-identical Go row elsewhere —
//     RowISA reports which).
//
// In addition the package provides the three sparse-block strategies of
// section 4.3 for partially fluid-filled blocks: a conditional in the
// inner loop, a fluid-cell list, and per-row fluid intervals (the
// compressed scheme, whose runs go through the split kernel's rows).
//
// All kernels compute one stream-pull time step
//
//	dst(x, a) = Collide(src(x - e_a, a))
//
// over the fluid cells of a block, reading the ghost layer of src and
// leaving non-fluid cells of dst untouched.
package kernels

import (
	"walberla/internal/field"
)

// Kernel performs one fused stream-collide update of a block.
type Kernel interface {
	// Name identifies the kernel in benchmark reports, e.g. "TRT SIMD".
	Name() string
	// Layout returns the PDF field layout the kernel requires.
	Layout() field.Layout
	// Sweep updates all fluid cells of dst from src. A nil flags field
	// means the block is dense: every interior cell is fluid. src and dst
	// must share shape, stencil and the kernel's layout.
	Sweep(src, dst *field.PDFField, flags *field.FlagField)
}

// checkSweep panics when src/dst are unusable for a kernel sweep with the
// given flags: a dense sweep (nil flags) updates every interior cell from
// its whole neighborhood, so it needs fields that store the whole block.
func checkSweep(src, dst *field.PDFField, flags *field.FlagField, layout field.Layout) {
	if src.Layout != layout || dst.Layout != layout {
		panic("kernels: field layout does not match kernel layout")
	}
	if !src.SameShape(dst) {
		panic("kernels: src and dst shapes differ")
	}
	if src.Ghost < 1 {
		panic("kernels: stream-pull requires a ghost layer")
	}
	if flags == nil && !src.Rows().Full() {
		panic("kernels: a dense sweep needs fields that store their whole block")
	}
}

// isFluid reports whether cell (x,y,z) participates in the update.
func isFluid(flags *field.FlagField, x, y, z int) bool {
	return flags == nil || flags.Get(x, y, z) == field.Fluid
}

// srtParams bundles the per-sweep constants of the SRT collision.
type srtParams struct {
	omega float64
}

// trtParams bundles the per-sweep constants of the TRT collision.
type trtParams struct {
	lambdaE, lambdaO float64
}

// FluidCells counts the cells a kernel actually updates, the basis of the
// MFLUPS metric. A nil flags field counts every interior cell.
func FluidCells(nx, ny, nz int, flags *field.FlagField) int {
	if flags == nil {
		return nx * ny * nz
	}
	return flags.Count(field.Fluid)
}
