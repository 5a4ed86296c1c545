package kernels

import (
	"fmt"

	"walberla/internal/collide"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Choice selects a compute kernel family; the names match the paper's
// Figure 3 series.
type Choice string

// Kernel choices.
const (
	ChoiceGenericSRT Choice = "SRT Generic"
	ChoiceGenericTRT Choice = "TRT Generic"
	ChoiceD3Q19SRT   Choice = "SRT D3Q19"
	ChoiceD3Q19TRT   Choice = "TRT D3Q19"
	ChoiceSplitSRT   Choice = "SRT SIMD"
	ChoiceSplitTRT   Choice = "TRT SIMD"
	ChoiceSparse     Choice = "TRT Interval" // sparse compressed-row kernel
)

// Spec describes a kernel to construct. The zero value of every field is
// a usable default (except Choice, which is required), so adding a new
// kernel parameter extends this struct instead of rippling a positional
// argument through every call site.
type Spec struct {
	// Choice selects the kernel family.
	Choice Choice
	// Stencil is the lattice model; nil means D3Q19, the model of all
	// simulations in the paper. Only the generic kernel choices support
	// other stencils.
	Stencil *lattice.Stencil
	// Tau is the relaxation time (stability requires > 0.5); zero means
	// 0.9.
	Tau float64
	// Magic is the TRT magic parameter; zero means 3/16.
	Magic float64
	// Flags is required by the sparse kernels (which precompute their
	// fluid cell structure from it) and ignored by the dense ones.
	Flags *field.FlagField
	// Window is the allocation window of the PDF fields the kernel will
	// sweep (field.NewPDFFieldWindow); the zero value means the whole
	// ghosted block. Only the sparse kernels, whose precomputed cell
	// indices depend on it, read it.
	Window field.Window
}

// New constructs the compute kernel described by the spec.
func New(spec Spec) (Kernel, error) {
	st := spec.Stencil
	if st == nil {
		st = lattice.D3Q19()
	}
	tau := spec.Tau
	if tau == 0 {
		tau = 0.9
	}
	magic := spec.Magic
	if magic == 0 {
		magic = collide.MagicParameter
	}
	srt := collide.NewSRT(tau)
	trt := collide.NewTRT(tau, magic)
	if st != lattice.D3Q19() &&
		spec.Choice != ChoiceGenericSRT && spec.Choice != ChoiceGenericTRT {
		return nil, fmt.Errorf("kernels: kernel %q supports D3Q19 only", spec.Choice)
	}
	switch spec.Choice {
	case ChoiceGenericSRT:
		return NewGeneric(st, srt), nil
	case ChoiceGenericTRT:
		return NewGeneric(st, trt), nil
	case ChoiceD3Q19SRT:
		return NewD3Q19SRT(srt), nil
	case ChoiceD3Q19TRT:
		return NewD3Q19TRT(trt), nil
	case ChoiceSplitSRT:
		return NewSplitSRT(srt), nil
	case ChoiceSplitTRT:
		return NewSplitTRT(trt), nil
	case ChoiceSparse:
		if spec.Flags == nil {
			return nil, fmt.Errorf("kernels: sparse kernel requires a flag field")
		}
		return NewSparseInterval(trt, spec.Flags, spec.Window), nil
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q", spec.Choice)
}
