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
	// Rows are the allocation rows of the PDF fields the kernel will sweep
	// (field.NewPDFFieldRows); the D3Q19 kernels precompute their per-row
	// pull offsets, and the sparse ones their cell indices, from them. nil
	// means whole blocks: such a kernel sweeps fields storing their whole
	// block, of any shape. The generic kernels address through the fields and ignore it.
	Rows *field.Rows
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
	pulls := func(layout field.Layout) pullTable { return newPullTable(spec.Rows, spec.Flags, layout) }
	switch spec.Choice {
	case ChoiceGenericSRT:
		return NewGeneric(st, srt), nil
	case ChoiceGenericTRT:
		return NewGeneric(st, trt), nil
	case ChoiceD3Q19SRT:
		return newD3Q19SRT(srt, pulls(field.AoS)), nil
	case ChoiceD3Q19TRT:
		return newD3Q19TRT(trt, pulls(field.AoS)), nil
	case ChoiceSplitSRT:
		return newSplitSRT(srt, pulls(field.SoA)), nil
	case ChoiceSplitTRT:
		return newSplitTRT(trt, pulls(field.SoA)), nil
	case ChoiceSparse:
		if spec.Flags == nil {
			return nil, fmt.Errorf("kernels: sparse kernel requires a flag field")
		}
		return NewSparseInterval(trt, spec.Flags, spec.Rows), nil
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q", spec.Choice)
}
