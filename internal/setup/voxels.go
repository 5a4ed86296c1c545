package setup

import (
	"walberla/internal/blockforest"
	"walberla/internal/field"
)

// Voxels are the kept blocks' voxelizations of a forest build: for each
// block, the geometry.Voxelize output over its box with one ghost layer,
// one bit per cell (Fluid set, Outside clear) in the flag field's storage
// order — 729 bytes for a 16³ block. They are what FlagsFromSDF lands as
// a block's flags, so the forest build is the one classification of the
// cells, and they stay beside the forest: neither the block-structure file
// nor Distribute carries them.
type Voxels struct {
	cells  [3]int
	blocks map[[3]int]voxelBlock
}

// voxelBlock is one kept block's box and packed voxels.
type voxelBlock struct {
	box  blockforest.AABB
	bits []byte
}

// newVoxelField returns the flag field a block is voxelized into: the
// block's cells and the one ghost layer the simulation's fields have.
func newVoxelField(cells [3]int) *field.FlagField {
	return field.NewFlagField(cells[0], cells[1], cells[2], 1)
}

// packVoxels packs a voxelized flag field, one bit per cell.
func packVoxels(flags *field.FlagField) []byte {
	data := flags.Data()
	bits := make([]byte, (len(data)+7)/8)
	for i, c := range data {
		if c == field.Fluid {
			bits[i>>3] |= 1 << (i & 7)
		}
	}
	return bits
}

// Flags writes the voxels kept for the block at coord into flags and
// reports whether it did: false, leaving flags untouched, when v is nil,
// keeps no block there, or the kept block's box or shape differ from box
// and flags (a forest built at another spacing or block size, or a block
// of another refinement level).
func (v *Voxels) Flags(coord [3]int, box blockforest.AABB, flags *field.FlagField) bool {
	if v == nil {
		return false
	}
	kb, ok := v.blocks[coord]
	if !ok || kb.box != box || flags.Ghost != 1 || [3]int{flags.Nx, flags.Ny, flags.Nz} != v.cells {
		return false
	}
	data := flags.Data()
	for i := range data {
		data[i] = field.Outside
		if kb.bits[i>>3]&(1<<(i&7)) != 0 {
			data[i] = field.Fluid
		}
	}
	return true
}
