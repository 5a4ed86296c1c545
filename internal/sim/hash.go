package sim

import (
	"fmt"
	"math"
	"sort"

	"walberla/internal/blockforest"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// FieldHash is the collective state fingerprint of every front end: every
// rank hashes the interior cells of its blocks' current PDF fields, and
// the per-block digests are gathered on rank 0, ordered by block identity
// and folded — key words, then digest — into a single value that every
// rank returns. A block's key is its global coordinate (z, y, x order) on
// a world without a Refiner, and its full leaf identity on a refined one
// (tree, level, path order; the words tree, path, level, coordinate), so
// equal hashes mean bit-identical fields regardless of rank count, worker
// count, block assignment, transport and memory layout: cells are visited
// in canonical (z, y, x, direction) order through the layout-agnostic
// accessor. Each rank sends its entries as one []int64: per block the
// key's length, its words and the digest.
func (s *Simulation) FieldHash() (uint64, error) {
	order := []int{2, 1, 0}
	if s.refiner != nil {
		order = []int{0, 2, 1}
	}
	var local []int64
	for _, bd := range s.Blocks {
		id, c := bd.Block.ID, bd.Block.Coord
		if s.refiner != nil {
			local = append(local, 6, int64(id.Tree), int64(id.Path), int64(id.Level))
		} else {
			local = append(local, 3)
		}
		local = append(local, int64(c[0]), int64(c[1]), int64(c[2]), int64(hashInterior(bd.Src)))
	}
	gathered, err := s.Comm.GatherErr(0, local)
	if err != nil {
		return 0, err
	}
	var h uint64
	if s.Comm.Rank() == 0 {
		var all [][]int64 // key words, then digest
		for _, g := range gathered {
			for words := g.([]int64); len(words) > 0; {
				n := int(words[0]) + 2
				all, words = append(all, words[1:n]), words[n:]
			}
		}
		sort.Slice(all, func(i, j int) bool {
			for _, k := range order {
				if a, b := uint64(all[i][k]), uint64(all[j][k]); a != b {
					return a < b
				}
			}
			return false
		})
		h = fnvOffset
		for _, e := range all {
			for _, w := range e {
				h = fnvMix(h, uint64(w))
			}
		}
	}
	v, err := s.Comm.BcastErr(0, int64(h))
	if err != nil {
		return 0, err
	}
	hv, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("sim: field hash broadcast carried %T", v)
	}
	return uint64(hv), nil
}

// BlockName names a block in per-block output files: block_X_Y_Z by its
// grid coordinate on a world without a Refiner, block_L<level>_X_Y_Z by
// its index on its level's block grid on a refined one, where leaves of
// one root share its coordinate.
func (s *Simulation) BlockName(bd *BlockData) string {
	b := bd.Block
	if s.refiner == nil {
		return fmt.Sprintf("block_%d_%d_%d", b.Coord[0], b.Coord[1], b.Coord[2])
	}
	i := blockforest.LevelIndex(b.Coord, b.ID)
	return fmt.Sprintf("block_L%d_%d_%d_%d", b.ID.Level, i[0], i[1], i[2])
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a style running hash,
// byte-wise so single-bit differences in any byte diffuse.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// hashInterior digests one PDF field's interior cells (ghost layers are
// derived state re-filled by the next exchange).
func hashInterior(f *field.PDFField) uint64 {
	h := uint64(fnvOffset)
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			for x := 0; x < f.Nx; x++ {
				for a := 0; a < f.Stencil.Q; a++ {
					h = fnvMix(h, math.Float64bits(f.At(x, y, z, lattice.Direction(a))))
				}
			}
		}
	}
	return h
}
