package sim

import (
	"fmt"
	"math"
	"sort"

	"walberla/internal/field"
	"walberla/internal/lattice"
)

// FieldHash is the collective state fingerprint of the session and
// scenario APIs: every rank hashes the interior cells of its blocks'
// current PDF fields, the per-block digests are gathered, ordered by
// global block coordinate and folded into a single value that every rank
// returns. Two runs of the same scenario produce the same hash exactly
// when their fields are bit-identical — independent of rank count,
// worker count, block assignment and memory layout, because the fold
// order is the global coordinate order and cells are visited in
// canonical (z, y, x, direction) order through the layout-agnostic
// accessor.
func (s *Simulation) FieldHash() (uint64, error) {
	type blockHash struct {
		Coord [3]int
		Hash  uint64
	}
	local := make([]blockHash, 0, len(s.Blocks))
	for _, bd := range s.Blocks {
		local = append(local, blockHash{bd.Block.Coord, hashInterior(bd.Src)})
	}
	gathered, err := s.Comm.GatherErr(0, local)
	if err != nil {
		return 0, err
	}
	var h uint64
	if s.Comm.Rank() == 0 {
		var all []blockHash
		for _, g := range gathered {
			all = append(all, g.([]blockHash)...)
		}
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i].Coord, all[j].Coord
			if a[2] != b[2] {
				return a[2] < b[2]
			}
			if a[1] != b[1] {
				return a[1] < b[1]
			}
			return a[0] < b[0]
		})
		h = fnvOffset
		for _, bh := range all {
			for _, c := range bh.Coord {
				h = fnvMix(h, uint64(int64(c)))
			}
			h = fnvMix(h, bh.Hash)
		}
	}
	v, err := s.Comm.BcastErr(0, h)
	if err != nil {
		return 0, err
	}
	hv, ok := v.(uint64)
	if !ok {
		return 0, fmt.Errorf("sim: field hash broadcast carried %T", v)
	}
	return hv, nil
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
