package sim

import (
	"fmt"
	"math"
	"sort"

	"walberla/internal/comm"
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
	keys := make([][]uint64, len(s.Blocks))
	for i, bd := range s.Blocks {
		c := bd.Block.Coord
		keys[i] = []uint64{uint64(int64(c[0])), uint64(int64(c[1])), uint64(int64(c[2]))}
	}
	return WorldHash(s.Comm, s.Blocks, keys, []int{2, 1, 0})
}

// WorldHash is the fold behind both runtimes' FieldHash: the interior
// digest of every local block, keyed by the words naming the block
// (keys[i] for blocks[i]), is gathered on rank 0, the entries are sorted
// by the key words order lists, most significant first, and folded — key
// words, then digest — into one value, which every rank returns. Each
// rank sends its entries as one []int64: per block the key's length, its
// words and the digest. Collective.
func WorldHash(c *comm.Comm, blocks []*BlockData, keys [][]uint64, order []int) (uint64, error) {
	var local []int64
	for i, bd := range blocks {
		local = append(local, int64(len(keys[i])))
		for _, w := range keys[i] {
			local = append(local, int64(w))
		}
		local = append(local, int64(hashInterior(bd.Src)))
	}
	gathered, err := c.GatherErr(0, local)
	if err != nil {
		return 0, err
	}
	var h uint64
	if c.Rank() == 0 {
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
	v, err := c.BcastErr(0, int64(h))
	if err != nil {
		return 0, err
	}
	hv, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("sim: field hash broadcast carried %T", v)
	}
	return uint64(hv), nil
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
