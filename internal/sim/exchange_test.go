package sim

import (
	"math/rand"
	"testing"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

func TestOffsetIndexBijective(t *testing.T) {
	seen := map[int]bool{}
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				i := offsetIndex([3]int{dx, dy, dz})
				if i < 0 || i > 26 {
					t.Fatalf("offsetIndex(%d,%d,%d) = %d out of range", dx, dy, dz, i)
				}
				if seen[i] {
					t.Fatalf("duplicate index %d", i)
				}
				seen[i] = true
			}
		}
	}
	if len(seen) != 27 {
		t.Errorf("covered %d indices, want 27", len(seen))
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	s := lattice.D3Q19()
	r := rand.New(rand.NewSource(4))
	for _, layout := range []field.Layout{field.AoS, field.SoA} {
		src := field.NewPDFField(s, 6, 5, 4, 1, layout)
		for i := range src.Data() {
			src.Data()[i] = r.Float64()
		}
		dst := src.CopyShape()
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					o := [3]int{dx, dy, dz}
					dirs := commDirections(s, o)
					if len(dirs) == 0 {
						continue
					}
					reg := sendRegion([3]int{6, 5, 4}, o)
					buf := pack(src, reg, dirs)
					if len(buf) != len(dirs)*reg.cells() {
						t.Fatalf("offset %v: packed %d values, want %d", o, len(buf), len(dirs)*reg.cells())
					}
					unpack(dst, reg, dirs, buf)
					for z := reg.lo[2]; z < reg.hi[2]; z++ {
						for y := reg.lo[1]; y < reg.hi[1]; y++ {
							for x := reg.lo[0]; x < reg.hi[0]; x++ {
								for _, d := range dirs {
									if dst.Get(x, y, z, d) != src.Get(x, y, z, d) {
										t.Fatalf("offset %v: value lost at (%d,%d,%d,%d)", o, x, y, z, d)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestSendRecvRegionsComplementary(t *testing.T) {
	cells := [3]int{8, 6, 4}
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				o := [3]int{dx, dy, dz}
				send := sendRegion(cells, o)
				recv := recvRegion(cells, o)
				// Same shape: the sender's slab lands exactly in the
				// receiver's ghost slab.
				for d := 0; d < 3; d++ {
					if send.hi[d]-send.lo[d] != recv.hi[d]-recv.lo[d] {
						t.Fatalf("offset %v: region shapes differ on axis %d", o, d)
					}
					// Send regions are interior, recv regions in the ghost
					// ring on non-zero axes.
					if o[d] != 0 {
						if send.lo[d] < 0 || send.hi[d] > cells[d] {
							t.Fatalf("offset %v: send region leaves interior", o)
						}
						if recv.lo[d] >= 0 && recv.hi[d] <= cells[d] {
							t.Fatalf("offset %v: recv region not in ghost ring", o)
						}
					}
				}
			}
		}
	}
}

// The exchange plan of a fully periodic 2x2x2 forest on one rank must
// contain only local operations covering every non-corner offset of every
// block.
func TestExchangePlanStructure(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 2, 2}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	f.BalanceMorton(1)
	comm.Run(1, func(c *comm.Comm) {
		forest, err := blockforest.Distribute(c, f)
		if err != nil {
			t.Error(err)
			return
		}
		s, err := newWithExchange(c, forest, Config{SetupFlags: func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
			flags.Fill(field.Fluid)
		}}, ExchangePerPair)
		if err != nil {
			t.Error(err)
			return
		}
		// 8 blocks x 18 non-corner offsets (6 faces + 12 edges for D3Q19).
		plan := pairOps(s)
		if len(plan) != 8*18 {
			t.Errorf("plan has %d ops, want %d", len(plan), 8*18)
		}
		for _, op := range plan {
			if op.remote {
				t.Error("single-rank plan contains remote op")
			}
			if op.peer == nil {
				t.Error("local op without peer")
			}
			if len(op.sendDirs) == 0 || len(op.sendDirs) != len(op.recvDirs) {
				t.Errorf("op with %d send, %d recv dirs", len(op.sendDirs), len(op.recvDirs))
			}
		}
	})
}

// Ghost values after one exchange must equal the neighbor's boundary
// values — checked directly on a periodic two-block domain.
func TestExchangeGhostValues(t *testing.T) {
	f := blockforest.NewSetupForest(
		blockforest.NewAABB([3]float64{0, 0, 0}, [3]float64{1, 1, 1}),
		[3]int{2, 1, 1}, [3]int{4, 4, 4}, [3]bool{true, true, true})
	f.BalanceMorton(2)
	comm.Run(2, func(c *comm.Comm) {
		forest, _ := blockforest.Distribute(c, forestOnRank0(c, f))
		s, err := New(c, forest, Config{SetupFlags: func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
			flags.Fill(field.Fluid)
		}})
		if err != nil {
			t.Error(err)
			return
		}
		// Tag each block's PDFs with its grid coordinate so provenance is
		// visible after the exchange.
		for _, bd := range s.Blocks {
			tag := float64(bd.Block.Coord[0] + 1)
			for i := range bd.Src.Data() {
				bd.Src.Data()[i] = tag
			}
		}
		if err := s.ExchangeGhostLayers(); err != nil {
			t.Error(err)
			return
		}
		for _, bd := range s.Blocks {
			// The +x ghost slab must carry the other block's tag.
			other := float64(1 + bd.Block.Coord[0]) // own tag
			wantNeighbor := 3 - other               // 1 <-> 2
			dirs := commDirections(s.Stencil, [3]int{1, 0, 0})
			for _, d := range dirs {
				// The ghost cell holds PDFs pointing INTO this block from
				// the neighbor, i.e. directions with cx == -1.
				inv := s.Stencil.Inv[d]
				got := bd.Src.Get(4, 2, 2, inv)
				if got != wantNeighbor {
					t.Errorf("block %v ghost +x dir %d = %v, want %v", bd.Block.Coord, inv, got, wantNeighbor)
				}
			}
		}
	})
}

func forestOnRank0(c *comm.Comm, f *blockforest.SetupForest) *blockforest.SetupForest {
	if c.Rank() == 0 {
		return f
	}
	return nil
}

func TestCommDirectionsAllOffsets(t *testing.T) {
	s := lattice.D3Q19()
	total := 0
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				total += len(commDirections(s, [3]int{dx, dy, dz}))
			}
		}
	}
	// Every non-center direction crosses exactly one face and, for
	// diagonal velocities, additionally the matching edges: 6 faces x 5 +
	// 12 edges x 1 = 42.
	if total != 42 {
		t.Errorf("total communicated directions = %d, want 42", total)
	}
}
