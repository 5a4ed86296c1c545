package sim

import (
	"sync"

	"walberla/internal/lattice"
)

// Ghost layer exchange. For every pair of neighboring blocks only the PDFs
// that actually stream across the shared boundary are communicated: five
// directions per face and one per edge for D3Q19 (corner offsets carry no
// D3Q19 PDFs and are skipped entirely) — waLBerla's reduced-message
// optimization. Blocks on the same rank copy directly ("fast local
// communication"); remote blocks exchange messages.
//
// The exchange is split-phase so the time loop can overlap it with
// computation: a level's post packs and sends all boundary slabs (pack and
// local copies run on the worker pool) and posts the remote receives; its
// complete waits for the remote slabs and unpacks them. The level's
// interior sweeps run between the two halves while remote data is in
// flight (Simulation.subStep).
//
// The wire format is the rank-aggregated one of aggregate.go; the legacy
// one-message-per-block-pair format survives in the tests only, as the
// differential oracle (perpair_test.go).

// exchanger is the ghost exchange behind the step: the aggregated level
// plans in production (aggregated, aggregate.go), the per-pair oracle of
// level 0 in the tests that compare against it.
type exchanger interface {
	// build derives the plan of the current block set and reports the
	// blocks that exchange with another rank. It fails when the plan
	// build's handshake does (a peer failed, a mask did not fit).
	build(s *Simulation) (remote map[*BlockData]bool, err error)
	// post starts one ghost layer synchronization of the Src fields of a
	// level's blocks; complete finishes it. The level's interior blocks
	// may be swept between the two halves: every slab is packed in post,
	// before any sweep, so the overlap is bit-identical to a synchronous
	// exchange. complete returns a typed *comm.RankFailedError when a peer
	// has been declared dead mid-exchange instead of deadlocking.
	post(s *Simulation, level int) error
	complete(s *Simulation, level int) error
	stats(s *Simulation) ExchangeStats
}

// offsetIndex maps an offset in {-1,0,1}^3 to 0..26.
func offsetIndex(o [3]int) int {
	return (o[0] + 1) + 3*(o[1]+1) + 9*(o[2]+1)
}

// commTables caches, per stencil, the offset→crossing-directions table:
// entry offsetIndex(o) lists the stencil directions whose velocity crosses
// a block boundary with offset o. Computed once per stencil and shared by
// every plan build and test — callers must not mutate the slices.
var commTables sync.Map // *lattice.Stencil -> *[27][]lattice.Direction

func commTable(st *lattice.Stencil) *[27][]lattice.Direction {
	if t, ok := commTables.Load(st); ok {
		return t.(*[27][]lattice.Direction)
	}
	var t [27][]lattice.Direction
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				o := [3]int{dx, dy, dz}
				if o == [3]int{} {
					continue
				}
				var dirs []lattice.Direction
				for a := 0; a < st.Q; a++ {
					if st.Cx[a] == 0 && st.Cy[a] == 0 && st.Cz[a] == 0 {
						continue
					}
					if (o[0] != 0 && st.Cx[a] != o[0]) ||
						(o[1] != 0 && st.Cy[a] != o[1]) ||
						(o[2] != 0 && st.Cz[a] != o[2]) {
						continue
					}
					dirs = append(dirs, lattice.Direction(a))
				}
				t[offsetIndex(o)] = dirs
			}
		}
	}
	actual, _ := commTables.LoadOrStore(st, &t)
	return actual.(*[27][]lattice.Direction)
}

// commDirections returns the stencil directions whose velocity crosses a
// block boundary with the given offset: every non-zero offset axis must
// match the velocity component. The result is a shared precomputed table
// entry; callers must not modify it.
func commDirections(st *lattice.Stencil, o [3]int) []lattice.Direction {
	return commTable(st)[offsetIndex(o)]
}

// region is a half-open box of cell coordinates.
type region struct {
	lo, hi [3]int
}

func (r region) cells() int {
	return (r.hi[0] - r.lo[0]) * (r.hi[1] - r.lo[1]) * (r.hi[2] - r.lo[2])
}

// size is the box's extent along each axis.
func (r region) size() [3]int {
	return [3]int{r.hi[0] - r.lo[0], r.hi[1] - r.lo[1], r.hi[2] - r.lo[2]}
}

// sendRegion is the interior slab packed for a neighbor at offset o.
func sendRegion(cells [3]int, o [3]int) region {
	var r region
	for d := 0; d < 3; d++ {
		switch o[d] {
		case 1:
			r.lo[d], r.hi[d] = cells[d]-1, cells[d]
		case -1:
			r.lo[d], r.hi[d] = 0, 1
		default:
			r.lo[d], r.hi[d] = 0, cells[d]
		}
	}
	return r
}

// recvRegion is the ghost slab filled from the neighbor at offset o.
func recvRegion(cells [3]int, o [3]int) region {
	var r region
	for d := 0; d < 3; d++ {
		switch o[d] {
		case 1:
			r.lo[d], r.hi[d] = cells[d], cells[d]+1
		case -1:
			r.lo[d], r.hi[d] = -1, 0
		default:
			r.lo[d], r.hi[d] = 0, cells[d]
		}
	}
	return r
}
