package amr

import (
	"fmt"
	"testing"

	"walberla/internal/comm"
	"walberla/internal/lattice"
	"walberla/internal/sim"
)

// BenchmarkResample times the coarse→fine transfer a level interface
// packs, on a level-0 block of 8³ cells in both layouts, for the three box
// shapes the exchange resamples — a face (1×8×8 ghost cells past the
// sender's +x face, the five directions that cross it), an edge (1×1×8,
// past its +x+y edge, one direction) and a whole block (8³, every
// direction, as a split prolongs) — and reports ns per receiver cell per
// pack. Each iteration packs phase 0 and then phase 1 reading phase 0's
// memo, as the two sub-steps of the finer level do. Run it with
//
//	go test -run '^$' -bench BenchmarkResample ./internal/amr/
func BenchmarkResample(b *testing.B) {
	st := lattice.D3Q19()
	along := func(cx, cy int) []lattice.Direction {
		var dirs []lattice.Direction
		for a := range st.Q {
			if (cx == 0 || st.Cx[a] == cx) && (cy == 0 || st.Cy[a] == cy) {
				dirs = append(dirs, lattice.Direction(a))
			}
		}
		return dirs
	}
	shapes := []struct {
		name         string
		lo, hi, base [3]int
		dirs         []lattice.Direction
	}{
		{"face", [3]int{-1, 0, 0}, [3]int{0, 8, 8}, [3]int{16, 0, 0}, along(1, 0)},
		{"edge", [3]int{-1, -1, 0}, [3]int{0, 0, 8}, [3]int{16, 16, 0}, along(1, 1)},
		{"block", [3]int{}, [3]int{8, 8, 8}, [3]int{}, along(0, 0)},
	}
	for _, layout := range []sim.LayoutChoice{sim.LayoutAoS, sim.LayoutSoA} {
		comm.Run(1, func(c *comm.Comm) {
			cfg := baseConfig(1, layout)
			cfg.Refinement.Interval = 0
			s, err := New(c, cfg)
			if err != nil {
				b.Fatal(err)
			}
			r := refiner{s}
			for _, sh := range shapes {
				b.Run(fmt.Sprintf("%v/%s", layout, sh.name), func(b *testing.B) {
					cells := (sh.hi[0] - sh.lo[0]) * (sh.hi[1] - sh.lo[1]) * (sh.hi[2] - sh.lo[2])
					t := &sim.Transfer{Src: s.plane.Blocks[0], ToFiner: true, Lo: sh.lo, Hi: sh.hi, Base: sh.base, Dirs: sh.dirs,
						Memo: make([]float64, cells*st.Q), MemoStamp: -1}
					buf := make([]float64, cells*len(sh.dirs))
					r.Resample(t, buf, 0, 0)
					b.ResetTimer()
					for range b.N {
						r.Resample(t, buf, 0, 0)
						r.Resample(t, buf, 1, 0)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N*cells), "ns/cell")
				})
			}
		})
	}
}
