package sim

import (
	"math"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/lattice"
)

// Spare returns the builder RunSpareCtx recruits a spare of a uniform
// world into: New on the forest header of domain, owning no block.
func Spare(domain *blockforest.BlockForest, cfg Config) func(c *comm.Comm) (*Simulation, error) {
	return func(c *comm.Comm) (*Simulation, error) {
		return New(c, &blockforest.BlockForest{
			Rank: c.Rank(), NumRanks: c.Size(), Domain: domain.Domain, GridSize: domain.GridSize,
			CellsPerBlock: domain.CellsPerBlock, Periodic: domain.Periodic,
		}, cfg)
	}
}

// PostExchange exposes the post half of the ghost exchange to the external
// test package, whose benchmarks build worlds through internal/core.
func (s *Simulation) PostExchange() error { return s.exchange.post(s, 0) }

// ExchangeGhostLayers exposes one whole ghost exchange, post and complete,
// to the external test package.
func (s *Simulation) ExchangeGhostLayers() error { return s.exchangeGhostLayers() }

// RebuildPlan exposes the exchange plan rebuild to the external test
// package's benchmarks.
func (s *Simulation) RebuildPlan() error { return s.rebuildPlan() }

// RaceEnabled reports a race-instrumented build, in which the allocation
// gates skip themselves.
const RaceEnabled = raceEnabled

// NewWithExchange is New with the ghost exchange wire format chosen by hand
// — how the external tests build their per-pair oracle.
var NewWithExchange = newWithExchange

// GhostPoisoner returns a function that overwrites with NaN every stored
// ghost slot of this rank's Src fields that the aggregated exchange plan does
// NOT write — neither a compiled local copy nor the unpack runs of a receive
// slab, which hold only the slots the receiver's need-mask kept. Calling it
// before every step turns any read of a slot a mask dropped, same-rank or
// remote, into a NaN in the interior.
func (s *Simulation) GhostPoisoner() func() {
	written := make(map[*BlockData][]bool, len(s.Blocks))
	for _, bd := range s.Blocks {
		written[bd] = make([]bool, len(bd.Src.Data()))
	}
	mark := func(bd *BlockData, runs []copyRun) {
		for _, r := range runs {
			for rep := int32(0); rep < r.reps; rep++ {
				for k := int32(0); k < r.n; k++ {
					written[bd][r.dst+rep*r.dstStep+k] = true
				}
			}
		}
	}
	p := &s.levels[0]
	for i := range p.locals {
		mark(p.locals[i].dst, p.locals[i].runs)
	}
	for ci := range p.channels {
		for _, sl := range p.channels[ci].recv {
			mark(sl.bd, sl.runs)
		}
	}
	poison := make(map[*BlockData][]int, len(s.Blocks))
	for _, bd := range s.Blocks {
		f := bd.Src
		for z := -1; z <= f.Nz; z++ {
			for y := -1; y <= f.Ny; y++ {
				for x := -1; x <= f.Nx; x++ {
					if x >= 0 && x < f.Nx && y >= 0 && y < f.Ny && z >= 0 && z < f.Nz ||
						!f.Rows().Contains(x, y, z) {
						continue
					}
					for a := 0; a < f.Stencil.Q; a++ {
						if i := f.Index(x, y, z, lattice.Direction(a)); !written[bd][i] {
							poison[bd] = append(poison[bd], i)
						}
					}
				}
			}
		}
	}
	nan := math.NaN()
	return func() {
		for bd, slots := range poison {
			data := bd.Src.Data()
			for _, i := range slots {
				data[i] = nan
			}
		}
	}
}
