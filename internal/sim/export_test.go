package sim

import (
	"fmt"
	"math"
	"slices"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// ByCoord keys an assignment of a uniform world's blocks by grid
// coordinate as Rebalance takes it, by leaf identity: the block at c is
// the level-0 leaf of its root.
func ByCoord(s *Simulation, m map[[3]int]int) map[blockforest.BlockID]int {
	out := make(map[blockforest.BlockID]int, len(m))
	for c, r := range m {
		out[blockforest.BlockID{Tree: blockforest.TreeIndex(s.Forest.GridSize, c)}] = r
	}
	return out
}

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

// ExchangeGhostLayers runs one whole, non-overlapped ghost exchange of
// level 0, post and complete, outside the time loop (also for the
// external test package).
func (s *Simulation) ExchangeGhostLayers() error {
	if err := s.exchange.post(s, 0); err != nil {
		return err
	}
	return s.exchange.complete(s, 0)
}

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
// ghost slot of this rank's Src fields that the aggregated exchange plans of
// all levels do NOT write — neither a compiled local copy nor the unpack
// runs of a receive slab, which hold only the slots the receiver's
// need-mask kept. Calling it
// before every step turns any read of a slot a mask dropped, same-rank or
// remote, into a NaN in the interior. In an arena it poisons only
// positions that are a ghost slot of every view storing them: an interior
// cell of a member is state, whichever view's ghost layer it is too.
func (s *Simulation) GhostPoisoner() func() {
	type storage struct {
		owner             *BlockData // the block whose Src the poisoner writes
		written, interior []bool
	}
	at := make(map[*float64]*storage)
	of := func(bd *BlockData) *storage {
		d := bd.Src.Data()
		st := at[&d[0]]
		if st == nil {
			st = &storage{owner: bd, written: make([]bool, len(d)), interior: make([]bool, len(d))}
			at[&d[0]] = st
		}
		return st
	}
	mark := func(bd *BlockData, runs []copyRun) {
		for _, r := range runs {
			for rep := int32(0); rep < r.reps; rep++ {
				for k := int32(0); k < r.n; k++ {
					of(bd).written[r.dst+rep*r.dstStep+k] = true
				}
			}
		}
	}
	for l := range s.levels {
		p := &s.levels[l]
		for i := range p.locals {
			mark(p.locals[i].dst, p.locals[i].runs)
		}
		for ci := range p.channels {
			for _, sl := range p.channels[ci].recv {
				mark(sl.bd, sl.runs)
			}
		}
	}
	// slots calls fn with the storage position of every stored PDF of f's
	// ghosted block and whether its cell is interior.
	slots := func(f *field.PDFField, fn func(i int, interior bool)) {
		for z := -1; z <= f.Nz; z++ {
			for y := -1; y <= f.Ny; y++ {
				for x := -1; x <= f.Nx; x++ {
					if !f.Rows().Contains(x, y, z) {
						continue
					}
					in := x >= 0 && x < f.Nx && y >= 0 && y < f.Ny && z >= 0 && z < f.Nz
					for a := 0; a < f.Stencil.Q; a++ {
						fn(f.Index(x, y, z, lattice.Direction(a)), in)
					}
				}
			}
		}
	}
	for _, bd := range s.Blocks {
		st := of(bd)
		slots(bd.Src, func(i int, in bool) { st.interior[i] = st.interior[i] || in })
	}
	poison := make(map[*BlockData][]int, len(s.Blocks))
	for _, bd := range s.Blocks {
		st := of(bd)
		slots(bd.Src, func(i int, in bool) {
			if !in && !st.written[i] && !st.interior[i] {
				st.written[i] = true // once per storage
				poison[st.owner] = append(poison[st.owner], i)
			}
		})
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

// RunShape is one cell of the run-shape histogram of an exchange plan: the
// rows of one shape that one kind of transfer moves per step, and their
// values.
type RunShape struct{ Rows, Values int }

// RunShapes returns the run-shape histogram of every level's plan, keyed
// "<kind> <shape>": kind "same-rank" (copies between blocks of the rank)
// or "remote" (packs and unpacks), shape "n=1" (strided single values),
// "n=8", "n<8" or "long" — the loops of execRuns.
func (s *Simulation) RunShapes() map[string]RunShape {
	h := map[string]RunShape{}
	add := func(kind string, runs []copyRun) {
		for _, r := range runs {
			shape := "long"
			switch {
			case r.n == 1:
				shape = "n=1"
			case r.n == shortRun:
				shape = "n=8"
			case r.n < shortRun:
				shape = "n<8"
			}
			e := h[kind+" "+shape]
			e.Rows += int(r.reps)
			e.Values += int(r.reps * r.n)
			h[kind+" "+shape] = e
		}
	}
	for l := range s.levels {
		p := &s.levels[l]
		for i := range p.locals {
			add("same-rank", p.locals[i].runs)
		}
		for ci := range p.channels {
			ch := &p.channels[ci]
			kind := "remote"
			if ch.rank == s.Comm.Rank() {
				kind = "same-rank"
			}
			for _, sl := range ch.send {
				add(kind, sl.runs)
			}
			for _, sl := range ch.recv {
				add(kind, sl.runs)
			}
		}
	}
	return h
}

// ArenaBox is one arena of a rank: its level, first block and extent in
// the level's grid, and its members in box order.
type ArenaBox struct {
	Level   int
	Lo, Ext [3]int
	Members []blockforest.BlockID
}

func (a ArenaBox) String() string {
	return fmt.Sprintf("level %d box %v+%v of %d members", a.Level, a.Lo, a.Ext, len(a.Members))
}

// ArenaBoxes returns the rank's arenas, or with fresh set the arenas a
// fresh build of its block set forms — the cover New and SetBlocks compute.
func (s *Simulation) ArenaBoxes(fresh bool) []ArenaBox {
	arenas := s.arenas
	if fresh {
		arenas, _ = arenaCover(s.Blocks)
	}
	out := make([]ArenaBox, len(arenas))
	for i, a := range arenas {
		out[i] = ArenaBox{Level: a.level, Lo: a.lo, Ext: a.ext}
		for _, bd := range a.grid {
			out[i].Members = append(out[i].Members, bd.Block.ID)
		}
	}
	return out
}

// LevelFloatsAliased returns what the rank's arenas share of the
// same-rank slabs of level l's plan (ExchangeStats.LocalFloatsAliased).
func (s *Simulation) LevelFloatsAliased(l int) int { return s.levels[l].stats.localFloatsAliased }

// RowSweepFaults checks the row rule of sweeps on the rank's arenas: every
// y-row of an arena belongs to exactly one sweep, and that sweep runs in
// the frontier iff a member of the row exchanges with another rank. It
// returns one line per row that breaks the rule, and how many rows mix
// members that exchange with another rank and members that do not.
func (s *Simulation) RowSweepFaults() (faults []string, mixed int) {
	remote := map[*BlockData]bool{}
	for l := range s.levels {
		for _, ch := range s.levels[l].channels {
			if ch.rank == s.Comm.Rank() {
				continue
			}
			for _, sl := range slices.Concat(ch.send, ch.recv) {
				remote[sl.bd] = true
			}
		}
	}
	held := map[*BlockData][]*sweep{} // block -> the sweeps that run it
	frontier := map[*sweep]bool{}
	for l := range s.interior {
		for i, us := range [2][]sweep{s.interior[l], s.frontier[l]} {
			for k := range us {
				frontier[&us[k]] = i == 1
				for _, bd := range us[k].blocks {
					held[bd] = append(held[bd], &us[k])
				}
			}
		}
	}
	for _, a := range s.arenas {
		for z := range a.ext[2] {
			for y := range a.ext[1] {
				row := a.grid[(z*a.ext[1]+y)*a.ext[0] : (z*a.ext[1]+y+1)*a.ext[0]]
				u := held[row[0]]
				if slices.ContainsFunc(row, func(bd *BlockData) bool { return remote[bd] != remote[row[0]] }) {
					mixed++
				}
				if slices.ContainsFunc(row, func(bd *BlockData) bool { return len(held[bd]) != 1 || held[bd][0] != u[0] }) {
					faults = append(faults, fmt.Sprintf("level %d box %v+%v row y=%d z=%d: members in several sweeps", a.level, a.lo, a.ext, y, z))
					continue
				}
				if hot := slices.ContainsFunc(row, func(bd *BlockData) bool { return remote[bd] }); frontier[u[0]] != hot {
					faults = append(faults, fmt.Sprintf("level %d box %v+%v row y=%d z=%d: frontier %v, remote member %v", a.level, a.lo, a.ext, y, z, frontier[u[0]], hot))
				}
			}
		}
	}
	return faults, mixed
}

// RemoteTransfers returns, for every transfer between levels this rank
// sends to another rank, its slots, the slots its Kept reports and the
// length of its window in the channel's aggregate.
func (s *Simulation) RemoteTransfers() [][3]int {
	var out [][3]int
	for l := range s.levels {
		for _, ch := range s.levels[l].channels {
			for _, sl := range ch.send {
				if sl.x == nil || ch.rank == s.Comm.Rank() {
					continue
				}
				kept := 0
				for k := range sl.slots() {
					if sl.x.Kept(k) {
						kept++
					}
				}
				out = append(out, [3]int{sl.slots(), kept, sl.n})
			}
		}
	}
	return out
}
