package sim

import (
	"fmt"
	"time"

	"walberla/internal/comm"
)

// Metrics summarizes a measured run, globally reduced over all ranks.
// MLUPS counts every traversed lattice cell, MFLUPS only fluid cells that
// the kernels actually update (the paper's two performance measures). Both
// count the updates the sweeps performed: a level-ℓ block of a refined
// world sweeps 2^ℓ times per coarse step, and a re-grade changes the count
// from the next step on.
type Metrics struct {
	Steps int
	Ranks int

	TotalCells      int64
	TotalFluidCells int64

	// WallTime is the maximum wall clock time over ranks.
	WallTime time.Duration
	// CommFraction is the fraction of total rank time spent in ghost
	// layer communication (the dotted "%MPI" curves of Figure 6).
	CommFraction float64

	MLUPS  float64
	MFLUPS float64

	// Recovery accounts fault-tolerance activity during a resilient run
	// (zero for plain Run).
	Recovery RecoveryStats
}

// OverlapTimes is this rank's accumulated split-phase step breakdown: the
// exchange post (pack, send, local copies), the interior sweeps that run
// while remote data is in flight, the residual wait for remote slabs plus
// their unpack, and the frontier sweeps that needed the remote data. Wait
// is the part of the communication the overlap could not hide.
type OverlapTimes struct {
	Post     time.Duration
	Interior time.Duration
	Wait     time.Duration
	Frontier time.Duration
}

func (o *OverlapTimes) add(d OverlapTimes) {
	o.Post += d.Post
	o.Interior += d.Interior
	o.Wait += d.Wait
	o.Frontier += d.Frontier
}

func (o OverlapTimes) String() string {
	return fmt.Sprintf("post=%v interior=%v wait=%v frontier=%v",
		o.Post, o.Interior, o.Wait, o.Frontier)
}

// MLUPSPerCore and MFLUPSPerCore report per-rank (per-core) values — the
// parallel-efficiency measure used in the scaling figures.
func (m Metrics) MLUPSPerCore() float64 { return m.MLUPS / float64(m.Ranks) }

// MFLUPSPerCore reports fluid cell updates per second per rank.
func (m Metrics) MFLUPSPerCore() float64 { return m.MFLUPS / float64(m.Ranks) }

// FluidFraction is the global fluid cell fraction.
func (m Metrics) FluidFraction() float64 {
	if m.TotalCells == 0 {
		return 0
	}
	return float64(m.TotalFluidCells) / float64(m.TotalCells)
}

// TimeStepsPerSecond is the sustained time stepping rate.
func (m Metrics) TimeStepsPerSecond() float64 {
	if m.WallTime <= 0 {
		return 0
	}
	return float64(m.Steps) / m.WallTime.Seconds()
}

func (m Metrics) String() string {
	return fmt.Sprintf("steps=%d ranks=%d cells=%d fluid=%d (%.1f%%) wall=%v MLUPS=%.2f MFLUPS=%.2f comm=%.1f%%",
		m.Steps, m.Ranks, m.TotalCells, m.TotalFluidCells, 100*m.FluidFraction(),
		m.WallTime, m.MLUPS, m.MFLUPS, 100*m.CommFraction)
}

// gatherMetrics reduces the per-rank timings into global metrics; it
// returns a typed *comm.RankFailedError when a peer dies during the
// reduction.
func (s *Simulation) gatherMetrics(steps int, wall time.Duration) (Metrics, error) {
	s.publishGauges()
	c := s.Comm
	totalCells, err := c.AllreduceInt64Err(s.LocalCells(), comm.Sum[int64])
	if err != nil {
		return Metrics{}, err
	}
	totalFluid, err := c.AllreduceInt64Err(s.LocalFluidCells(), comm.Sum[int64])
	if err != nil {
		return Metrics{}, err
	}
	updates, err := c.AllreduceInt64Err(s.work[0], comm.Sum[int64])
	if err != nil {
		return Metrics{}, err
	}
	fluidUpdates, err := c.AllreduceInt64Err(s.work[1], comm.Sum[int64])
	if err != nil {
		return Metrics{}, err
	}
	maxWallI, err := c.AllreduceInt64Err(int64(wall), comm.Max[int64])
	if err != nil {
		return Metrics{}, err
	}
	maxWall := time.Duration(maxWallI)
	sumWall, err := c.AllreduceFloat64Err(wall.Seconds(), comm.Sum[float64])
	if err != nil {
		return Metrics{}, err
	}
	o := s.Overlap()
	sumComm, err := c.AllreduceFloat64Err((o.Post + o.Wait).Seconds(), comm.Sum[float64])
	if err != nil {
		return Metrics{}, err
	}

	m := Metrics{
		Steps:           steps,
		Ranks:           c.Size(),
		TotalCells:      totalCells,
		TotalFluidCells: totalFluid,
		WallTime:        maxWall,
	}
	if sumWall > 0 {
		m.CommFraction = sumComm / sumWall
	}
	if maxWall > 0 {
		m.MLUPS = float64(updates) / maxWall.Seconds() / 1e6
		m.MFLUPS = float64(fluidUpdates) / maxWall.Seconds() / 1e6
	}
	return m, nil
}

// ExchangeStats describes this rank's ghost-exchange communication
// pattern under the current plan — the quantities the message-aggregation
// benchmark reports.
type ExchangeStats struct {
	// NeighborRanks is the number of distinct remote ranks this rank
	// exchanges ghost data with.
	NeighborRanks int
	// MessagesPerStep is the number of point-to-point sends this rank
	// issues per time step: one per neighbor rank.
	MessagesPerStep int
	// RemoteSlabs counts the boundary slabs crossing a rank border.
	RemoteSlabs int
	// LocalCopies counts the same-rank block-to-block ghost copies in the
	// plan and LocalFloats the values they move per step. The plan keeps
	// only the ghost slots the destination block reads: LocalCopiesElided
	// block pairs left it entirely and LocalFloatsElided values of the full
	// slabs are not moved. LocalFloatsAliased values of the full slabs do
	// not move because the rank's arena stores source and destination in
	// one place (docs/EXCHANGE.md, "Rank arenas").
	LocalCopies        int
	LocalFloats        int
	LocalCopiesElided  int
	LocalFloatsElided  int
	LocalFloatsAliased int
	// SendFloats and RecvFloats are this rank's per-step payload volumes
	// in float64 values. Only the ghost slots the receiving block reads
	// cross, an arena position once: RemoteFloatsElided values of the full
	// slabs this rank receives do not.
	SendFloats         int
	RecvFloats         int
	RemoteFloatsElided int
}

// ExchangeStats reports the communication pattern of the current exchange
// plan.
func (s *Simulation) ExchangeStats() ExchangeStats { return s.exchange.stats(s) }

// PhaseTimes returns this rank's accumulated phase timers since the last
// reset. Communication time is wall clock on the rank's driving
// goroutine (exchange post + residual wait); compute and boundary time
// aggregate the per-block sweep times across all workers, reduced in
// deterministic block order.
func (s *Simulation) PhaseTimes() (compute, communication, boundaryTime time.Duration) {
	o := s.Overlap()
	return s.computeTime, o.Post + o.Wait, s.boundaryTime
}

// Overlap returns this rank's accumulated split-phase breakdown of the
// time loop since the last reset.
func (s *Simulation) Overlap() OverlapTimes {
	var o OverlapTimes
	for _, lo := range s.levelOverlap {
		o.add(lo)
	}
	return o
}

// LevelOverlap returns the part of Overlap that the sub-steps of one
// refinement level took; a uniform world's level 0 is the whole of it.
func (s *Simulation) LevelOverlap(level int) OverlapTimes {
	if level >= len(s.levelOverlap) {
		return OverlapTimes{}
	}
	return s.levelOverlap[level]
}
