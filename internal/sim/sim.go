// Package sim drives distributed LBM simulations over a block forest: it
// allocates per-block PDF, flag and boundary data, exchanges ghost layers
// between blocks through the communicator (packing only the PDFs that
// actually cross each block boundary, as waLBerla does), applies boundary
// conditions, runs the fused stream-collide kernels, and accounts the
// MLUPS / MFLUPS and communication-time metrics the paper reports.
//
// Inside each rank the time loop is hybrid-parallel (see docs/HYBRID.md):
// per-block sweeps execute on a configurable worker pool, and the
// ghost-layer exchange is split-phase so interior blocks compute while
// remote boundary data is in flight. Results are bit-identical to serial
// runs for every worker count.
package sim

import (
	"context"
	"fmt"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/boundary"
	"walberla/internal/collide"
	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/kernels"
	"walberla/internal/lattice"
	"walberla/internal/resilience"
	"walberla/internal/telemetry"
)

// KernelChoice selects a compute kernel family for a simulation; it is an
// alias of kernels.Choice, the key of the kernels.Spec constructor.
type KernelChoice = kernels.Choice

// Kernel choices; the names match the paper's Figure 3 series.
const (
	KernelGenericSRT = kernels.ChoiceGenericSRT
	KernelGenericTRT = kernels.ChoiceGenericTRT
	KernelD3Q19SRT   = kernels.ChoiceD3Q19SRT
	KernelD3Q19TRT   = kernels.ChoiceD3Q19TRT
	KernelSplitSRT   = kernels.ChoiceSplitSRT
	KernelSplitTRT   = kernels.ChoiceSplitTRT
	KernelSparse     = kernels.ChoiceSparse
)

// KernelAuto defers the kernel choice to plan-build time, where each block
// picks its own kernel from the configured layout, the stencil and its
// fluid fraction (see Config.resolveKernel). It is the default.
const KernelAuto KernelChoice = "auto"

// LayoutChoice selects the PDF memory layout of the simulation fields.
type LayoutChoice string

// Layout choices. The zero value is LayoutAuto.
const (
	// LayoutAuto lets kernel selection pick the layout: structure-of-arrays
	// for D3Q19 (the split kernels), array-of-structures otherwise.
	LayoutAuto LayoutChoice = "auto"
	// LayoutAoS forces array-of-structures fields and the AoS kernel
	// family.
	LayoutAoS LayoutChoice = "aos"
	// LayoutSoA forces structure-of-arrays fields and the split/sparse
	// kernel family.
	LayoutSoA LayoutChoice = "soa"
)

// SparseFluidThreshold is the fluid fraction below which automatic kernel
// selection switches a block from the dense split kernel to the compressed
// interval kernel of section 4.3 — below it, skipping the obstacle cells
// saves more bandwidth than the interval bookkeeping costs.
const SparseFluidThreshold = 0.95

// Config describes a simulation.
type Config struct {
	// Stencil selects the lattice model; nil means D3Q19, the model of
	// all simulations in the paper. Other stencils (D3Q27, D2Q9) run
	// through the generic kernels.
	Stencil *lattice.Stencil
	// Kernel picks the compute kernel; the zero value is KernelAuto:
	// every block gets the fastest kernel its geometry and the configured
	// layout admit — the split (SoA SIMD) TRT kernel for dense D3Q19
	// blocks, the interval sparse kernel for blocks whose fluid fraction
	// is below SparseFluidThreshold, the generic TRT kernel for other
	// stencils. Naming a concrete kernel pins it for all blocks.
	Kernel KernelChoice
	// Layout picks the PDF field memory layout; the zero value is
	// LayoutAuto (the layout of the selected kernels, SoA for D3Q19).
	// Both layouts produce bit-identical fields; LayoutAoS selects the
	// non-split kernel family for comparison runs.
	Layout LayoutChoice
	// Tau is the relaxation time (stability requires > 0.5); the zero
	// value means 0.9.
	Tau float64
	// Magic is the TRT magic parameter; zero means 3/16.
	Magic float64
	// Workers is the number of intra-rank workers executing per-block
	// sweeps and pack/unpack concurrently (the hybrid "threads per
	// process" of the paper). 0 or 1 runs serially; any value yields
	// bit-identical results.
	Workers int
	// InitialRho and InitialVelocity initialize all fluid cells to the
	// corresponding equilibrium. Zero rho means 1.
	InitialRho      float64
	InitialVelocity [3]float64
	// InitialState, if non-nil, overrides the uniform initialization with
	// a per-cell equilibrium state; x, y, z are global cell coordinates.
	InitialState func(x, y, z int) (rho, ux, uy, uz float64)
	// Boundary configures wall velocities and outflow densities.
	Boundary boundary.Config
	// Force is a constant body force density applied to every fluid cell
	// after collision (simple first-order forcing), used e.g. to drive
	// Poiseuille flow.
	Force [3]float64
	// SetupFlags populates the flag field of each block (voxelization,
	// domain walls). nil means: all interior cells fluid, ghost cells at
	// the domain boundary NoSlip walls, remaining ghosts fluid.
	SetupFlags func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField)
	// Tracer, when non-nil, records per-phase spans of the step pipeline,
	// the worker pool, the communication runtime and the resilience stack
	// into this rank's tracer (see docs/TELEMETRY.md). nil disables
	// tracing at the cost of one branch per recording site.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, is the registry the simulation and its
	// communicator update with counters (phase nanoseconds, comm traffic,
	// checkpoint bytes) and gauges (mailbox occupancy, load imbalance).
	Metrics *telemetry.Registry
}

// Validate normalizes the configuration in place — filling every zero
// value with its documented default — and reports the first invalid
// setting. It is the single normalization point for solver options:
// hand-built configs (New calls it), scenario-built configs
// (internal/scenario) and the daemon sessions (internal/serve) all pass
// through it, so a Config that survived Validate means the same
// simulation everywhere.
func (c *Config) Validate() error {
	if c.Stencil == nil {
		c.Stencil = lattice.D3Q19()
	}
	if c.Kernel == "" {
		c.Kernel = KernelAuto
	}
	if c.Layout == "" {
		c.Layout = LayoutAuto
	}
	switch c.Layout {
	case LayoutAuto, LayoutAoS, LayoutSoA:
	default:
		return fmt.Errorf("sim: unknown layout %q (want auto, aos or soa)", c.Layout)
	}
	if c.Kernel != KernelAuto {
		switch c.Kernel {
		case KernelGenericSRT, KernelGenericTRT, KernelD3Q19SRT, KernelD3Q19TRT,
			KernelSplitSRT, KernelSplitTRT, KernelSparse:
		default:
			return fmt.Errorf("sim: unknown kernel %q", c.Kernel)
		}
		if kl := kernelLayout(c.Kernel); (c.Layout == LayoutAoS && kl != field.AoS) ||
			(c.Layout == LayoutSoA && kl != field.SoA) {
			return fmt.Errorf("sim: kernel %s runs on %v fields, conflicting with layout %s",
				c.Kernel, kl, c.Layout)
		}
	}
	if c.Stencil != lattice.D3Q19() {
		if c.Kernel != KernelAuto && c.Kernel != KernelGenericSRT && c.Kernel != KernelGenericTRT {
			return fmt.Errorf("sim: stencil %s requires a generic kernel", c.Stencil)
		}
		if c.Layout == LayoutSoA {
			return fmt.Errorf("sim: stencil %s runs through the generic AoS kernels; layout soa is unsupported", c.Stencil)
		}
	}
	if c.Tau == 0 {
		c.Tau = 0.9
	}
	if c.Tau <= 0.5 {
		return fmt.Errorf("sim: tau %v must exceed 1/2", c.Tau)
	}
	if c.Magic == 0 {
		c.Magic = collide.MagicParameter
	}
	if c.InitialRho == 0 {
		c.InitialRho = 1
	}
	if c.Workers < 0 {
		return fmt.Errorf("sim: negative worker count %d", c.Workers)
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	return nil
}

// ParseKernelChoice maps a user-facing kernel name onto a KernelChoice.
// It accepts the family aliases of the CLI and scenario schema — "auto",
// "generic", "split", "sparse" — as well as the exact Figure 3 series
// names ("TRT SIMD", "SRT D3Q19", ...). Empty means auto.
func ParseKernelChoice(s string) (KernelChoice, error) {
	switch s {
	case "", string(KernelAuto):
		return KernelAuto, nil
	case "generic":
		return KernelGenericTRT, nil
	case "split":
		return KernelSplitTRT, nil
	case "sparse":
		return KernelSparse, nil
	}
	switch kc := KernelChoice(s); kc {
	case KernelGenericSRT, KernelGenericTRT, KernelD3Q19SRT, KernelD3Q19TRT,
		KernelSplitSRT, KernelSplitTRT, KernelSparse:
		return kc, nil
	}
	return "", fmt.Errorf("sim: unknown kernel %q (want auto, generic, split, sparse or a Figure 3 kernel name)", s)
}

// ParseLayoutChoice maps a user-facing layout name onto a LayoutChoice.
// Empty means auto.
func ParseLayoutChoice(s string) (LayoutChoice, error) {
	switch LayoutChoice(s) {
	case "", LayoutAuto:
		return LayoutAuto, nil
	case LayoutAoS:
		return LayoutAoS, nil
	case LayoutSoA:
		return LayoutSoA, nil
	}
	return "", fmt.Errorf("sim: unknown layout %q (want auto, aos or soa)", s)
}

// kernelLayout is the field layout each concrete kernel choice runs on.
func kernelLayout(k KernelChoice) field.Layout {
	switch k {
	case KernelSplitSRT, KernelSplitTRT, KernelSparse:
		return field.SoA
	}
	return field.AoS
}

// resolveKernel maps the configured kernel and layout onto the concrete
// kernel choice for one block, given the block's fluid fraction. It is the
// per-block selection point of KernelAuto: non-D3Q19 stencils fall back to
// the generic kernel, a forced AoS layout picks the D3Q19-specialized
// kernel, and SoA blocks get the interval sparse kernel when sparse enough
// and the dense split kernel otherwise. The choice is a pure function of
// (config, flags), so every rank that reconstructs a block — migration,
// buddy adoption — arrives at the same kernel.
func (c *Config) resolveKernel(fluidFrac float64) KernelChoice {
	if c.Kernel != KernelAuto {
		return c.Kernel
	}
	if c.Stencil != lattice.D3Q19() {
		return KernelGenericTRT
	}
	if c.Layout == LayoutAoS {
		return KernelD3Q19TRT
	}
	if fluidFrac < SparseFluidThreshold {
		return KernelSparse
	}
	return KernelSplitTRT
}

// allocationRows are the allocation rows a block's PDF fields store
// (field.NewPDFFieldRows): per (y, z) line of the ghosted block the x-hull
// of the cells some stencil velocity, rest included, links to an interior
// fluid cell. Every cell a kernel updates or pulls from, every boundary
// link and every ghost slot a fluid cell reads is such a cell; what lies
// outside keeps the uniform initial equilibrium for the whole run, which is
// what the fields report there (docs/KERNELS.md, "Allocation rows"). The
// hulls are the interior-fluid hulls of the neighboring rows, each widened
// by the x-reach of the velocities linking the two rows (D3Q19 has no
// corner links, so a diagonal neighbor row adds its hull unwidened). An
// all-fluid block keeps its whole ghosted box: its hulls miss only corner
// ghosts, and the box keeps dense blocks on the box formula. So does every
// block of a per-cell InitialState, which gives solid interior cells values
// of their own. Like the kernel choice it is a pure function of
// (config, flags): every rank that reconstructs a block arrives at the same
// rows, and raw field storage can travel as is.
func (c *Config) allocationRows(flags *field.FlagField, fluid int) *field.Rows {
	nx, ny, nz, g := flags.Nx, flags.Ny, flags.Nz, flags.Ghost
	if c.InitialState != nil || fluid == nx*ny*nz {
		return field.FullRows(nx, ny, nz, g)
	}
	// reach[cz+1][cy+1] is how far in x the velocities (·, cy, cz) reach, -1
	// where there is none.
	var reach [3][3]int
	for i := range reach {
		reach[i] = [3]int{-1, -1, -1}
	}
	st := c.Stencil
	for a := 0; a < st.Q; a++ {
		r := &reach[st.Cz[a]+1][st.Cy[a]+1]
		*r = max(*r, st.Cx[a], -st.Cx[a])
	}
	// The interior-fluid hull [lo, hi) of every interior row; lo >= hi when
	// the row has none.
	lo, hi := make([]int, ny*nz), make([]int, ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			i := z*ny + y
			lo[i], hi[i] = nx, 0
			for x := 0; x < nx; x++ {
				if flags.Get(x, y, z) == field.Fluid {
					lo[i], hi[i] = min(lo[i], x), x+1
				}
			}
		}
	}
	return field.NewRows(nx, ny, nz, g, func(y, z int) (int, int) {
		a, b := nx+g, -g
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				fy, fz, m := y+dy, z+dz, reach[dz+1][dy+1]
				if m < 0 || fy < 0 || fy >= ny || fz < 0 || fz >= nz {
					continue
				}
				if i := fz*ny + fy; lo[i] < hi[i] {
					a, b = min(a, lo[i]-m), max(b, hi[i]+m)
				}
			}
		}
		if a >= b {
			return 0, 0
		}
		return max(a, -g), min(b, nx+g)
	})
}

// blockKernel resolves and constructs the kernel of one block on the given
// refinement level from its flag field and fluid cell count, for PDF
// fields stored in rows.
func (c *Config) blockKernel(level int, flags *field.FlagField, fluid int, rows *field.Rows) (kernels.Kernel, KernelChoice, error) {
	choice := c.resolveKernel(float64(fluid) / float64(flags.Nx*flags.Ny*flags.Nz))
	k, err := kernels.New(kernels.Spec{
		Choice:  choice,
		Stencil: c.Stencil,
		Tau:     c.TauAt(level),
		Magic:   c.Magic,
		Flags:   flags,
		Rows:    rows,
	})
	return k, choice, err
}

// BlockData is the runtime state of one block on this rank.
type BlockData struct {
	Block    *blockforest.Block
	Src, Dst *field.PDFField
	Flags    *field.FlagField
	Kernel   kernels.Kernel
	Boundary *boundary.Sweep
	Fluid    int // fluid cell count
	// ComputeTime accumulates this block's kernel time, the measured
	// workload used by dynamic rebalancing.
	ComputeTime time.Duration

	// sweepFlags is the flag field the kernel sweep receives: nil for
	// fully-fluid blocks under non-flag-bound kernels (selecting the
	// kernels' dense fast path, which skips all per-cell flag tests),
	// the block's Flags otherwise.
	sweepFlags *field.FlagField

	// Per-step phase timing scratch, written by the worker executing this
	// block's sweep and reduced into the rank timers in deterministic
	// block order after the join.
	stepBoundary time.Duration
	stepCompute  time.Duration
}

// Simulation is the per-rank simulation state.
type Simulation struct {
	Comm    *comm.Comm
	Forest  *blockforest.BlockForest
	Stencil *lattice.Stencil
	Config  Config
	Blocks  []*BlockData

	byCoord map[[3]int]*BlockData

	// levels holds the exchange plan of every level present (aggregate.go),
	// one for a uniform world; exchange runs the uniform step's exchange on
	// it (the tests swap in their per-pair oracle). A refined world adds
	// its blocks per level, their sweep counts and its Resampler
	// (levels.go).
	levels      []plan
	exchange    exchanger
	levelBlocks [][]*BlockData
	levelSweeps []int
	resample    Resampler

	// Hybrid execution state: the worker pool, the frontier/interior
	// block split (frontier blocks have off-rank neighbors and must wait
	// for remote ghost data; interior blocks sweep while communication is
	// in flight), and the precomputed body-force increments. sweepList and
	// sweepFn are the persistent argument slot and closure of sweepBlocks.
	pool      workerPool
	interior  []*BlockData
	frontier  []*BlockData
	sweepList []*BlockData
	sweepFn   func(int, int)
	force     *forcing

	// tel holds the pre-resolved telemetry handles (telemetry.go); its
	// members are nil-safe, so untraced simulations pay one branch per
	// recording site.
	tel simTel

	computeTime  time.Duration
	commTime     time.Duration
	boundaryTime time.Duration
	overlap      OverlapTimes
	steps        int
	// worldSteps is the cumulative simulated-time step, never reset by
	// ResetTimers, advanced by both drivers and set to the restored step by
	// restores. The plain driver announces it to the fault injector so a
	// scenario's deterministic fault schedule fires at absolute steps even
	// when the run is split into many RunCtx batches (the serve daemon);
	// the resilient driver starts its loop there.
	worldSteps int
}

// New builds the simulation state for this rank's part of the forest.
func New(c *comm.Comm, forest *blockforest.BlockForest, cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulation{
		Comm:     c,
		Forest:   forest,
		Stencil:  cfg.Stencil,
		Config:   cfg,
		byCoord:  make(map[[3]int]*BlockData),
		exchange: aggregated{},
		pool:     workerPool{workers: cfg.Workers},
		force:    newForcing(cfg.Stencil, cfg.Force),
	}
	s.tel = resolveSimTel(cfg.Tracer, cfg.Metrics)
	// The rank's driver goroutine owns lane 0, so the communicator shares
	// it for send/recv/barrier spans.
	c.SetTelemetry(cfg.Tracer.Driver(), cfg.Metrics)
	if c.TransportName() != "inproc" {
		// The socket transport's lifecycle events (connects, resends,
		// accusations) happen on background goroutines; give them their own
		// lane so they never contend with the driver's.
		var lane *telemetry.Lane
		if cfg.Tracer != nil {
			lane = cfg.Tracer.AddLane("net", 0)
		}
		c.SetNetTelemetry(lane, cfg.Metrics)
	}
	for _, b := range forest.Blocks {
		bd, err := s.newBlockData(b)
		if err != nil {
			return nil, err
		}
		s.Blocks = append(s.Blocks, bd)
		s.byCoord[b.Coord] = bd
	}
	s.sweepFn = func(worker, i int) {
		bd := s.sweepList[i]
		lane := s.tel.worker(worker)
		laneStart := lane.Start()
		tb := time.Now()
		bd.Boundary.Apply(bd.Src)
		tk := time.Now()
		bd.Kernel.Sweep(bd.Src, bd.Dst, bd.sweepFlags)
		s.force.apply(bd)
		bd.stepBoundary = tk.Sub(tb)
		bd.stepCompute = time.Since(tk)
		if lane != nil {
			// Reuse the durations just measured instead of stamping each
			// boundary live — two fewer clock reads per block.
			mid := laneStart + int64(bd.stepBoundary)
			lane.SpanAt(telemetry.PhaseBoundary, s.steps, int32(i), laneStart, mid)
			lane.SpanAt(telemetry.PhaseCollideStream, s.steps, int32(i), mid, mid+int64(bd.stepCompute))
		}
	}
	if err := s.rebuildPlan(true); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Simulation) newBlockData(b *blockforest.Block) (*BlockData, error) {
	cells := b.Cells
	flags := field.NewFlagField(cells[0], cells[1], cells[2], 1)
	if s.Config.SetupFlags != nil {
		s.Config.SetupFlags(b, s.Forest, flags)
	} else {
		defaultFlags(b, s.Forest, flags)
	}
	bd, err := s.AssembleBlock(b, flags, nil, nil)
	if err != nil {
		return nil, err
	}
	s.applyInitialState(bd)
	return bd, nil
}

// AssembleBlock builds the runtime state of a block from its flag field:
// the kernel (relaxing at the relaxation time of the block's refinement
// level), the two PDF fields stored in the block's allocation rows, and
// the boundary sweep. The fields hold the uniform initial equilibrium —
// or, given src and dst (state the caller hands over, like a migrated
// block's decoded fields), that state: src and dst themselves where they
// already have the block's layout and rows, a copy otherwise. It is the
// one place a block comes into being — construction, migration install,
// buddy adoption, heal and every leaf of a refined world pass through it —
// so a block rebuilt on another rank gets the identical kernel and rows.
func (s *Simulation) AssembleBlock(b *blockforest.Block, flags *field.FlagField, src, dst *field.PDFField) (*BlockData, error) {
	fluid := flags.Count(field.Fluid)
	rows := s.Config.allocationRows(flags, fluid)
	if src != nil && src.Rows().Equal(rows) {
		rows = src.Rows() // one table for kernel and fields
	}
	k, choice, err := s.Config.blockKernel(int(b.ID.Level), flags, fluid, rows)
	if err != nil {
		return nil, err
	}
	bd := &BlockData{
		Block:      b,
		Src:        src,
		Dst:        dst,
		Flags:      flags,
		Kernel:     k,
		Boundary:   boundary.NewSweep(s.Stencil, flags, s.Config.Boundary),
		Fluid:      fluid,
		sweepFlags: denseSweepFlags(choice, flags, fluid),
	}
	cells := b.Cells
	if src == nil || src.Rows() != rows || dst.Rows() != rows || src.Stencil != s.Stencil || dst.Stencil != s.Stencil ||
		src.Layout != k.Layout() || dst.Layout != k.Layout() || src.Nx != cells[0] || src.Ny != cells[1] || src.Nz != cells[2] || src.Ghost != 1 {
		bd.Src = field.NewPDFFieldRows(s.Stencil, k.Layout(), rows)
		bd.Dst = bd.Src.CopyShape()
		s.fillUniform(bd)
		if src != nil {
			bd.Src.CopyFrom(src)
			bd.Dst.CopyFrom(dst)
		}
	}
	return bd, nil
}

// denseSweepFlags picks the flag field a block's kernel sweep receives:
// nil when every interior cell is fluid and the kernel is not bound to its
// flag field — the dense fast path — and the block's flags otherwise.
func denseSweepFlags(choice KernelChoice, flags *field.FlagField, fluid int) *field.FlagField {
	if choice != KernelSparse && fluid == flags.Nx*flags.Ny*flags.Nz {
		return nil
	}
	return flags
}

// initBlockState (re)initializes a block's PDF fields to the configured
// step-zero state. A resilient restart that finds no valid checkpoint set
// rolls the fields back to exactly this state.
func (s *Simulation) initBlockState(bd *BlockData) {
	s.fillUniform(bd)
	s.applyInitialState(bd)
}

// fillUniform sets both PDF fields of a block to the equilibrium of the
// configured uniform initial density and velocity — also the value their
// cells outside the allocation rows report from then on.
func (s *Simulation) fillUniform(bd *BlockData) {
	v := s.Config.InitialVelocity
	bd.Src.FillEquilibrium(s.Config.InitialRho, v[0], v[1], v[2])
	bd.Dst.FillEquilibrium(s.Config.InitialRho, v[0], v[1], v[2])
}

// applyInitialState overrides the interior of Src with the per-cell
// equilibrium of Config.InitialState, if one is configured.
func (s *Simulation) applyInitialState(bd *BlockData) {
	if s.Config.InitialState == nil {
		return
	}
	cells := bd.Block.Cells
	feq := make([]float64, s.Stencil.Q)
	base := [3]int{bd.Block.Coord[0] * cells[0], bd.Block.Coord[1] * cells[1], bd.Block.Coord[2] * cells[2]}
	for z := 0; z < cells[2]; z++ {
		for y := 0; y < cells[1]; y++ {
			for x := 0; x < cells[0]; x++ {
				rho, ux, uy, uz := s.Config.InitialState(base[0]+x, base[1]+y, base[2]+z)
				s.Stencil.Equilibrium(feq, rho, ux, uy, uz)
				for a := 0; a < s.Stencil.Q; a++ {
					bd.Src.Set(x, y, z, lattice.Direction(a), feq[a])
				}
			}
		}
	}
}

// defaultFlags marks all interior cells fluid and ghost layers at the
// domain boundary (no neighbor, non-periodic) as no-slip walls; ghost
// layers toward existing neighbors stay fluid (they receive data).
func defaultFlags(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
	flags.Fill(field.Fluid)
	for f := lattice.FaceW; f < lattice.NumFaces; f++ {
		nx, ny, nz := f.Normal()
		if b.Neighbor([3]int{nx, ny, nz}) != nil {
			continue
		}
		markGhostFace(flags, f, field.NoSlip)
	}
}

// markGhostFace sets the ghost slab beyond the given face (including its
// edges and corners on that side) to the cell type.
func markGhostFace(flags *field.FlagField, f lattice.Face, t field.CellType) {
	g := flags.Ghost
	nx, ny, nz := f.Normal()
	for z := -g; z < flags.Nz+g; z++ {
		for y := -g; y < flags.Ny+g; y++ {
			for x := -g; x < flags.Nx+g; x++ {
				if (nx < 0 && x >= 0) || (nx > 0 && x < flags.Nx) ||
					(ny < 0 && y >= 0) || (ny > 0 && y < flags.Ny) ||
					(nz < 0 && z >= 0) || (nz > 0 && z < flags.Nz) {
					continue
				}
				flags.Set(x, y, z, t)
			}
		}
	}
}

// MarkGhostFace is exported for scenario setup hooks.
func MarkGhostFace(flags *field.FlagField, f lattice.Face, t field.CellType) {
	markGhostFace(flags, f, t)
}

// Step advances the simulation by one time step, overlapping the
// ghost-layer exchange with the interior sweeps:
//
//  1. post the exchange — pack the remote boundary slabs (on the worker
//     pool), send them, post remote receives, copy between same-rank
//     blocks;
//  2. sweep the interior blocks (no off-rank neighbors) on the worker
//     pool while remote data is in flight;
//  3. complete the exchange — wait for the remote slabs and unpack them
//     into the frontier blocks' ghost layers;
//  4. sweep the frontier blocks;
//  5. swap the PDF fields.
//
// Each block's sweep fuses boundary handling, the stream-collide kernel
// and body forcing; blocks touch disjoint state, so any execution order
// produces bit-identical fields. Step returns a typed
// *comm.RankFailedError when a peer dies mid-step, leaving this rank's
// fields in an unspecified state that only a checkpoint restore (or
// re-initialization) may repair.
func (s *Simulation) Step() error {
	s.Comm.SetTelemetryStep(s.steps)
	stepStart := s.tel.driver.Start()
	t0 := time.Now()
	if err := s.postExchange(); err != nil {
		return err
	}
	t1 := time.Now()
	post := t1.Sub(t0)
	s.overlap.Post += post

	s.sweepBlocks(s.interior)
	t2 := time.Now()
	interior := t2.Sub(t1)
	s.overlap.Interior += interior

	if err := s.completeExchange(); err != nil {
		return err
	}
	t3 := time.Now()
	wait := t3.Sub(t2)
	s.overlap.Wait += wait

	s.sweepBlocks(s.frontier)
	frontier := time.Since(t3)
	s.overlap.Frontier += frontier

	s.commTime = s.overlap.Post + s.overlap.Wait
	for _, bd := range s.Blocks {
		field.Swap(bd.Src, bd.Dst)
	}
	s.tel.stepPhases(s.steps, stepStart, post, interior, wait, frontier)
	s.steps++
	return nil
}

// sweepBlocks runs the fused per-block update — boundary handling,
// stream-collide, body force — for the given blocks on the worker pool,
// then reduces the per-block phase timings in deterministic block order.
// The sweep body is the persistent s.sweepFn closure; a fresh closure per
// call would escape to the heap on every invocation.
func (s *Simulation) sweepBlocks(bds []*BlockData) {
	s.sweepList = bds
	s.pool.run(len(bds), s.sweepFn)
	s.sweepList = nil
	var bNs, cNs time.Duration
	for _, bd := range bds {
		s.boundaryTime += bd.stepBoundary
		s.computeTime += bd.stepCompute
		bd.ComputeTime += bd.stepCompute
		bNs += bd.stepBoundary
		cNs += bd.stepCompute
	}
	s.tel.boundaryNs.Add(int64(bNs))
	s.tel.collideNs.Add(int64(cNs))
}

// rebuildPlan recomputes the exchange plans and the frontier/interior
// block split; it must run after any change to the block assignment or the
// neighborhood views (construction, rebalancing, failure recovery,
// re-grades).
//
// recycleBuffers controls whether the retired aggregate buffers of the
// previous plans return to the buffer pool. That is safe only when the
// rebuild trigger is collective among every rank that ever read those
// buffers: the in-process transport delivers sends zero-copy, so a peer's
// unpack reads alias our send buffers, and repacking a recycled buffer
// must happen-after those reads. Rebalancing qualifies (it starts with an
// Alltoall), and so do re-grades (an allgather). Failure recovery does NOT
// — a hung or crashed rank read our buffers and then retired without ever
// synchronizing again, so its final unpack has no happens-before edge to
// the recovery rendezvous. Recovery rebuilds must pass false and let the
// garbage collector take the retired buffers.
//
// The rebuild includes the mask handshake with every neighbor rank, so it
// is collective among the ranks that exchange with each other, and it
// returns the transport's error when one of them fails meanwhile.
func (s *Simulation) rebuildPlan(recycleBuffers bool) error {
	remote, err := s.exchange.build(s, recycleBuffers)
	if err != nil {
		return err
	}
	s.interior, s.frontier = nil, nil
	for _, bd := range s.Blocks {
		if remote[bd] {
			s.frontier = append(s.frontier, bd)
		} else {
			s.interior = append(s.interior, bd)
		}
	}
	return nil
}

// Run advances the given number of steps and returns the metrics of the
// run (globally reduced over all ranks).
func (s *Simulation) Run(steps int) (Metrics, error) {
	return s.RunCtx(context.Background(), steps)
}

// RunCtx is Run bound to a context: a cancellation stops the time loop at
// the next step boundary with an error wrapping ErrInterrupted. Because
// ranks observe the cancellation asynchronously, a cancellable context
// (ctx.Done() != nil) adds one scalar allreduce per step — the "stop?"
// vote that keeps every rank exiting at the same step instead of
// deadlocking its peers mid-exchange. A background context skips the vote
// and is byte-for-byte the uncancellable Run.
func (s *Simulation) RunCtx(ctx context.Context, steps int) (Metrics, error) {
	s.ResetTimers()
	start := time.Now()
	for i := 0; i < steps; i++ {
		if stop, err := resilience.CancelVote(ctx, s.Comm); err != nil {
			return Metrics{}, err
		} else if stop {
			return Metrics{}, resilience.Interrupted(ctx)
		}
		// Announce the absolute step to the fault injector (free without a
		// plan). The resilient drivers announce their own replay-aware step
		// and never come through here.
		s.worldSteps++
		s.Comm.SetStep(s.worldSteps)
		if err := s.Step(); err != nil {
			return Metrics{}, err
		}
	}
	wall := time.Since(start)
	return s.gatherMetrics(steps, wall)
}

// SetForce replaces the constant body force applied after collision —
// the steering hook of the session API. Every rank must call it at the
// same step boundary (it changes the physics deterministically from the
// next step on).
func (s *Simulation) SetForce(f [3]float64) {
	s.Config.Force = f
	s.force = newForcing(s.Stencil, f)
}

// Steps returns the number of time steps executed since the last timer
// reset.
func (s *Simulation) Steps() int { return s.steps }

// WorldStep returns the simulated-time step the fields are at: every step
// taken since New, counted from the step of the last restored checkpoint
// set.
func (s *Simulation) WorldStep() int { return s.worldSteps }

// ResetTimers zeroes the accumulated phase timers.
func (s *Simulation) ResetTimers() {
	s.computeTime, s.commTime, s.boundaryTime = 0, 0, 0
	s.overlap = OverlapTimes{}
	s.steps = 0
}

// Workers returns the configured intra-rank worker count.
func (s *Simulation) Workers() int { return s.pool.workers }

// BlockSplit returns the sizes of the frontier/interior block split:
// frontier blocks have off-rank neighbors and wait for remote ghost data,
// interior blocks sweep while communication is in flight.
func (s *Simulation) BlockSplit() (frontier, interior int) {
	return len(s.frontier), len(s.interior)
}

// LocalCells returns the number of allocated interior cells on this rank.
func (s *Simulation) LocalCells() int64 {
	var n int64
	for _, bd := range s.Blocks {
		n += int64(bd.Src.InteriorCells())
	}
	return n
}

// FieldCells returns the PDF field footprint of this rank in cells, per
// field: allocated is what the blocks' allocation rows store, block what
// whole ghosted blocks would. Memory follows the fluid a rank owns when
// allocated stays near the cells around the fluid; the two are equal on
// all-fluid worlds.
func (s *Simulation) FieldCells() (allocated, block int64) {
	for _, bd := range s.Blocks {
		f := bd.Src
		allocated += int64(f.AllocatedCells())
		block += int64(field.FullWindow(f.Nx, f.Ny, f.Nz, f.Ghost).Cells())
	}
	return allocated, block
}

// LocalFluidCells returns the number of fluid cells on this rank.
func (s *Simulation) LocalFluidCells() int64 {
	var n int64
	for _, bd := range s.Blocks {
		n += int64(bd.Fluid)
	}
	return n
}

// BlockByCoord returns this rank's block data at the given grid coordinate
// or nil.
func (s *Simulation) BlockByCoord(c [3]int) *BlockData { return s.byCoord[c] }
