// Package scenario defines the versioned, validated JSON scenario schema
// — the single source of truth for what a simulation *is*, consumed by
// both the walberla-sim CLI (flags become overrides parsed into the same
// struct) and the walberla-serve session daemon (scenarios arrive over
// HTTP). A scenario that survives Parse/Validate maps deterministically
// onto a core.Problem, so the CLI and the daemon running the same file
// produce bit-identical fields (compare with sim.FieldHash).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"walberla/internal/amr"
	"walberla/internal/boundary"
	"walberla/internal/comm"
	"walberla/internal/core"
	"walberla/internal/distance"
	"walberla/internal/lattice"
	"walberla/internal/sim"
	"walberla/internal/vascular"
)

// Version is the current schema version. Parse rejects any other value:
// scenarios are configuration contracts, and silently reinterpreting an
// old file under new semantics is worse than a hard error.
const Version = 1

// Scenario is the complete declarative description of one simulation.
// The zero value of every optional field means "use the documented
// default"; Validate fills the defaults in place so a validated scenario
// is self-describing.
type Scenario struct {
	// Version must equal Version (1).
	Version int `json:"version"`
	// Name is a free-form label (shows up in session listings and
	// telemetry); optional.
	Name string `json:"name,omitempty"`

	Geometry   Geometry       `json:"geometry"`
	Lattice    Lattice        `json:"lattice"`
	Resolution Resolution     `json:"resolution"`
	Collision  Collision      `json:"collision"`
	Physics    Physics        `json:"physics"`
	Refinement RefinementSpec `json:"refinement"`
	Parallel   Parallel       `json:"parallel"`
	Transport  Transport      `json:"transport"`
	Resilience Resilience     `json:"resilience"`
	Faults     Faults         `json:"faults"`
	Telemetry  Telemetry      `json:"telemetry"`
	Run        RunSpec        `json:"run"`

	// tree memoises the generated geometry of the tree example, so that
	// Validate and every later Problem call share one generation instead
	// of repeating it (see treeSDF). Never serialised; copies of the
	// scenario share it until their geometry fields diverge.
	tree *treeGeometry
}

// treeGeometry is a generated tree with the geometry fields it was
// generated from.
type treeGeometry struct {
	depth int
	seed  int64
	sdf   *distance.Union
}

// treeSDF returns the signed distance field of the tree example:
// vascular.Generate plus one mesh SDF with its octree per segment, by far
// the most expensive part of mapping a scenario. It is generated once per
// scenario value and reused for as long as the fields it depends on are
// unchanged; a copy whose tree_depth or seed was edited regenerates. The
// field is immutable once built, so problems and worlds may share it.
func (sc *Scenario) treeSDF() (*distance.Union, error) {
	depth, seed := sc.Geometry.TreeDepth, sc.Geometry.Seed
	if t := sc.tree; t != nil && t.depth == depth && t.seed == seed {
		return t.sdf, nil
	}
	vp := vascular.DefaultParams()
	vp.Depth = depth
	vp.Seed = seed
	sdf, err := vascular.Generate(vp).SDF()
	if err != nil {
		return nil, err
	}
	sc.tree = &treeGeometry{depth: depth, seed: seed, sdf: sdf}
	return sdf, nil
}

// Geometry selects the domain and its driving boundary conditions.
type Geometry struct {
	// Example is the built-in scenario family: "cavity" (lid-driven
	// cavity, the paper's dense weak-scaling workload), "channel" (inflow/
	// outflow channel with an optional box obstacle), "taylor-green"
	// (periodic analytic vortex), or "tree" (the synthetic coronary tree
	// voxelized from its signed distance field, the paper's complex
	// geometry).
	Example string `json:"example"`
	// LidVelocity drives the +z lid of the cavity; default 0.05.
	LidVelocity float64 `json:"lid_velocity,omitempty"`
	// InflowVelocity drives channel (+x) and tree (+z) inflow; default 0.02.
	InflowVelocity float64 `json:"inflow_velocity,omitempty"`
	// Amplitude is the taylor-green initial velocity amplitude; default 0.02.
	Amplitude float64 `json:"amplitude,omitempty"`
	// Obstacle places a no-slip box (global cell coordinates, half-open
	// [min, max)) into the channel example.
	Obstacle *Obstacle `json:"obstacle,omitempty"`
	// TreeDepth is the bifurcation depth of the synthetic tree; default 3.
	TreeDepth int `json:"tree_depth,omitempty"`
	// Dx is the lattice spacing of the tree example (required there).
	Dx float64 `json:"dx,omitempty"`
	// Seed drives randomized setup stages (tree generation, balancing).
	Seed int64 `json:"seed,omitempty"`
}

// Obstacle is an axis-aligned box in global cell coordinates.
type Obstacle struct {
	Min [3]int `json:"min"`
	Max [3]int `json:"max"`
}

// Lattice selects the discrete velocity model.
type Lattice struct {
	// Stencil is "d3q19" (default), "d3q27" or "d2q9".
	Stencil string `json:"stencil,omitempty"`
}

// Resolution fixes the block decomposition. Dense examples (cavity,
// channel, taylor-green) require Grid; the tree example derives its grid
// from the geometry bounds and Dx.
type Resolution struct {
	// Grid is the block grid of dense examples.
	Grid [3]int `json:"grid,omitempty"`
	// CellsPerBlock is the per-block cell grid; default [8 8 8].
	CellsPerBlock [3]int `json:"cells_per_block,omitempty"`
}

// Collision configures the collision operator.
type Collision struct {
	// Kernel picks the compute kernel: a family alias ("auto", "generic",
	// "split", "sparse") or an exact sim.KernelChoice name ("TRT SIMD",
	// "TRT Interval", "SRT Generic", ...). Empty or "auto" (the default)
	// selects per block at plan-build time — the split SoA kernel for
	// dense blocks, the interval sparse kernel below the fluid-fraction
	// threshold.
	Kernel string `json:"kernel,omitempty"`
	// Layout picks the PDF memory layout: "auto" (default; the selected
	// kernels' layout), "aos" or "soa". Both layouts produce bit-identical
	// fields.
	Layout string `json:"layout,omitempty"`
	// Tau is the relaxation time (> 0.5); default 0.9.
	Tau float64 `json:"tau,omitempty"`
	// Magic is the TRT magic parameter; default 3/16.
	Magic float64 `json:"magic,omitempty"`
}

// RefinementSpec enables runtime adaptive mesh refinement: the
// simulation runs on the AMR driver, which refines/coarsens a
// 2:1-graded block octree at runtime from a flow criterion and
// balances every re-grade by the data plane's one cut. See docs/AMR.md
// for the constraints (D3Q19, dense examples, no sparse kernels).
type RefinementSpec struct {
	// MaxLevel caps the refinement depth; 0 (the default) runs the
	// uniform drivers and makes the other fields invalid.
	MaxLevel int `json:"max_level,omitempty"`
	// Criterion is "gradient" (default; velocity-gradient magnitude) or
	// "vorticity".
	Criterion string `json:"criterion,omitempty"`
	// RefineAbove and CoarsenBelow are the criterion hysteresis band (in
	// physical units); refine_above must be positive, coarsen_below in
	// [0, refine_above).
	RefineAbove  float64 `json:"refine_above,omitempty"`
	CoarsenBelow float64 `json:"coarsen_below,omitempty"`
	// Interval is the number of coarse steps between controller passes;
	// default 4.
	Interval int `json:"interval,omitempty"`
}

// Physics sets body forces and the initial state.
type Physics struct {
	Force           [3]float64 `json:"force"`
	InitialRho      float64    `json:"initial_rho,omitempty"`
	InitialVelocity [3]float64 `json:"initial_velocity"`
}

// Parallel sets the execution shape: SPMD ranks, intra-rank workers and
// parked spares.
type Parallel struct {
	// Ranks is the number of SPMD processes; default 1.
	Ranks int `json:"ranks,omitempty"`
	// Workers is the intra-rank worker count; default 1.
	Workers int `json:"workers,omitempty"`
	// Spares parks this many extra ranks alongside the active world; heal
	// recovery recruits them to replace permanently failed ranks (needs
	// resilience.mode "heal").
	Spares int `json:"spares,omitempty"`
}

// Transport selects the rank interconnect.
type Transport struct {
	// Network is "inproc" (default), "unix" or "tcp".
	Network string `json:"network,omitempty"`
	// Addrs optionally pins one listen address per rank (socket
	// transports only; length must equal ranks + spares).
	Addrs []string `json:"addrs,omitempty"`
	// Heartbeat is the socket transport liveness probe interval.
	Heartbeat Duration `json:"heartbeat,omitempty"`
}

// Resilience configures the fault-tolerant driver. CheckpointEvery == 0
// runs the plain driver.
type Resilience struct {
	// CheckpointEvery takes a coordinated checkpoint set every N steps.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Dir is the checkpoint set directory, required to run rewind
	// checkpointing (a session daemon picks its own and refuses the key).
	Dir string `json:"dir,omitempty"`
	// Mode is "rewind" (default; disk checkpoint sets), "shrink"
	// (in-memory buddy replicas, survivors adopt a dead rank's blocks) or
	// "heal" (shrink, then recruit a parked spare back to full world size).
	Mode string `json:"mode,omitempty"`
	// MaxFailures aborts after this many rank failures; nil means the
	// driver default, explicit 0 aborts on the first failure.
	MaxFailures *int `json:"max_failures,omitempty"`
	// FailTimeout declares a rank failed when its beat has been missing
	// this long (silent-failure detection); zero disables it.
	FailTimeout Duration `json:"fail_timeout,omitempty"`
}

// Faults is a deterministic fault-injection schedule: the named ranks
// crash (declared failure) or hang (silent, needs resilience.fail_timeout
// to be detected) at the given steps. The schedule describes one world
// incarnation — a respawned serve session runs clean — and exists so
// recovery behavior is reproducible from a scenario file alone.
type Faults struct {
	// Seed perturbs fault timing deterministically; default 1.
	Seed int64 `json:"seed,omitempty"`
	// Crashes kill the named ranks at the named steps, declaring the
	// failure to the survivors.
	Crashes []FaultEvent `json:"crashes,omitempty"`
	// Hangs stop the named ranks silently; detection relies on
	// resilience.fail_timeout.
	Hangs []FaultEvent `json:"hangs,omitempty"`
}

// FaultEvent pins one injected fault to a world rank and a step.
type FaultEvent struct {
	Rank int `json:"rank"`
	Step int `json:"step"`
}

// empty reports whether the schedule injects nothing.
func (f *Faults) empty() bool { return len(f.Crashes) == 0 && len(f.Hangs) == 0 }

// Telemetry opts the run into span tracing and the metrics registry.
type Telemetry struct {
	// Metrics enables per-rank counter/gauge registries (the daemon
	// always enables them per session and labels them with the session).
	Metrics bool `json:"metrics,omitempty"`
	// Trace records per-phase spans for a Chrome-trace export.
	Trace bool `json:"trace,omitempty"`
}

// RunSpec sets the time loop.
type RunSpec struct {
	// Steps is the number of time steps; must be positive.
	Steps int `json:"steps"`
	// RebalanceEvery rebalances blocks by measured compute time every N
	// steps, under every driver and on refined worlds too; 0 disables it.
	RebalanceEvery int `json:"rebalance_every,omitempty"`
}

// Duration marshals as a Go duration string ("250ms") and also accepts
// plain JSON numbers (nanoseconds) for programmatic producers.
type Duration time.Duration

// MarshalJSON renders the duration as its canonical string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"250ms\" or nanoseconds, got %s", b)
	}
	*d = Duration(n)
	return nil
}

// Parse decodes, version-checks and validates a scenario document.
// Unknown fields are rejected — a typo in a scenario file must fail
// loudly, not silently fall back to a default.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after the document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// ParseFile reads and parses a scenario file.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Validate normalizes the scenario in place (filling documented
// defaults) and reports the first invalid setting. Solver-level numeric
// checks are delegated to sim.Config.Validate via the built problem, so
// scenario-built and hand-built configurations share one normalization
// point.
func (sc *Scenario) Validate() error {
	if sc.Version != Version {
		return fmt.Errorf("scenario: unsupported version %d (this build speaks version %d)", sc.Version, Version)
	}
	switch sc.Geometry.Example {
	case "cavity", "channel", "taylor-green", "tree":
	case "":
		return fmt.Errorf("scenario: geometry.example is required (cavity, channel, taylor-green or tree)")
	default:
		return fmt.Errorf("scenario: unknown geometry.example %q (want cavity, channel, taylor-green or tree)", sc.Geometry.Example)
	}
	switch sc.Lattice.Stencil {
	case "":
		sc.Lattice.Stencil = "d3q19"
	case "d3q19", "d3q27", "d2q9":
	default:
		return fmt.Errorf("scenario: unknown lattice.stencil %q (want d3q19, d3q27 or d2q9)", sc.Lattice.Stencil)
	}
	if sc.Geometry.LidVelocity == 0 {
		sc.Geometry.LidVelocity = 0.05
	}
	if sc.Geometry.InflowVelocity == 0 {
		sc.Geometry.InflowVelocity = 0.02
	}
	if sc.Geometry.Amplitude == 0 {
		sc.Geometry.Amplitude = 0.02
	}
	if sc.Geometry.TreeDepth == 0 {
		sc.Geometry.TreeDepth = 3
	}
	if sc.Geometry.Seed == 0 {
		sc.Geometry.Seed = 1
	}
	if sc.Resolution.CellsPerBlock == [3]int{} {
		sc.Resolution.CellsPerBlock = [3]int{8, 8, 8}
	}
	// Normalize kernel/layout names here so a validated scenario records
	// the canonical choice (family aliases resolve to concrete names,
	// empty resolves to auto); cross-checks against the stencil are
	// delegated to sim.Config.Validate below.
	kc, err := sim.ParseKernelChoice(sc.Collision.Kernel)
	if err != nil {
		return fmt.Errorf("scenario: collision.kernel: %w", err)
	}
	sc.Collision.Kernel = string(kc)
	lc, err := sim.ParseLayoutChoice(sc.Collision.Layout)
	if err != nil {
		return fmt.Errorf("scenario: collision.layout: %w", err)
	}
	sc.Collision.Layout = string(lc)
	for d := 0; d < 3; d++ {
		if sc.Resolution.CellsPerBlock[d] <= 0 {
			return fmt.Errorf("scenario: resolution.cells_per_block must be positive, got %v", sc.Resolution.CellsPerBlock)
		}
	}
	if sc.Geometry.Example == "tree" {
		if sc.Geometry.Dx <= 0 {
			return fmt.Errorf("scenario: the tree example needs geometry.dx > 0")
		}
	} else {
		for d := 0; d < 3; d++ {
			if sc.Resolution.Grid[d] <= 0 {
				return fmt.Errorf("scenario: the %s example needs a positive resolution.grid, got %v",
					sc.Geometry.Example, sc.Resolution.Grid)
			}
		}
	}
	if ob := sc.Geometry.Obstacle; ob != nil {
		if sc.Geometry.Example != "channel" {
			return fmt.Errorf("scenario: geometry.obstacle only applies to the channel example")
		}
		for d := 0; d < 3; d++ {
			if ob.Min[d] >= ob.Max[d] {
				return fmt.Errorf("scenario: geometry.obstacle box is empty on axis %d (min %v, max %v)", d, ob.Min, ob.Max)
			}
		}
	}
	if sc.Parallel.Ranks == 0 {
		sc.Parallel.Ranks = 1
	}
	if sc.Parallel.Ranks < 0 {
		return fmt.Errorf("scenario: parallel.ranks must be positive, got %d", sc.Parallel.Ranks)
	}
	if sc.Parallel.Workers == 0 {
		sc.Parallel.Workers = 1
	}
	switch sc.Transport.Network {
	case "":
		sc.Transport.Network = "inproc"
	case "inproc", "unix", "tcp":
	default:
		return fmt.Errorf("scenario: unknown transport.network %q (want inproc, unix or tcp)", sc.Transport.Network)
	}
	if sc.Transport.Network == "inproc" && (len(sc.Transport.Addrs) != 0 || sc.Transport.Heartbeat != 0) {
		return fmt.Errorf("scenario: transport.addrs/heartbeat need network unix or tcp")
	}
	if sc.Resilience.CheckpointEvery < 0 {
		return fmt.Errorf("scenario: resilience.checkpoint_every must be non-negative, got %d", sc.Resilience.CheckpointEvery)
	}
	switch sc.Resilience.Mode {
	case "":
		sc.Resilience.Mode = "rewind"
	case "rewind", "shrink", "heal":
	default:
		return fmt.Errorf("scenario: unknown resilience.mode %q (want rewind, shrink or heal)", sc.Resilience.Mode)
	}
	if sc.Parallel.Spares < 0 {
		return fmt.Errorf("scenario: parallel.spares must be non-negative, got %d", sc.Parallel.Spares)
	}
	if sc.Parallel.Spares > 0 {
		if sc.Resilience.Mode != "heal" {
			return fmt.Errorf("scenario: parallel.spares needs resilience.mode \"heal\", got %q", sc.Resilience.Mode)
		}
		if sc.Resilience.CheckpointEvery <= 0 {
			return fmt.Errorf("scenario: parallel.spares needs resilience.checkpoint_every > 0")
		}
	}
	world := sc.Parallel.Ranks + sc.Parallel.Spares
	if !sc.Faults.empty() {
		for _, kind := range []struct {
			name   string
			events []FaultEvent
		}{{"crashes", sc.Faults.Crashes}, {"hangs", sc.Faults.Hangs}} {
			for _, ev := range kind.events {
				if ev.Rank < 0 || ev.Rank >= world {
					return fmt.Errorf("scenario: faults.%s rank %d out of range [0, %d)", kind.name, ev.Rank, world)
				}
				if ev.Step < 1 || ev.Step > sc.Run.Steps {
					return fmt.Errorf("scenario: faults.%s step %d out of range [1, %d]", kind.name, ev.Step, sc.Run.Steps)
				}
			}
		}
		if sc.Resilience.CheckpointEvery <= 0 {
			return fmt.Errorf("scenario: a faults schedule needs the fault-tolerant driver (resilience.checkpoint_every > 0)")
		}
		if len(sc.Faults.Hangs) > 0 && sc.Resilience.FailTimeout <= 0 {
			return fmt.Errorf("scenario: faults.hangs need resilience.fail_timeout > 0 (silent-failure detection)")
		}
	}
	// With the fault events in range, what the communicator can still
	// reject is a negative duration (it checks those first) or the address
	// count (parallel.spares included).
	if err := sc.CommOptions().Validate(world); err != nil {
		key := "transport.addrs"
		if sc.Resilience.FailTimeout < 0 {
			key = "resilience.fail_timeout"
		} else if sc.Transport.Heartbeat < 0 {
			key = "transport.heartbeat"
		}
		return fmt.Errorf("scenario: %s: %w", key, err)
	}
	if sc.Run.Steps <= 0 {
		return fmt.Errorf("scenario: run.steps must be positive, got %d", sc.Run.Steps)
	}
	if sc.Run.RebalanceEvery < 0 {
		return fmt.Errorf("scenario: run.rebalance_every must be non-negative, got %d", sc.Run.RebalanceEvery)
	}
	if err := sc.validateRefinement(); err != nil || sc.AMR() {
		// A refined world's solver-level checks ran in
		// amr.Config.Validate, which runs the uniform one's too.
		return err
	}
	// Delegate solver-level checks (tau range, kernel/stencil pairing) to
	// the single normalization point; the built problem is discarded.
	p, err := sc.Problem()
	if err != nil {
		return err
	}
	cfg := p.SimConfig()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// stencil maps the schema name to the lattice model.
func (sc *Scenario) stencil() *lattice.Stencil {
	switch sc.Lattice.Stencil {
	case "d3q27":
		return lattice.D3Q27()
	case "d2q9":
		return lattice.D2Q9()
	default:
		return lattice.D3Q19()
	}
}

// Problem maps the scenario onto the core.Problem façade. The mapping is
// deterministic: calling it twice yields problems that build identical
// forests and identical solver configurations. The only state it touches
// is the tree example's memoised geometry (treeSDF), so like Validate it
// must not run concurrently on one Scenario value.
func (sc *Scenario) Problem() (*core.Problem, error) {
	kc, err := sim.ParseKernelChoice(sc.Collision.Kernel)
	if err != nil {
		return nil, fmt.Errorf("scenario: collision.kernel: %w", err)
	}
	lc, err := sim.ParseLayoutChoice(sc.Collision.Layout)
	if err != nil {
		return nil, fmt.Errorf("scenario: collision.layout: %w", err)
	}
	p := &core.Problem{
		CellsPerBlock:   sc.Resolution.CellsPerBlock,
		Stencil:         sc.stencil(),
		Kernel:          kc,
		Layout:          lc,
		Tau:             sc.Collision.Tau,
		Magic:           sc.Collision.Magic,
		Force:           sc.Physics.Force,
		InitialRho:      sc.Physics.InitialRho,
		InitialVelocity: sc.Physics.InitialVelocity,
		Ranks:           sc.Parallel.Ranks,
		Workers:         sc.Parallel.Workers,
		RebalanceEvery:  sc.Run.RebalanceEvery,
		Seed:            sc.Geometry.Seed,
		Refinement: amr.Refinement{
			MaxLevel:     sc.Refinement.MaxLevel,
			Criterion:    amr.Criterion(sc.Refinement.Criterion),
			RefineAbove:  sc.Refinement.RefineAbove,
			CoarsenBelow: sc.Refinement.CoarsenBelow,
			Interval:     sc.Refinement.Interval,
		},
	}
	switch sc.Geometry.Example {
	case "cavity":
		p.Grid = sc.Resolution.Grid
		p.Boundary = boundary.Config{WallVelocity: [3]float64{sc.Geometry.LidVelocity, 0, 0}}
		p.SetupFlags = core.CavityFlags
	case "channel":
		p.Grid = sc.Resolution.Grid
		p.Boundary = boundary.Config{WallVelocity: [3]float64{sc.Geometry.InflowVelocity, 0, 0}, Density: 1}
		var min, max [3]int
		if ob := sc.Geometry.Obstacle; ob != nil {
			min, max = ob.Min, ob.Max
		}
		p.SetupFlags = core.ChannelFlags(min, max)
	case "taylor-green":
		p.Grid = sc.Resolution.Grid
		p.Periodic = [3]bool{true, true, true}
		amp := sc.Geometry.Amplitude
		kx := 2 * math.Pi / float64(sc.Resolution.Grid[0]*sc.Resolution.CellsPerBlock[0])
		ky := 2 * math.Pi / float64(sc.Resolution.Grid[1]*sc.Resolution.CellsPerBlock[1])
		p.InitialState = func(x, y, z float64) (rho, ux, uy, uz float64) {
			return 1, amp * math.Cos(x*kx) * math.Sin(y*ky), -amp * math.Sin(x*kx) * math.Cos(y*ky), 0
		}
	case "tree":
		sdf, err := sc.treeSDF()
		if err != nil {
			return nil, fmt.Errorf("scenario: tree geometry: %w", err)
		}
		p.Geometry = sdf
		p.Dx = sc.Geometry.Dx
		p.Boundary = boundary.Config{WallVelocity: [3]float64{0, 0, sc.Geometry.InflowVelocity}, Density: 1}
		p.UseGraphPartitioner = true
	default:
		return nil, fmt.Errorf("scenario: unknown geometry.example %q", sc.Geometry.Example)
	}
	return p, nil
}

// CommOptions assembles the communicator options of the scenario,
// including its deterministic fault schedule (if any).
func (sc *Scenario) CommOptions() comm.Options {
	opts := comm.Options{FailTimeout: time.Duration(sc.Resilience.FailTimeout)}
	switch sc.Transport.Network {
	case "unix", "tcp":
		opts.Net = &comm.NetOptions{
			Network:        sc.Transport.Network,
			Addrs:          sc.Transport.Addrs,
			HeartbeatEvery: time.Duration(sc.Transport.Heartbeat),
		}
	}
	if !sc.Faults.empty() {
		plan := &comm.FaultPlan{Seed: sc.Faults.Seed}
		if plan.Seed == 0 {
			plan.Seed = 1
		}
		for _, ev := range sc.Faults.Crashes {
			plan.Crashes = append(plan.Crashes, comm.CrashSpec{Rank: ev.Rank, Step: ev.Step})
		}
		for _, ev := range sc.Faults.Hangs {
			plan.Hangs = append(plan.Hangs, comm.CrashSpec{Rank: ev.Rank, Step: ev.Step})
		}
		opts.Faults = plan
	}
	return opts
}

// Resilient maps the resilience section onto the fault-tolerant driver's
// configuration and reports whether the scenario runs it
// (checkpoint_every > 0).
func (sc *Scenario) Resilient() (sim.ResilienceConfig, bool) {
	rc := sim.ResilienceConfig{
		CheckpointEvery: sc.Resilience.CheckpointEvery,
		Dir:             sc.Resilience.Dir,
		MaxFailures:     -1,
	}
	switch sc.Resilience.Mode {
	case "shrink":
		rc.Mode = sim.RecoverShrink
	case "heal":
		rc.Mode = sim.RecoverHeal
	}
	if sc.Resilience.MaxFailures != nil {
		rc.MaxFailures = *sc.Resilience.MaxFailures
	}
	return rc, rc.CheckpointEvery > 0
}
