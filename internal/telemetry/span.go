// Package telemetry is the runtime observability layer of the framework:
// per-rank, per-worker span tracing into preallocated ring buffers, a
// counters/gauges/histograms metrics registry, and exporters for both —
// Chrome-trace/Perfetto JSON for the spans, JSON/CSV snapshots and an
// expvar-style HTTP endpoint for the metrics, plus a report comparing
// measured per-phase performance against the perfmodel roofline
// predictions (the paper's node-level validation, produced live by the
// running binary instead of offline analysis).
//
// Design constraints (see docs/TELEMETRY.md):
//
//   - Zero allocations on the hot path. Every span lands in a ring buffer
//     preallocated at tracer construction; every counter/histogram update
//     is a single atomic operation on preregistered state. A steady-state
//     simulation step records dozens of spans and updates without a single
//     heap allocation (asserted by TestStepZeroAllocTraced).
//   - Nil-check fast path. All recording methods are nil-safe: a disabled
//     tracer or registry is simply a nil pointer, and the instrumentation
//     costs exactly one predictable branch per call site.
//   - Single-writer lanes. Each lane is owned by one goroutine at a time
//     (the rank's driver, or worker k of a fork-join parallel region,
//     whose join happens-before the next region); no recording path takes
//     a lock. Exporting a trace is only safe after the runs that fed it
//     have finished.
package telemetry

import (
	"sync"
	"time"
)

// Phase identifies what a span measures. The set is closed so spans carry
// one byte instead of a string, keeping the hot path free of interning;
// the exporter maps phases back to names via phaseTable.
type Phase uint8

// Span phases of the simulation pipeline, the communication runtime and
// the resilience stack.
const (
	// PhaseStep is one full time step on the rank's driver goroutine (on
	// a refined world one coarse step, every level's sub-steps).
	PhaseStep Phase = iota
	// PhaseExchangePost is the first exchange half of one level sub-step:
	// pack (resampling transfers between levels included), send, local
	// copies, receive posts. Arg is the refinement level, as for the next
	// three phases.
	PhaseExchangePost
	// PhaseInteriorSweep covers the interior block sweeps that overlap the
	// in-flight communication.
	PhaseInteriorSweep
	// PhaseExchangeWait is the residual wait for remote ghost data plus
	// its unpack — the communication the overlap could not hide.
	PhaseExchangeWait
	// PhaseFrontierSweep covers the frontier block sweeps that needed the
	// remote data.
	PhaseFrontierSweep
	// PhaseBoundary is one block's boundary handling on a worker lane.
	PhaseBoundary
	// PhaseCollideStream is one block's fused stream-collide kernel sweep
	// (plus body forcing) on a worker lane.
	PhaseCollideStream
	// PhasePack is one pack task (one boundary slab into an aggregate
	// window) on a worker lane.
	PhasePack
	// PhaseUnpack is one unpack task on a worker lane.
	PhaseUnpack
	// PhaseLocalCopy is one task of same-rank block-to-block ghost copies.
	PhaseLocalCopy
	// PhaseResample is one pack task of a transfer between refinement
	// levels on a worker lane: the sender's interpolation (or restriction)
	// and rescale at the receiver's resolution, the arithmetic part of an
	// AMR exchange.
	PhaseResample
	// PhaseSend is one point-to-point send, including any backpressure
	// wait on a depth-bounded destination mailbox. Arg is the destination
	// world rank.
	PhaseSend
	// PhaseRecv is one blocking receive (or nonblocking completion). Arg
	// is the source world rank, -1 for wildcard receives.
	PhaseRecv
	// PhaseBarrier is one barrier collective.
	PhaseBarrier
	// PhaseCheckpoint is one coordinated disk checkpoint set
	// contribution.
	PhaseCheckpoint
	// PhaseReplicate is one buddy-replication generation (own snapshot,
	// encode, exchange with the buddy rank).
	PhaseReplicate
	// PhaseRecovery spans a whole recovery: backoff, rendezvous and state
	// restore, up to the simulation being ready to step again.
	PhaseRecovery
	// PhaseRestore is the state-restore part of a recovery alone.
	PhaseRestore
	// PhaseShrink is the communicator shrink plus block adoption of a
	// shrinking recovery.
	PhaseShrink
	// PhaseHeal is the world re-grow plus state streaming of a healing
	// recovery: recruit a spare, vote, forward the dead rank's blocks and
	// rebuild the topology at full size.
	PhaseHeal
	// PhaseFaultDelay marks a send stalled by fault injection, on either
	// transport (instant).
	PhaseFaultDelay
	// PhaseRankFailed marks a receive aborted by a declared rank failure
	// (instant). Arg is the failed world rank.
	PhaseRankFailed
	// PhaseNetConnect marks an established socket-transport connection
	// (instant). Arg is the peer world rank.
	PhaseNetConnect
	// PhaseNetReconnect marks a torn-down socket connection being redialed
	// or re-accepted (instant). Arg is the peer world rank.
	PhaseNetReconnect
	// PhaseNetResend marks retained frames being replayed to a peer after
	// a reconnect handshake (instant). Arg is the peer world rank.
	PhaseNetResend
	// PhaseNetFault marks an injected frame fault — drop, corruption or
	// sever (instant; stalls are PhaseFaultDelay). Arg is the peer world
	// rank.
	PhaseNetFault
	// PhaseNetAccuse marks the socket transport accusing a rank of failure
	// after a connection stalled past FailTimeout (instant). Arg is the
	// accused world rank.
	PhaseNetAccuse
	// PhaseRegrade spans one refine/coarsen controller pass: criterion
	// evaluation, mark gather and 2:1 re-grading. Arg is the number of
	// leaves after the pass.
	PhaseRegrade
	// PhaseMigrate spans the block migration of one re-grade: split,
	// ship, merge and plan rebuild. Arg is the number of leaves that
	// moved between ranks.
	PhaseMigrate
	// NumPhases bounds the phase space.
	NumPhases
)

// phaseInfo is the exporter-side description of one phase.
type phaseInfo struct {
	name    string
	argName string // meaning of Span.Arg, "" if unused
	instant bool   // rendered as an instant event, not a duration slice
}

var phaseTable = [NumPhases]phaseInfo{
	PhaseStep:          {name: "step"},
	PhaseExchangePost:  {name: "exchange-post", argName: "level"},
	PhaseInteriorSweep: {name: "interior-sweep", argName: "level"},
	PhaseExchangeWait:  {name: "exchange-wait", argName: "level"},
	PhaseFrontierSweep: {name: "frontier-sweep", argName: "level"},
	PhaseBoundary:      {name: "boundary", argName: "block"},
	PhaseCollideStream: {name: "collide-stream", argName: "block"},
	PhasePack:          {name: "pack", argName: "task"},
	PhaseUnpack:        {name: "unpack", argName: "task"},
	PhaseLocalCopy:     {name: "local-copy", argName: "task"},
	PhaseResample:      {name: "resample", argName: "task"},
	PhaseSend:          {name: "send", argName: "peer"},
	PhaseRecv:          {name: "recv", argName: "peer"},
	PhaseBarrier:       {name: "barrier"},
	PhaseCheckpoint:    {name: "checkpoint"},
	PhaseReplicate:     {name: "buddy-replicate"},
	PhaseRecovery:      {name: "recovery"},
	PhaseRestore:       {name: "restore"},
	PhaseShrink:        {name: "shrink"},
	PhaseHeal:          {name: "heal"},
	PhaseFaultDelay:    {name: "fault-delay", argName: "peer", instant: true},
	PhaseRankFailed:    {name: "rank-failed", argName: "rank", instant: true},
	PhaseNetConnect:    {name: "net-connect", argName: "peer", instant: true},
	PhaseNetReconnect:  {name: "net-reconnect", argName: "peer", instant: true},
	PhaseNetResend:     {name: "net-resend", argName: "peer", instant: true},
	PhaseNetFault:      {name: "net-fault", argName: "peer", instant: true},
	PhaseNetAccuse:     {name: "net-accuse", argName: "rank", instant: true},
	PhaseRegrade:       {name: "regrade", argName: "leaves"},
	PhaseMigrate:       {name: "migrate", argName: "moved"},
}

// String returns the phase's exporter name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseTable[p].name
	}
	return "?"
}

// Span is one recorded interval (or instant event) on a lane. Times are
// nanoseconds since the trace epoch, so spans from different ranks of one
// Trace share a time axis.
type Span struct {
	Start, End int64
	Step       int32
	Arg        int32
	Phase      Phase
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Lane is one single-writer span ring. The ring is preallocated at
// construction and overwrites its oldest spans when full, so a lane's
// memory is bounded for arbitrarily long runs and recording never
// allocates. All methods are nil-safe: recording on a nil lane is a
// single-branch no-op.
type Lane struct {
	epoch   time.Time
	spans   []Span
	head    int   // next write position
	wrapped bool  // ring has overwritten at least one span
	dropped int64 // spans overwritten
	busy    int64 // accumulated span durations, ns (instants excluded)
	id      int
	name    string
}

// Name returns the lane's display name ("driver", "worker 3").
func (l *Lane) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// Start stamps the beginning of a span: nanoseconds since the trace
// epoch. On a nil lane it returns 0 without reading the clock.
func (l *Lane) Start() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.epoch))
}

// Span records an interval from start (a Start stamp) to now.
func (l *Lane) Span(p Phase, step int, arg int32, start int64) {
	if l == nil {
		return
	}
	end := int64(time.Since(l.epoch))
	l.busy += end - start
	l.put(Span{Phase: p, Step: int32(step), Arg: arg, Start: start, End: end})
}

// SpanAt records an interval with explicit epoch-relative start and end
// stamps — for recorders that already measured the phase with their own
// clocks and reconstruct the boundaries without extra clock reads.
func (l *Lane) SpanAt(p Phase, step int, arg int32, start, end int64) {
	if l == nil {
		return
	}
	l.busy += end - start
	l.put(Span{Phase: p, Step: int32(step), Arg: arg, Start: start, End: end})
}

// Instant records a zero-duration event at the current time.
func (l *Lane) Instant(p Phase, step int, arg int32) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.epoch))
	l.put(Span{Phase: p, Step: int32(step), Arg: arg, Start: now, End: now})
}

func (l *Lane) put(s Span) {
	if l.wrapped {
		l.dropped++ // this write overwrites the ring's oldest span
	}
	l.spans[l.head] = s
	l.head++
	if l.head == len(l.spans) {
		l.head = 0
		l.wrapped = true
	}
}

// Len returns the number of retained spans.
func (l *Lane) Len() int {
	if l == nil {
		return 0
	}
	if l.wrapped {
		return len(l.spans)
	}
	return l.head
}

// Dropped returns the number of spans the ring has overwritten.
func (l *Lane) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// BusyNs returns the accumulated duration of all recorded spans in
// nanoseconds. On worker lanes, whose spans never nest, this is the
// lane's busy time — the numerator of the load-imbalance factor. (Driver
// lanes record nested spans, so their busy time double-counts.)
func (l *Lane) BusyNs() int64 {
	if l == nil {
		return 0
	}
	return l.busy
}

// Each calls fn for every retained span in recording order (oldest
// first). Only safe once the lane's writer has finished (or between
// parallel regions).
func (l *Lane) Each(fn func(Span)) {
	if l == nil {
		return
	}
	if l.wrapped {
		for _, s := range l.spans[l.head:] {
			fn(s)
		}
	}
	for _, s := range l.spans[:l.head] {
		fn(s)
	}
}

// DefaultSpansPerLane is the per-lane ring capacity when the caller
// passes 0: 1<<14 spans ≈ 512 KiB per lane, minutes of steady-state
// stepping before the ring wraps.
const DefaultSpansPerLane = 1 << 14

// Tracer is one rank's span sink: lane 0 is the rank's driver goroutine,
// lanes 1..workers are the worker-pool lanes. All methods are nil-safe.
type Tracer struct {
	rank  int
	epoch time.Time
	lanes []*Lane
}

// NewTracer builds a standalone tracer with its own epoch (use a Trace to
// share one epoch across ranks). workers is the number of worker lanes in
// addition to the driver lane; spansPerLane 0 selects
// DefaultSpansPerLane.
func NewTracer(rank, workers, spansPerLane int) *Tracer {
	return newTracerAt(time.Now(), rank, workers, spansPerLane)
}

func newTracerAt(epoch time.Time, rank, workers, spansPerLane int) *Tracer {
	if spansPerLane <= 0 {
		spansPerLane = DefaultSpansPerLane
	}
	if workers < 0 {
		workers = 0
	}
	t := &Tracer{rank: rank, epoch: epoch, lanes: make([]*Lane, 1+workers)}
	for i := range t.lanes {
		name := "driver"
		if i > 0 {
			name = "worker " + itoa(i-1)
		}
		t.lanes[i] = &Lane{epoch: epoch, spans: make([]Span, spansPerLane), id: i, name: name}
	}
	return t
}

// itoa is a tiny strconv.Itoa for lane names (avoids importing strconv
// into every build of the hot-path file; construction only).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Rank returns the tracer's rank id.
func (t *Tracer) Rank() int {
	if t == nil {
		return -1
	}
	return t.rank
}

// Driver returns the driver lane (lane 0).
func (t *Tracer) Driver() *Lane { return t.Lane(0) }

// Worker returns worker k's lane (lane k+1), nil when out of range.
func (t *Tracer) Worker(k int) *Lane { return t.Lane(k + 1) }

// Lane returns lane i, nil on a nil tracer or out-of-range index — so a
// partially-sized tracer degrades to not recording, never to a panic.
func (t *Tracer) Lane(i int) *Lane {
	if t == nil || i < 0 || i >= len(t.lanes) {
		return nil
	}
	return t.lanes[i]
}

// Lanes returns all lanes of the tracer.
func (t *Tracer) Lanes() []*Lane {
	if t == nil {
		return nil
	}
	return t.lanes
}

// AddLane appends a named lane beyond the driver/worker set — e.g. the
// socket transport's event lane, whose writers are background goroutines
// rather than the worker pool. Must be called before the run records
// spans (construction time); nil-safe. spansPerLane 0 selects
// DefaultSpansPerLane.
func (t *Tracer) AddLane(name string, spansPerLane int) *Lane {
	if t == nil {
		return nil
	}
	if spansPerLane <= 0 {
		spansPerLane = DefaultSpansPerLane
	}
	l := &Lane{epoch: t.epoch, spans: make([]Span, spansPerLane), id: len(t.lanes), name: name}
	t.lanes = append(t.lanes, l)
	return l
}

// WorkerBusyNs returns the busy time of each worker lane in nanoseconds —
// the input of the load-imbalance factor.
func (t *Tracer) WorkerBusyNs() []int64 {
	if t == nil || len(t.lanes) <= 1 {
		return nil
	}
	busy := make([]int64, len(t.lanes)-1)
	for i, l := range t.lanes[1:] {
		busy[i] = l.BusyNs()
	}
	return busy
}

// LoadImbalance returns max/mean of the worker lanes' busy times — 1.0 is
// perfect balance; 0 when fewer than one worker lane has recorded work.
func (t *Tracer) LoadImbalance() float64 {
	busy := t.WorkerBusyNs()
	var sum, max int64
	n := 0
	for _, b := range busy {
		if b == 0 {
			continue
		}
		sum += b
		if b > max {
			max = b
		}
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(max) * float64(n) / float64(sum)
}

// Trace is a collection of per-rank tracers sharing one epoch, so their
// spans line up on a single time axis in the Chrome-trace export.
type Trace struct {
	mu      sync.Mutex
	epoch   time.Time
	tracers []*Tracer
}

// NewTrace starts a trace; its epoch is the zero point of every span
// recorded through tracers created from it.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now()}
}

// NewTracer creates and registers a tracer for one rank. Safe to call
// concurrently from SPMD rank goroutines; nil-safe (a nil Trace returns a
// nil Tracer, which disables recording end to end).
func (tr *Trace) NewTracer(rank, workers, spansPerLane int) *Tracer {
	if tr == nil {
		return nil
	}
	t := newTracerAt(tr.epoch, rank, workers, spansPerLane)
	tr.mu.Lock()
	tr.tracers = append(tr.tracers, t)
	tr.mu.Unlock()
	return t
}

// Tracers returns the registered tracers, sorted by registration order.
func (tr *Trace) Tracers() []*Tracer {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*Tracer(nil), tr.tracers...)
}
