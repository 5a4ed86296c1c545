package comm

import (
	"time"

	"walberla/internal/telemetry"
)

// Telemetry wiring of the communication runtime. A rank attaches a span
// lane and a metrics registry with SetTelemetry; derived communicators
// (Shrink, GrowWorld) inherit the attachment like they share Stats. Without
// an attachment every recording site below sees nil handles and costs
// one branch (the package telemetry nil fast path), which keeps the
// zero-allocation guarantees of the ghost exchange intact either way:
// spans land in preallocated rings, counter updates are single atomics.

// commTel bundles the pre-registered telemetry handles of one rank.
type commTel struct {
	lane     *telemetry.Lane
	step     int // current simulation step, stamps spans
	sends    *telemetry.Counter
	bytes    *telemetry.Counter
	delayed  *telemetry.Counter
	recvWait *telemetry.Histogram
	bpWait   *telemetry.Histogram
}

// SetTelemetry attaches span tracing and metrics to this rank's
// communication: sends, receives (including nonblocking completions and
// the point-to-point traffic of collectives), barriers, fault-injection
// events and declared rank failures. lane must be owned by this rank's
// driver goroutine (single-writer); nil lane or registry disables the
// respective half. The attachment is shared with every communicator
// already derived from this one and created afterwards.
func (c *Comm) SetTelemetry(lane *telemetry.Lane, reg *telemetry.Registry) {
	if lane == nil && reg == nil {
		c.tel = nil
		return
	}
	c.tel = &commTel{
		lane:     lane,
		sends:    reg.Counter("comm.sends"),
		bytes:    reg.Counter("comm.bytes_sent"),
		delayed:  reg.Counter("comm.delayed"),
		recvWait: reg.Histogram("comm.recv_wait"),
		bpWait:   reg.Histogram("comm.backpressure_wait"),
	}
}

// SetTelemetryStep stamps subsequent communication spans with the given
// simulation step. Nil-safe (no telemetry attached).
func (c *Comm) SetTelemetryStep(step int) {
	if c.tel != nil {
		c.tel.step = step
	}
}

// telLane returns the attached span lane (nil when untraced).
func (c *Comm) telLane() *telemetry.Lane {
	if c.tel == nil {
		return nil
	}
	return c.tel.lane
}

// start stamps a span start on the attached lane (0 when untraced).
func (t *commTel) start() int64 {
	if t == nil {
		return 0
	}
	return t.lane.Start()
}

// sendStart counts one send attempt (delivered or delayed alike, matching
// Stats.Sends) and stamps the span start.
func (t *commTel) sendStart(nb int64) int64 {
	if t == nil {
		return 0
	}
	t.sends.Inc()
	t.bytes.Add(nb)
	return t.lane.Start()
}

// sendDone records the span of one delivered send toward worldDst,
// including any backpressure wait on the destination mailbox.
func (t *commTel) sendDone(worldDst int, start int64, waited time.Duration) {
	if t == nil {
		return
	}
	if waited > 0 {
		t.bpWait.Observe(waited)
	}
	t.lane.Span(telemetry.PhaseSend, t.step, int32(worldDst), start)
}

// recv records one completed receive from worldSrc, or one a declared
// rank failure aborted (err, with an instant naming the failed rank).
func (t *commTel) recv(worldSrc int, start int64, waited time.Duration, err error) {
	if t == nil {
		return
	}
	t.recvWait.Observe(waited)
	t.lane.Span(telemetry.PhaseRecv, t.step, int32(worldSrc), start)
	if f, ok := err.(*RankFailedError); ok {
		t.lane.Instant(telemetry.PhaseRankFailed, t.step, int32(f.Rank))
	}
}

// delay records a send stalled by delay injection.
func (t *commTel) delay(worldDst int) {
	if t == nil {
		return
	}
	t.delayed.Inc()
	t.lane.Instant(telemetry.PhaseFaultDelay, t.step, int32(worldDst))
}
