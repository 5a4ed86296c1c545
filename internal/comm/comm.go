// Package comm provides the message-passing runtime the framework is
// written against — the reproduction's stand-in for MPI.
//
// A "process" (rank) is a goroutine executing the same SPMD function; the
// communicator offers the MPI subset waLBerla uses: blocking point-to-point
// send/receive with tag matching, nonblocking sends, the collectives
// Barrier, Bcast, Gather, Allgather, Allreduce and Alltoall (built on
// point-to-point messages, binomial trees for the rooted collectives). The
// communication patterns and volumes therefore match a real distributed
// run, and ranks share no data except through messages, keeping the
// paper's fully distributed data structure invariants testable in
// process.
//
// Every payload is one of seven kinds — nil, []byte, []float64, []int64,
// int64, int and float64 — on both transports: a send of anything else
// fails with a *PayloadError before it leaves the rank, so what runs in
// process is what the socket transport can carry.
//
// Message passing is "eager": sends do not rendezvous with the receiver
// (each rank owns a mailbox), receives block until a matching message
// arrives. Messages match on (communicator context, source, tag), so
// traffic on a shrunk or grown communicator cannot interfere with the
// parent's, and messages of one (context, source, tag) stream match in
// send order, as MPI guarantees. Per-rank statistics (message and byte counts, time
// blocked in receives and in the socket transport's backpressure) support
// the %MPI accounting of the scaling experiments.
//
// For resilience testing the runtime supports deterministic fault
// injection (FaultPlan): rank crashes and silent hangs at chosen time
// steps, and wire clauses applied where a message leaves its sender — an
// in-order stall on either transport, frame drops, corruptions, severs and
// refused connections on the socket transport. Every operation has an
// error-returning variant (SendErr, RecvErr, BarrierErr, ...) that
// surfaces a typed *RankFailedError instead of deadlocking when a rank has
// failed. A receive waits until its message arrives or a failure is
// declared; a failure is declared by an injected crash, by Accuse, or by
// the one failure detector of the transport, which accuses a rank only
// when that rank's own beat has been missing for Options.FailTimeout. See
// fault.go and docs/RESILIENCE.md for the fault model and the recovery
// protocol built on top in package resilience.
package comm

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// AnySource matches messages from every rank in Recv.
const AnySource = -1

// AnyTag matches every tag in Recv.
const AnyTag = -2

// internalTag marks messages of the collective implementations; user tags
// must be non-negative.
const internalTag = -1000

type message struct {
	ctx    int // communicator context id
	source int // world rank of the sender
	tag    int
	data   any
	// f64 is the typed payload path of SendFloat64s: storing the slice in
	// its own field instead of data avoids the interface boxing allocation
	// on every send, which the zero-allocation ghost exchange relies on.
	// Exactly one of data and f64 is set.
	f64 []float64
	seq uint64 // mailbox arrival stamp, orders wildcard matches
}

// payload returns the message payload as an untyped value (boxing a typed
// float64 payload on demand).
func (m *message) payload() any {
	if m.f64 != nil {
		return m.f64
	}
	return m.data
}

// mkey is the exact-match index key of a mailbox queue.
type mkey struct{ ctx, source, tag int }

// queue is one per-(context, source, tag) FIFO of pending messages. Popped
// slots are cleared (dropping payload references) and the backing array is
// recycled once the queue drains, so steady-state traffic — e.g. the ghost
// layer exchange depositing one aggregate per step — enqueues without heap
// allocations after warm-up.
//
// taken counts the messages ever popped. It is bumped under the mailbox
// lock and read lock-free by the socket reader, which may recycle the
// receive buffer of a delivered message only once the consumer has popped
// a later one (see recvRing); the atomic is also the happens-before edge
// from the consumer's last read of that buffer to the reader's next write.
type queue struct {
	msgs  []message
	head  int
	taken atomic.Uint64
}

func (q *queue) empty() bool { return q.head == len(q.msgs) }

func (q *queue) push(m message) {
	q.msgs = append(q.msgs, m)
}

func (q *queue) pop() message {
	m := q.msgs[q.head]
	q.msgs[q.head] = message{} // release the payload reference
	q.head++
	q.taken.Add(1)
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	return m
}

func (q *queue) peek() *message { return &q.msgs[q.head] }

// mailbox is the receive queue of one world rank. Messages are kept in
// per-(context, source, tag) FIFO queues so the common exact-match receive
// is a map lookup instead of a linear scan over all pending traffic;
// wildcard receives (AnySource / AnyTag) pick the earliest arrival among
// the matching queue heads, preserving the arrival-order semantics of the
// previous single-queue implementation. Drained queues stay in the map
// with their capacity so repeated traffic on a key does not reallocate.
// Mailboxes are unbounded: a deposit never blocks.
type mailbox struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queues    map[mkey]*queue
	count     int    // total pending messages
	seq       uint64 // arrival counter
	highWater int    // maximum of count over the run
	// epoch is the world's recovery counter (world.epoch); put sheds
	// traffic sent before the latest recovery.
	epoch *atomic.Int64
}

func newMailbox(epoch *atomic.Int64) *mailbox {
	m := &mailbox{queues: make(map[mkey]*queue), epoch: epoch}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put deposits a message sent in the given epoch. It returns the queue the
// message went to and the value queue.taken reaches when the consumer pops
// the message after this one — the point from which the socket reader may
// reuse the buffer the message carries (see recvRing). A message sent
// before a recovery is shed instead (nil queue): finishRecoveryLocked
// advances the epoch before purging under this same lock, so the check
// cannot race the purge.
func (m *mailbox) put(msg message, epoch int64) (*queue, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch < m.epoch.Load() {
		return nil, 0
	}
	m.seq++
	msg.seq = m.seq
	k := mkey{msg.ctx, msg.source, msg.tag}
	q := m.queues[k]
	if q == nil {
		q = &queue{}
		m.queues[k] = q
	}
	q.push(msg)
	m.count++
	if m.count > m.highWater {
		m.highWater = m.count
	}
	m.cond.Broadcast()
	return q, q.taken.Load() + uint64(len(q.msgs)-q.head) + 1
}

// match finds and removes the first message matching context, source and
// tag. Caller holds m.mu.
func (m *mailbox) match(ctx, source, tag int) (message, bool) {
	if source != AnySource && tag != AnyTag {
		// Fast path: exact (source, tag) lookup, the shape of every ghost
		// layer exchange and tree collective message.
		q := m.queues[mkey{ctx, source, tag}]
		if q == nil || q.empty() {
			return message{}, false
		}
		m.count--
		return q.pop(), true
	}
	// Wildcard: earliest arrival among matching queue heads. O(#distinct
	// keys), not O(#pending messages).
	var best *queue
	for k, q := range m.queues {
		if k.ctx != ctx || q.empty() {
			continue
		}
		if source != AnySource && k.source != source {
			continue
		}
		if tag != AnyTag && k.tag != tag {
			continue
		}
		if best == nil || q.peek().seq < best.peek().seq {
			best = q
		}
	}
	if best == nil {
		return message{}, false
	}
	m.count--
	return best.pop(), true
}

// take removes and returns the first message matching context, source
// (world rank or AnySource) and tag, blocking until one arrives; bail is
// polled on every wakeup so a declared rank failure unblocks the receive.
func (m *mailbox) take(ctx, source, tag int, bail func() error) (message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if msg, ok := m.match(ctx, source, tag); ok {
			return msg, nil
		}
		if err := bail(); err != nil {
			return message{}, err
		}
		m.cond.Wait()
	}
}

// purge discards all pending messages (recovery: stale traffic of the
// failed epoch must not match post-recovery receives). The queues stay,
// emptied, so a socket reader's view of queue.taken survives a recovery;
// discarded messages do not count as taken.
func (m *mailbox) purge() {
	m.mu.Lock()
	for _, q := range m.queues {
		clear(q.msgs)
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	m.count = 0
	m.cond.Broadcast()
	m.mu.Unlock()
}

// wake pokes all goroutines blocked on this mailbox so they re-check the
// failure flag. Taking the lock is required to avoid a lost wakeup against
// a receiver between its predicate check and cond.Wait.
func (m *mailbox) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

func (m *mailbox) depth() (pending, highWater int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count, m.highWater
}

// Options configures a Run: fault injection, failure detection and the
// transport. The zero value reproduces the classic perfect-network
// runtime: no faults, in-process delivery and no failure detector.
type Options struct {
	// Faults injects deterministic faults; nil disables injection
	// entirely.
	Faults *FaultPlan
	// FailTimeout is the failure-detection deadline: a rank whose own beat
	// has been missing this long is *declared* failed with a timeout-cause
	// *RankFailedError (RankFailedError.TimedOut reports true). On the
	// socket transport the beat is the rank's connection heartbeat; in
	// process it is implicit and stops only at an injected hang. Waiting on
	// a rank never accuses it: a healthy rank blocked behind a silent one
	// keeps beating. 0 disables detection — a silent rank is then never
	// declared failed.
	FailTimeout time.Duration
	// Net selects the socket transport (TCP or unix-domain sockets) and
	// configures its addresses and heartbeat; nil keeps messages in
	// process (see transport.go).
	Net *NetOptions
}

// world is the shared state of one Run invocation.
type world struct {
	size      int
	mailboxes []*mailbox
	opts      Options
	// transport moves stamped messages between ranks: the in-process
	// mailbox deposit, or the socket backend when Options.Net is set.
	transport transport

	// epoch counts completed recoveries; a message sent in an older epoch
	// is shed at delivery (mailbox.put).
	epoch atomic.Int64
	// failure is the first declared rank failure of the current epoch; all
	// error-returning operations fail fast once it is set.
	failure atomic.Pointer[RankFailedError]
	// crashFired marks FaultPlan.Crashes entries that have triggered, so a
	// crash fires exactly once even across recovery replays.
	crashFired []atomic.Bool
	// hangFired marks FaultPlan.Hangs entries that have triggered, so a
	// silence fires exactly once even across recovery replays.
	hangFired []atomic.Bool

	// Recovery rendezvous and permanent-death bookkeeping (see
	// (*Comm).Recover, MarkDead, Shrink). dead/deadCount are guarded by
	// recMu because the rendezvous completion condition reads them.
	recMu            sync.Mutex
	recCond          *sync.Cond
	recCount, recGen int
	dead             []bool
	deadCount        int
	// sparesReleased, once set, terminally releases every parked spare
	// rank (see grow.go); guarded by recMu.
	sparesReleased bool
}

// failErr returns the declared failure of the current epoch, if any.
func (w *world) failErr() error {
	if f := w.failure.Load(); f != nil {
		return f
	}
	return nil
}

// declareFailure records the first failure of the epoch and wakes every
// blocked sender and receiver so they observe it.
func (w *world) declareFailure(f *RankFailedError) {
	if w.failure.CompareAndSwap(nil, f) {
		for _, m := range w.mailboxes {
			m.wake()
		}
		if w.transport != nil {
			// Senders can be blocked inside the transport (retention-ring
			// backpressure); wake them too.
			w.transport.onFailure()
		}
		// Parked spares wait on the recovery condition (see grow.go); wake
		// them so they join the rendezvous.
		w.recMu.Lock()
		w.recCond.Broadcast()
		w.recMu.Unlock()
	}
}

// PeerStats counts one rank's point-to-point traffic toward a single
// destination world rank (messages issued on behalf of collectives
// included) — the per-neighbor accounting the aggregated ghost exchange
// is benchmarked with.
type PeerStats struct {
	// Sends is the number of messages sent to this destination.
	Sends int64
	// BytesSent is the payload volume sent to this destination.
	BytesSent int64
}

// Stats accumulates per-rank communication statistics. All communicators
// derived from one rank share the same counters.
type Stats struct {
	// Sends is the number of point-to-point messages sent (including those
	// issued on behalf of collectives).
	Sends int64
	// BytesSent is the payload volume of all sends, in bytes.
	BytesSent int64
	// Peers breaks Sends/BytesSent down by destination world rank.
	Peers []PeerStats
	// RecvWait is the total wall time this rank spent blocked in receives,
	// the numerator of the %MPI metric.
	RecvWait time.Duration
	// BackpressureWait is the total time this rank's sends spent blocked
	// on full retention rings of the socket transport.
	BackpressureWait time.Duration
	// Delayed counts this rank's sends stalled by fault injection
	// (FaultPlan.Delay), on either transport.
	Delayed int64
}

// MailboxStats reports the receive-queue occupancy of one rank.
type MailboxStats struct {
	// Pending is the current number of queued messages.
	Pending int
	// HighWater is the maximum queue depth observed so far.
	HighWater int
}

// Comm is one rank's handle to a communicator: the world communicator
// created by Run, or one derived from it by Shrink or GrowWorld. Ranks
// are relative to the communicator (0..Size-1).
type Comm struct {
	w       *world
	group   []int       // world ranks of the members, sorted by comm rank
	toIndex map[int]int // world rank -> comm rank
	rank    int         // this rank's position within group
	ctx     int         // context id isolating this communicator's traffic
	stats   *Stats
	// tel is the optional telemetry attachment (SetTelemetry); like stats
	// it is shared across every communicator derived from this rank's
	// handle. nil means untraced — every recording site is a single branch.
	tel *commTel
}

// Run executes f on n ranks, one goroutine per rank, and returns when all
// ranks have finished. A panic on any rank declares that rank failed, so
// its peers' receives return an error instead of blocking, and the first
// rank's panic is re-raised on the caller with the rank and its stack
// attached.
func Run(n int, f func(c *Comm)) {
	RunWithOptions(n, Options{}, f)
}

// RunWithOptions is Run with fault injection, failure detection and
// transport configuration; it panics on options Validate rejects.
func RunWithOptions(n int, opts Options, f func(c *Comm)) {
	if n <= 0 {
		panic("comm: Run requires at least one rank")
	}
	if err := opts.Validate(n); err != nil {
		panic(err.Error())
	}
	w := &world{size: n, mailboxes: make([]*mailbox, n), opts: opts}
	w.recCond = sync.NewCond(&w.recMu)
	w.dead = make([]bool, n)
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox(&w.epoch)
	}
	if opts.Faults != nil {
		w.crashFired = make([]atomic.Bool, len(opts.Faults.Crashes))
		w.hangFired = make([]atomic.Bool, len(opts.Faults.Hangs))
	}
	if opts.Net != nil {
		nt, err := newNetTransport(w, *opts.Net)
		if err != nil {
			panic("comm: " + err.Error())
		}
		w.transport = nt
	} else {
		w.transport = newInprocTransport(w)
	}
	group := make([]int, n)
	toIndex := make(map[int]int, n)
	for i := range group {
		group[i] = i
		toIndex[i] = i
	}
	var wg sync.WaitGroup
	panics := make(chan string, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					select {
					case panics <- fmt.Sprintf("rank %d: %v\n%s", rank, p, debug.Stack()):
					default:
					}
					// Peers blocked on this rank wake with an error instead
					// of waiting for it forever.
					w.declareFailure(&RankFailedError{Rank: rank, Cause: fmt.Sprintf("panic: %v", p)})
				}
			}()
			f(&Comm{w: w, group: group, toIndex: toIndex, rank: rank,
				stats: &Stats{Peers: make([]PeerStats, n)}})
		}(r)
	}
	wg.Wait()
	w.transport.shutdown()
	select {
	case p := <-panics:
		panic("comm: " + p)
	default:
	}
}

// Rank returns this rank's id within the communicator, in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank returns this rank's id in the world communicator.
func (c *Comm) WorldRank() int { return c.group[c.rank] }

// Stats returns the communication statistics accumulated so far (shared
// across all communicators of this rank). The per-peer breakdown is
// copied, so the snapshot stays stable while the rank keeps sending.
func (c *Comm) Stats() Stats {
	s := *c.stats
	s.Peers = append([]PeerStats(nil), c.stats.Peers...)
	return s
}

// ResetStats zeroes the statistics counters, including the per-peer
// breakdown.
func (c *Comm) ResetStats() {
	peers := c.stats.Peers
	for i := range peers {
		peers[i] = PeerStats{}
	}
	*c.stats = Stats{Peers: peers}
}

// MailboxStats reports this rank's receive-queue occupancy.
func (c *Comm) MailboxStats() MailboxStats {
	m := c.w.mailboxes[c.WorldRank()]
	pending, high := m.depth()
	return MailboxStats{Pending: pending, HighWater: high}
}

// Send delivers data, one of the contract's seven kinds, to rank dst with
// the given non-negative tag. Send is asynchronous (eager): it blocks only
// for an injected stall or, on the socket transport, while the
// connection's retention ring is full. The payload is shared, not copied;
// the sender must not modify it afterwards (pack fresh buffers per
// message, as the ghost-layer exchange does). Send panics with SendErr's
// error; use SendErr where failures must be handled.
func (c *Comm) Send(dst, tag int, data any) {
	if err := c.SendErr(dst, tag, data); err != nil {
		panic(err)
	}
}

// SendErr is Send returning an error instead of panicking: a typed
// *RankFailedError once a rank failure has been declared, or a
// *PayloadError for a payload outside the contract (see classifyPayload).
// A payload of any size is carried.
func (c *Comm) SendErr(dst, tag int, data any) error {
	if tag < 0 {
		panic("comm: user tags must be non-negative")
	}
	return c.sendErr(dst, tag, data)
}

// SendFloat64s is SendErr specialized for []float64 payloads: the slice is
// carried in a typed message field, so a send performs no interface boxing
// and — beyond the mailbox bookkeeping — no heap allocation. Like Send the
// payload is shared with the receiver, not copied; a sender reusing a
// persistent buffer must guarantee the receiver is done with the previous
// contents before overwriting it (see docs/EXCHANGE.md for the ghost
// exchange's double-buffer ownership protocol).
func (c *Comm) SendFloat64s(dst, tag int, buf []float64) error {
	if tag < 0 {
		panic("comm: user tags must be non-negative")
	}
	return c.sendMsg(dst, tag, message{f64: buf})
}

func (c *Comm) sendErr(dst, tag int, data any) error {
	return c.sendMsg(dst, tag, message{data: data})
}

func (c *Comm) sendMsg(dst, tag int, msg message) error {
	if dst < 0 || dst >= len(c.group) {
		panic(fmt.Sprintf("comm: rank %d sends to invalid rank %d (size %d)", c.rank, dst, len(c.group)))
	}
	enc, body, err := classifyPayload(&msg)
	if err != nil {
		return err
	}
	nb := int64(len(body))
	if enc >= encInt64 {
		nb = 8 // a scalar
	}
	w := c.w
	if err := w.failErr(); err != nil {
		return err
	}
	worldDst := c.group[dst]
	c.stats.Sends++
	c.stats.BytesSent += nb
	if worldDst < len(c.stats.Peers) {
		p := &c.stats.Peers[worldDst]
		p.Sends++
		p.BytesSent += nb
	}
	msg.ctx, msg.source, msg.tag = c.ctx, c.WorldRank(), tag
	telStart := c.tel.sendStart(nb)
	waited, stalled, err := w.transport.deliver(c.WorldRank(), worldDst, msg, enc, body)
	if stalled {
		c.stats.Delayed++
		c.tel.delay(worldDst)
	}
	c.stats.BackpressureWait += waited
	c.tel.sendDone(worldDst, telStart, waited)
	return err
}

// Recv blocks until a message from src (or AnySource) with the given tag
// (or AnyTag) arrives on this communicator and returns its payload and
// origin (communicator-relative). Recv panics if a rank failure has been
// declared; use RecvErr where failures must be handled.
func (c *Comm) Recv(src, tag int) (data any, source int) {
	data, source, err := c.RecvErr(src, tag)
	if err != nil {
		panic(err)
	}
	return data, source
}

// RecvErr is Recv returning a typed *RankFailedError instead of
// panicking when a rank failure has been declared. It waits until the
// message arrives or a failure is declared, however long that takes.
func (c *Comm) RecvErr(src, tag int) (any, int, error) {
	if tag < 0 && tag != AnyTag {
		panic("comm: user tags must be non-negative")
	}
	return c.recvErr(src, tag)
}

func (c *Comm) recvErr(src, tag int) (any, int, error) {
	msg, source, err := c.recvMsg(src, tag)
	if err != nil {
		return nil, 0, err
	}
	return msg.payload(), source, nil
}

// recvFloat64s is the typed receive path: a float64 payload is returned
// without ever being boxed into an interface, keeping the steady-state
// ghost exchange allocation-free end to end.
func (c *Comm) recvFloat64s(src, tag int) ([]float64, int, error) {
	msg, source, err := c.recvMsg(src, tag)
	if err != nil {
		return nil, 0, err
	}
	if msg.f64 != nil {
		return msg.f64, source, nil
	}
	f, ok := msg.data.([]float64)
	if !ok {
		panic(fmt.Sprintf("comm: rank %d expected []float64 from %d tag %d, got %T", c.rank, src, tag, msg.data))
	}
	return f, source, nil
}

func (c *Comm) recvMsg(src, tag int) (message, int, error) {
	worldSrc := AnySource
	if src != AnySource {
		if src < 0 || src >= len(c.group) {
			panic(fmt.Sprintf("comm: rank %d receives from invalid rank %d", c.rank, src))
		}
		worldSrc = c.group[src]
	}
	telStart := c.tel.start()
	start := time.Now()
	msg, err := c.w.mailboxes[c.WorldRank()].take(c.ctx, worldSrc, tag, c.w.failErr)
	waited := time.Since(start)
	c.stats.RecvWait += waited
	c.tel.recv(worldSrc, telStart, waited, err)
	if err != nil {
		return message{}, 0, err
	}
	return msg, c.toIndex[msg.source], nil
}

// RecvFloat64s is Recv with a typed payload, panicking on type mismatch.
func (c *Comm) RecvFloat64s(src, tag int) ([]float64, int) {
	f, source, err := c.RecvFloat64sErr(src, tag)
	if err != nil {
		panic(err)
	}
	return f, source
}

// RecvFloat64sErr is RecvErr with a typed payload; a payload type mismatch
// is a programming error and still panics.
func (c *Comm) RecvFloat64sErr(src, tag int) ([]float64, int, error) {
	if tag < 0 && tag != AnyTag {
		panic("comm: user tags must be non-negative")
	}
	return c.recvFloat64s(src, tag)
}
