package comm

import (
	"fmt"

	"walberla/internal/telemetry"
)

// Collective tags. Each collective uses a distinct internal tag so that
// overlapping collectives on disjoint rank subsets cannot mismatch; within
// one communicator collectives are ordered per rank exactly as in MPI.
const (
	tagBarrier = internalTag - iota
	tagBcast
	tagGather
	tagReduce
	tagAlltoall
)

// Every collective is implemented as an error-returning core (the *Err
// methods), which detect a declared rank failure mid-collective and
// return a typed *RankFailedError instead of deadlocking. The classic
// infallible API wraps the cores and panics on failure, preserving the
// perfect-network programming model for code that does not opt into
// resilience.

// Barrier blocks until every rank has entered it. Implemented as a
// zero-byte reduce-to-zero followed by a broadcast (the classic two-phase
// tree barrier).
func (c *Comm) Barrier() {
	if err := c.BarrierErr(); err != nil {
		panic(err)
	}
}

// BarrierErr is Barrier returning an error on rank failure.
func (c *Comm) BarrierErr() error {
	telStart := c.tel.start()
	if _, err := c.reduceTreeErr(tagBarrier, nil, func(a, b any) any { return nil }); err != nil {
		return err
	}
	_, err := c.bcastTreeRootedErr(tagBarrier, 0, nil)
	if err == nil && c.tel != nil {
		c.tel.lane.Span(telemetry.PhaseBarrier, c.tel.step, 0, telStart)
	}
	return err
}

// Bcast distributes root's payload to every rank and returns it; non-root
// ranks pass nil (or any placeholder, which is ignored).
func (c *Comm) Bcast(root int, data any) any {
	out, err := c.BcastErr(root, data)
	if err != nil {
		panic(err)
	}
	return out
}

// BcastErr is Bcast returning an error on rank failure.
func (c *Comm) BcastErr(root int, data any) (any, error) {
	if c.rank != root {
		data = nil
	}
	// Rotate ranks so the tree is rooted at rank 0.
	return c.bcastTreeRootedErr(tagBcast, root, data)
}

// rel translates an absolute rank into the tree coordinate system rooted
// at root.
func (c *Comm) rel(root int) int { return (c.rank - root + c.Size()) % c.Size() }

// abs translates a tree coordinate back to an absolute rank.
func (c *Comm) abs(root, r int) int { return (r + root) % c.Size() }

// bcastTreeRootedErr runs a binomial broadcast tree rooted at root: a
// rank receives from its parent (itself without its highest set bit) and
// forwards to its children (itself plus each higher bit).
func (c *Comm) bcastTreeRootedErr(tag int, root int, data any) (any, error) {
	n := c.Size()
	me := c.rel(root)
	mask := 1
	for mask <= me {
		mask <<= 1
	}
	if me != 0 {
		var err error
		if data, _, err = c.recvErr(c.abs(root, me&^(mask>>1)), tag); err != nil {
			return nil, err
		}
	}
	for ; mask < n; mask <<= 1 {
		child := me | mask
		if child < n {
			if err := c.sendErr(c.abs(root, child), tag, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// reduceTreeErr combines every rank's contribution at rank 0 using op;
// only rank 0 receives the final value (other ranks get nil).
func (c *Comm) reduceTreeErr(tag int, data any, op func(a, b any) any) (any, error) {
	n := c.Size()
	me := c.rank
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			return nil, c.sendErr(me&^mask, tag, data)
		}
		if partner := me | mask; partner < n {
			other, _, err := c.recvErr(partner, tag)
			if err != nil {
				return nil, err
			}
			data = op(data, other)
		}
	}
	return data, nil
}

// AllreduceFloat64 combines the per-rank values with op and returns the
// result on every rank (reduce + broadcast).
func (c *Comm) AllreduceFloat64(v float64, op func(a, b float64) float64) float64 {
	out, err := c.AllreduceFloat64Err(v, op)
	if err != nil {
		panic(err)
	}
	return out
}

// AllreduceFloat64Err is AllreduceFloat64 returning an error on rank
// failure.
func (c *Comm) AllreduceFloat64Err(v float64, op func(a, b float64) float64) (float64, error) {
	return allreduce(c, v, op)
}

// allreduce reduces to rank 0 and broadcasts the result.
func allreduce[T int64 | float64](c *Comm, v T, op func(a, b T) T) (T, error) {
	res, err := c.reduceTreeErr(tagReduce, v, func(a, b any) any {
		return op(a.(T), b.(T))
	})
	if err != nil {
		return 0, err
	}
	out, err := c.bcastTreeRootedErr(tagReduce, 0, res)
	if err != nil {
		return 0, err
	}
	return out.(T), nil
}

// AllreduceInt64 combines the per-rank values with op on every rank.
func (c *Comm) AllreduceInt64(v int64, op func(a, b int64) int64) int64 {
	out, err := c.AllreduceInt64Err(v, op)
	if err != nil {
		panic(err)
	}
	return out
}

// AllreduceInt64Err is AllreduceInt64 returning an error on rank failure.
func (c *Comm) AllreduceInt64Err(v int64, op func(a, b int64) int64) (int64, error) {
	return allreduce(c, v, op)
}

// Sum, Max and Min are the common reduction operators.
func Sum[T int64 | float64](a, b T) T { return a + b }

// Max returns the larger value.
func Max[T int64 | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller value.
func Min[T int64 | float64](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// Gather collects every rank's payload at root in rank order; non-root
// ranks receive nil.
func (c *Comm) Gather(root int, data any) []any {
	out, err := c.GatherErr(root, data)
	if err != nil {
		panic(err)
	}
	return out
}

// GatherErr is Gather returning an error on rank failure.
func (c *Comm) GatherErr(root int, data any) ([]any, error) {
	if c.rank != root {
		return nil, c.sendErr(root, tagGather, data)
	}
	return c.collect(tagGather, data)
}

// collect receives one tag's message from every other rank, in rank
// order: each (source, tag) stream matches in send order, so a fast rank's
// next collective cannot stand in for a slow rank's current one. mine
// fills this rank's own slot.
func (c *Comm) collect(tag int, mine any) ([]any, error) {
	out := make([]any, c.Size())
	for src := range out {
		if src == c.rank {
			out[src] = mine
			continue
		}
		data, _, err := c.recvErr(src, tag)
		if err != nil {
			return nil, err
		}
		out[src] = data
	}
	return out, nil
}

// Allgather collects every rank's payload on every rank in rank order.
func (c *Comm) Allgather(data any) []any {
	out, err := c.AllgatherErr(data)
	if err != nil {
		panic(err)
	}
	return out
}

// AllgatherErr is Allgather returning an error on rank failure: an
// all-to-all in which every rank sends data to every other.
func (c *Comm) AllgatherErr(data any) ([]any, error) {
	bufs := make([]any, c.Size())
	for i := range bufs {
		bufs[i] = data
	}
	return c.AlltoallErr(bufs)
}

// Alltoall sends bufs[i] to rank i and returns the payloads received from
// every rank, indexed by source. bufs must have length Size.
func (c *Comm) Alltoall(bufs []any) []any {
	out, err := c.AlltoallErr(bufs)
	if err != nil {
		panic(err)
	}
	return out
}

// AlltoallErr is Alltoall returning an error on rank failure.
func (c *Comm) AlltoallErr(bufs []any) ([]any, error) {
	if len(bufs) != c.Size() {
		panic(fmt.Sprintf("comm: Alltoall with %d buffers on %d ranks", len(bufs), c.Size()))
	}
	for dst := 0; dst < c.Size(); dst++ {
		if dst == c.rank {
			continue
		}
		if err := c.sendErr(dst, tagAlltoall, bufs[dst]); err != nil {
			return nil, err
		}
	}
	return c.collect(tagAlltoall, bufs[c.rank])
}
