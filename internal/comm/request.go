package comm

import "fmt"

// Nonblocking receives — the split post/complete half of the MPI subset,
// used by the ghost-layer exchange to overlap communication with
// computation (post receives, sweep the interior blocks, then complete).
//
// The runtime is eager: a sender deposits its message directly into the
// receiver's mailbox without a rendezvous, so a posted receive needs no
// progress thread. All matching work happens in Wait, which blocks only
// if the message has not yet arrived; everything computed between Irecv
// and Wait therefore shrinks the blocked time exactly like an
// MPI_Irecv/MPI_Wait pair overlapping an interior sweep.

// RecvRequest is a posted nonblocking receive created by Irecv and
// completed by exactly one Wait (or typed WaitFloat64s) call.
type RecvRequest struct {
	c    *Comm
	src  int
	tag  int
	done bool
}

// Irecv posts a nonblocking receive for a message from src (or AnySource)
// with the given tag (or AnyTag) on this communicator.
func (c *Comm) Irecv(src, tag int) *RecvRequest {
	req := new(RecvRequest)
	c.IrecvInit(req, src, tag)
	return req
}

// IrecvInit (re)initializes req in place as a freshly posted nonblocking
// receive — the allocation-free variant of Irecv for hot paths that keep
// one request object per communication partner and re-post it every step,
// like MPI persistent requests. req must not have an outstanding
// (un-Waited) post.
func (c *Comm) IrecvInit(req *RecvRequest, src, tag int) {
	if tag < 0 && tag != AnyTag {
		panic("comm: user tags must be non-negative")
	}
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		panic(fmt.Sprintf("comm: rank %d posts receive from invalid rank %d", c.rank, src))
	}
	*req = RecvRequest{c: c, src: src, tag: tag}
}

// Wait completes the receive, blocking until the matching message arrives
// and returning its payload and origin (communicator-relative). Like
// RecvErr it returns a typed *RankFailedError instead of deadlocking when
// a rank failure has been declared. Completing a request twice is a
// programming error and panics.
func (r *RecvRequest) Wait() (any, int, error) {
	if r.done {
		panic("comm: RecvRequest completed twice")
	}
	r.done = true
	return r.c.recvErr(r.src, r.tag)
}

// WaitFloat64s is Wait with a typed payload; a payload type mismatch is a
// programming error and panics. The typed path never boxes the payload,
// so completing a float64 receive performs no heap allocation.
func (r *RecvRequest) WaitFloat64s() ([]float64, int, error) {
	if r.done {
		panic("comm: RecvRequest completed twice")
	}
	r.done = true
	return r.c.recvFloat64s(r.src, r.tag)
}
