package resilience

import (
	"bytes"
	"fmt"
	"math"

	"walberla/internal/comm"
	"walberla/internal/output"
	"walberla/internal/telemetry"
)

// In-memory buddy checkpointing. At every checkpoint interval each rank
// protects its state twice:
//
//   - an *own snapshot*: whatever World.Snapshot copies raw, restored
//     without decoding — the survivor's rewind is a memcpy;
//   - a *buddy replica*: the blocks in the runtime's rank-file encoding
//     (the bytes of a disk checkpoint set file, but into memory) plus the
//     side-band metadata adoption needs, sent to the buddy rank
//     (rank+1) mod size.
//
// Both are double-buffered generations: a failure mid-replication leaves
// the previous generation intact, and the restore vote picks the newest
// generation every survivor can serve. Recovery from the ring touches the
// disk zero times (Stats.DiskReadsDuringRecovery).

// Message tags of the ring and of the heal stream, in the user tag space
// above both runtimes' exchange and migration tags.
const (
	tagReplica = 1<<30 + 2
	tagForward = 1<<30 + 3
)

// envelope is one generation of one rank's state on the wire: a replica
// shipped to the buddy, or a dead rank's state streamed to its recruited
// replacement.
type envelope struct {
	// Step is the generation's step barrier.
	Step int
	// SrcWorld is the world rank whose state this is — stable across
	// shrinks, unlike communicator ranks.
	SrcWorld int
	// Payload is the rank-file encoding of all blocks (World.Encode); CRC
	// is its CRC32C.
	Payload []byte
	CRC     uint32
	// Meta is the side band the rank file does not carry (World.Meta).
	Meta []byte
	// Redirect and To, on a heal stream only, are the old→new communicator
	// rank map the recruit commits its topology with and the step the run
	// ends at.
	Redirect []int
	To       int
}

// Generation is one protected state: the step barrier it was taken at,
// the world rank it belongs to, and the runtime's opaque form of it.
type Generation struct {
	Step     int
	SrcWorld int
	State    State
}

// Ring is the double-buffered replication state of one rank.
type Ring struct {
	// Own holds this rank's raw snapshots (Step -1: empty slot); Replica
	// the ward's generations held here, CRC-validated AND decoded at
	// receipt: recovery latency is what buddy replication exists to
	// minimize, so the deserialization cost is paid on the replication
	// path, and a restore that adopts them is a pure memory operation.
	Own     [2]Generation
	Replica [2]*Generation
	// meta retains the newest side band per protected world rank even
	// when payload generations are invalidated — it is static between
	// repairs, and the disk rung needs it to adopt.
	meta map[int][]byte

	parity int // slot the next generation writes
	// lastStep is the step of the newest generation this rank produced
	// (-1 before the first), deduplicating the post-restore generation.
	lastStep int
	sent     *telemetry.Counter // bytes put on the wire
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	r := &Ring{}
	r.reset()
	return r
}

// reset drops every generation: after a repair the communicator ranks
// they were taken under are stale.
func (r *Ring) reset() {
	*r = Ring{meta: make(map[int][]byte), lastStep: -1, sent: r.sent}
	r.Own[0].Step, r.Own[1].Step = -1, -1
}

// ownAt returns the own snapshot of the given step, or nil.
func (r *Ring) ownAt(step int) *Generation {
	for i := range r.Own {
		if r.Own[i].Step == step {
			return &r.Own[i]
		}
	}
	return nil
}

// ReplicaAt returns the committed replica generation of the given
// producing world rank and step, or nil.
func (r *Ring) ReplicaAt(srcWorld, step int) *Generation {
	for _, g := range r.Replica {
		if g != nil && g.SrcWorld == srcWorld && g.Step == step {
			return g
		}
	}
	return nil
}

// replicaLatest returns the newest committed generation step held for the
// producing world rank (-1 if none).
func (r *Ring) replicaLatest(srcWorld int) int {
	latest := -1
	for _, g := range r.Replica {
		if g != nil && g.SrcWorld == srcWorld && g.Step > latest {
			latest = g.Step
		}
	}
	return latest
}

// Replicate produces one protection generation at a step barrier: the own
// raw snapshot, and the serialized replica shipped to the buddy rank.
// Collective over the world's communicator. A rank failure surfaces as
// the usual typed error; the half-written generation is simply never
// committed, so recovery falls back to the previous one.
func (r *Ring) Replicate(w World, step int, st *Stats) error {
	c := w.Comm()
	// Own snapshot first: purely local, so every survivor of a failure
	// during the exchange below still owns this generation (the vote
	// requires own generations to be uniform across survivors). The slot's
	// previous state is handed back for its storage: fresh multi-megabyte
	// slices every interval keep the collector busy enough to intrude on
	// the recovery-latency window.
	p := r.parity
	r.Own[p] = Generation{Step: step, SrcWorld: c.WorldRank(), State: w.Snapshot(r.Own[p].State)}
	r.lastStep = step
	if c.Size() < 2 {
		r.parity ^= 1
		return nil // no buddy to protect or be protected by
	}

	out, err := encode(w, step)
	if err != nil {
		return err
	}
	if err := r.send(c, (c.Rank()+1)%c.Size(), tagReplica, out, st); err != nil {
		return err
	}
	in, err := receive(c, (c.Rank()+c.Size()-1)%c.Size(), tagReplica)
	if err != nil {
		return err
	}
	st.Replications++
	// Validate and decode NOW, at receipt: a generation that fails either
	// is simply not committed (the previous one stays restorable and the
	// vote settles on it).
	if state, err := decode(w, in); err == nil {
		r.Replica[p] = &Generation{Step: in.Step, SrcWorld: in.SrcWorld, State: state}
		r.meta[in.SrcWorld] = in.Meta
	}
	r.parity ^= 1
	// Commit barrier: without it the ring above only chains each rank to
	// its ward, so under a gray failure (one connection dead, others
	// alive) survivors can drift more than one generation apart — and
	// two-deep buffers that drift by two share no common generation,
	// forcing the disk fallback. The barrier bounds the skew at one
	// generation, which guarantees the vote always finds a common
	// restorable one. A failure here leaves this generation uncommitted
	// on some ranks; the vote settles on the previous one.
	return c.BarrierErr()
}

// send is the single site that puts generations on the wire, and so the
// one place their volume is counted: payload plus side band.
func (r *Ring) send(c *comm.Comm, to, tag int, env *envelope, st *Stats) error {
	if err := c.SendErr(to, tag, env); err != nil {
		return err
	}
	n := int64(len(env.Payload) + len(env.Meta))
	st.ReplicaBytes += n
	r.sent.Add(n)
	return nil
}

func receive(c *comm.Comm, from, tag int) (*envelope, error) {
	got, _, err := c.RecvErr(from, tag)
	if err != nil {
		return nil, err
	}
	env, ok := got.(*envelope)
	if !ok {
		return nil, fmt.Errorf("resilience: unexpected payload %T on tag %d", got, tag)
	}
	return env, nil
}

// encode serializes the world's live state into an envelope.
func encode(w World, step int) (*envelope, error) {
	var payload bytes.Buffer
	_, crc, err := w.Encode(&payload)
	if err != nil {
		return nil, fmt.Errorf("resilience: encoding replica payload: %w", err)
	}
	meta, err := w.Meta()
	if err != nil {
		return nil, fmt.Errorf("resilience: encoding replica metadata: %w", err)
	}
	return &envelope{Step: step, SrcWorld: w.Comm().WorldRank(), Payload: payload.Bytes(), CRC: crc, Meta: meta}, nil
}

// decode validates and deserializes one envelope. Each block is decoded
// in the layout its sender stored it in (the rank-file formats record it
// per block), so replicas from ranks running a mix of layouts restore
// without any world-wide layout assumption.
func decode(w World, in *envelope) (State, error) {
	if output.CRC32C(in.Payload) != in.CRC {
		return nil, fmt.Errorf("resilience: envelope of rank %d step %d fails its CRC", in.SrcWorld, in.Step)
	}
	state, crc, err := w.Decode(bytes.NewReader(in.Payload), in.Meta)
	if err != nil {
		return nil, err
	}
	if crc != in.CRC {
		return nil, fmt.Errorf("resilience: envelope of rank %d step %d decodes to a different CRC", in.SrcWorld, in.Step)
	}
	return state, nil
}

// vote agrees over c on the restore generation: the newest step every
// member can serve from memory — own snapshots everywhere, plus the
// replicas of the dead (wards, as world ranks) on their buddies. ok is
// false when no such generation exists (nothing replicated yet, or a
// buddy whose replica was never committed), which selects the disk rung
// collectively. A nil ring is a recruited spare's: it holds no state and
// votes neutrally.
func (r *Ring) vote(c *comm.Comm, wards []int) (gen int, ok bool, err error) {
	cand := int64(math.MaxInt64)
	if r != nil {
		cand = int64(max(r.Own[0].Step, r.Own[1].Step))
		for _, w := range wards {
			cand = min(cand, int64(r.replicaLatest(w)))
		}
	}
	g, err := minOver(c, cand)
	if err != nil {
		return 0, false, err
	}
	have := int64(1)
	if r != nil && g >= 0 {
		if r.ownAt(int(g)) == nil {
			have = 0
		}
		for _, w := range wards {
			if r.ReplicaAt(w, int(g)) == nil {
				have = 0
			}
		}
	}
	agree, err := minOver(c, have)
	if err != nil {
		return 0, false, err
	}
	return int(g), g >= 0 && agree == 1, nil
}
