package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/core"
	"walberla/internal/output"
	"walberla/internal/scenario"
	"walberla/internal/sim"
	"walberla/internal/telemetry"
)

// State is the lifecycle state of a session.
type State string

const (
	// StateReady means the session's world is resident and idle.
	StateReady State = "ready"
	// StateStepping means a step batch is executing (possibly queued on
	// the fair-share gate).
	StateStepping State = "stepping"
	// StateSuspended means the session was spilled to a checkpoint set on
	// disk and its world torn down; Resume revives it bit-identically.
	StateSuspended State = "suspended"
	// StateHealing means the world died unexpectedly and the supervisor is
	// respawning it from the session's newest checkpoint set.
	StateHealing State = "healing"
	// StateFailed means the world died with an error (kept for get/list
	// post-mortems until destroyed).
	StateFailed State = "failed"
	// StateDestroyed is terminal.
	StateDestroyed State = "destroyed"
)

// Health is the session's resilience condition, orthogonal to the
// lifecycle State: a resumed-after-death session is ready AND degraded.
type Health string

const (
	// HealthHealthy means no failure has ever been absorbed.
	HealthHealthy Health = "healthy"
	// HealthDegraded means the session absorbed at least one world death
	// (it lost the in-flight batch and resumed from its last durable set).
	HealthDegraded Health = "degraded"
	// HealthHealing means a supervised respawn is in flight right now.
	HealthHealing Health = "healing"
)

// maxSessionRespawns bounds how many world deaths the supervisor absorbs
// per session before declaring it failed for good.
const maxSessionRespawns = 3

// Session is one resident (or spilled) simulation owned by the daemon.
// Every mutation goes through its world's rank-0 command loop: rank 0
// receives a command, broadcasts it to all ranks, and every rank executes
// it collectively — exactly the SPMD discipline of the solver, so
// collective operations (stepping, hashing, checkpointing) stay deadlock
// free no matter how many sessions share the process.
type Session struct {
	ID     string
	Tenant string

	srv      *Server
	scenario *scenario.Scenario
	// forest is built once at create and reused for every revival, so a
	// resumed world restores onto the identical block assignment (nil for
	// a refined world, which builds its roots on every rank).
	forest *blockforest.SetupForest
	dir    string // per-session spill directory (checkpoint sets, frames)

	mu        sync.Mutex
	state     State
	health    Health
	respawns  int // world deaths absorbed by supervised respawn
	stepped   int // committed steps since creation
	lastHash  uint64
	err       error
	created   time.Time
	cmds      chan command
	worldDone chan struct{}
	cancel    context.CancelCauseFunc // interrupts an in-flight step batch
}

type cmdOp int

const (
	opStep cmdOp = iota + 1
	opSteer
	opHash
	opSnapshot
	opSuspend
	opDestroy
)

// wireCmd is the broadcast form of a command; it crosses rank boundaries
// as JSON bytes so sessions work over every transport the scenario can
// select (in-process and socket alike).
type wireCmd struct {
	Op    cmdOp      `json:"op"`
	Steps int        `json:"steps,omitempty"`
	Force [3]float64 `json:"force,omitempty"`
	Dir   string     `json:"dir,omitempty"`
	Step  int        `json:"step,omitempty"` // checkpoint step for suspend
}

type command struct {
	wire  wireCmd
	reply chan cmdResult
}

type cmdResult struct {
	hash  uint64
	files []string
	err   error
}

// Info is the externally visible session status.
type Info struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	State  State  `json:"state"`
	// Health is the resilience condition: healthy, degraded (absorbed at
	// least one world death) or healing (supervised respawn in flight).
	Health Health `json:"health"`
	// FailuresAbsorbed counts world deaths survived by respawning.
	FailuresAbsorbed int `json:"failures_absorbed,omitempty"`
	// WorldSize is the number of live ranks right now: full while the
	// world is resident, zero while it is down (suspended/healing/failed).
	WorldSize int       `json:"world_size"`
	Steps     int       `json:"steps"`
	Of        int       `json:"of"`
	Ranks     int       `json:"ranks"`
	LastHash  string    `json:"last_hash,omitempty"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created"`
}

func (s *Session) info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := Info{
		ID:               s.ID,
		Name:             s.scenario.Name,
		Tenant:           s.Tenant,
		State:            s.state,
		Health:           s.healthLocked(),
		FailuresAbsorbed: s.respawns,
		Steps:            s.stepped,
		Of:               s.scenario.Run.Steps,
		Ranks:            s.scenario.Parallel.Ranks,
		Created:          s.created,
	}
	if s.state == StateReady || s.state == StateStepping {
		in.WorldSize = s.scenario.Parallel.Ranks
	}
	if s.lastHash != 0 {
		in.LastHash = fmt.Sprintf("%016x", s.lastHash)
	}
	if s.err != nil {
		in.Error = s.err.Error()
	}
	return in
}

// healthLocked derives the session health; caller holds s.mu.
func (s *Session) healthLocked() Health {
	if s.health == "" {
		return HealthHealthy
	}
	return s.health
}

// start spins up the session's SPMD world and blocks until every rank
// has built (and, when resuming, restored) its simulation state — or the
// spin-up failed. The world then parks in the rank-0 command loop.
func (s *Session) start(resume bool) error {
	ready := make(chan error, 1)
	cmds := make(chan command)
	done := make(chan struct{})
	ctx, cancel := context.WithCancelCause(context.Background())

	s.mu.Lock()
	s.cmds = cmds
	s.worldDone = done
	s.cancel = cancel
	s.mu.Unlock()

	go s.world(ctx, cmds, ready, done, resume)

	// Exactly one verdict arrives: rank 0's readiness, or the launcher's
	// error when any rank failed before that.
	if err := <-ready; err != nil {
		cancel(err)
		<-done
		s.mu.Lock()
		s.state = StateFailed
		s.err = err
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	// A destroy that raced the spin-up wins; the caller tears the fresh
	// world down (the respawn path does exactly that).
	if s.state != StateDestroyed {
		s.state = StateReady
	}
	s.mu.Unlock()
	return nil
}

// world hosts the session's SPMD ranks for one residency, started by the
// shared launcher on the session's kept forest. It exits when a suspend
// or destroy command lands (or spin-up fails).
func (s *Session) world(ctx context.Context, cmds chan command, ready chan<- error, done chan struct{}, resume bool) {
	defer close(done)
	sc := s.scenario
	p, err := sc.Problem()
	if err != nil {
		ready <- err
		return
	}
	metrics := s.srv.cfg.Metrics
	p.TelemetryFor = func(rank int) (*telemetry.Tracer, *telemetry.Registry) {
		reg := telemetry.NewRegistry()
		metrics.RegisterLabeled(s.ID, rank, reg)
		return nil, reg
	}
	defer metrics.UnregisterLabeled(s.ID)
	w := core.World{Forest: s.forest, Comm: sc.CommOptions()}
	s.mu.Lock()
	if s.respawns > 0 {
		// An injected fault schedule describes one world incarnation; a
		// respawned world is fresh hardware and runs clean (otherwise a
		// deterministic crash would re-fire on every respawn).
		w.Comm.Faults = nil
	}
	s.mu.Unlock()
	// An injected fault that kills a rank comes back from the launcher as
	// the world's error: the world dies as a whole and the supervisor
	// decides whether the session survives.
	up := false // written by rank 0 before Launch returns
	err = p.Launch(ctx, w, func(r *core.Rank) error {
		c, st := r.Sim.Comm, r.Sim
		step := 0
		if resume {
			restored, err := st.RestoreLatestCheckpointSet(s.dir)
			if err != nil {
				return fmt.Errorf("serve: restoring session %s: %w", s.ID, err)
			}
			step = int(restored)
			if c.Rank() == 0 {
				// A supervised respawn may land on an older set than the
				// last committed batch; the visible step count follows the
				// state that actually survived.
				s.mu.Lock()
				s.stepped = step
				s.mu.Unlock()
			}
		}
		if c.Rank() == 0 {
			up = true
			ready <- nil
		}
		return s.commandLoop(ctx, c, st, cmds, step)
	})
	switch {
	case !up:
		ready <- cmp.Or(err, fmt.Errorf("serve: session %s world exited during spin-up", s.ID))
	case err != nil:
		s.supervise(fmt.Errorf("serve: session %s: %w", s.ID, err))
	}
}

// supervise handles an unexpected world death: when the session has
// durable state (batch-granular checkpoint sets, enabled by a scenario
// with resilience.checkpoint_every > 0) and the respawn budget is not
// exhausted, it flips the session to healing and respawns the world from
// the newest set; otherwise the session fails for good. Called from the
// dying world's goroutine, right before its done channel closes.
func (s *Session) supervise(cause error) {
	s.mu.Lock()
	if s.state == StateDestroyed {
		s.mu.Unlock()
		return
	}
	durable := s.scenario.Resilience.CheckpointEvery > 0 && len(output.ListValidSets(s.dir)) > 0
	if !durable || s.respawns >= maxSessionRespawns {
		s.state = StateFailed
		s.err = cause
		s.mu.Unlock()
		return
	}
	s.state = StateHealing
	s.health = HealthHealing
	s.respawns++
	s.err = nil
	s.mu.Unlock()
	go s.respawn()
}

// respawn revives a healing session from its newest checkpoint set.
func (s *Session) respawn() {
	s.mu.Lock()
	if s.state != StateHealing {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	if err := s.start(true); err != nil {
		s.mu.Lock()
		if s.state == StateHealing {
			s.state = StateFailed
			s.err = err
		}
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	if s.state == StateDestroyed {
		// Destroy raced the respawn; tear the fresh world down again.
		cancel, done := s.cancel, s.worldDone
		s.mu.Unlock()
		cancel(fmt.Errorf("serve: session %s destroyed during respawn", s.ID))
		<-done
		return
	}
	s.health = HealthDegraded
	s.mu.Unlock()
}

// commandLoop is the collective heart of a session: rank 0 pulls the
// next command and broadcasts it; every rank executes it in lockstep.
// Returns when the residency ends (suspend/destroy) or a rank errors.
// step is this rank's committed step count (the restore point when the
// world was revived); every rank tracks it locally so checkpoint-set
// labels agree without extra coordination.
func (s *Session) commandLoop(ctx context.Context, c *comm.Comm, st *sim.Simulation, cmds chan command, step int) error {
	for {
		var payload []byte
		var reply chan cmdResult
		if c.Rank() == 0 {
			var cmd command
			select {
			case cmd = <-cmds:
			case <-ctx.Done():
				cmd = command{wire: wireCmd{Op: opDestroy}}
			}
			reply = cmd.reply
			if cmd.wire.Op == opSuspend {
				// Stamp the checkpoint step at execution time: a suspend
				// queued behind a step batch must label the set with the
				// step the fields are actually at.
				s.mu.Lock()
				cmd.wire.Step = s.stepped
				s.mu.Unlock()
			}
			b, err := json.Marshal(cmd.wire)
			if err != nil {
				b = nil // broadcast an empty frame; all ranks bail together
			}
			payload = b
		}
		v, err := c.BcastErr(0, payload)
		if err != nil {
			return err
		}
		frame, _ := v.([]byte)
		var w wireCmd
		if err := json.Unmarshal(frame, &w); err != nil {
			answer(reply, cmdResult{err: fmt.Errorf("serve: bad command frame: %w", err)})
			return fmt.Errorf("serve: rank %d: bad command frame: %w", c.Rank(), err)
		}
		stop, err := s.execute(ctx, c, st, w, reply, &step)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
}

// execute runs one broadcast command on this rank. The bool result asks
// the world to end this residency.
func (s *Session) execute(ctx context.Context, c *comm.Comm, st *sim.Simulation, w wireCmd, reply chan cmdResult, step *int) (bool, error) {
	switch w.Op {
	case opStep:
		// The fair-share gate bounds how many sessions step at once;
		// rank 0 holds the slot for the whole collective batch (the other
		// ranks are blocked inside the exchange until rank 0 proceeds, so
		// one slot covers the whole world).
		if c.Rank() == 0 {
			if err := s.srv.gate.acquire(ctx, s.Tenant); err != nil {
				// The batch never started; tell the peers to skip it.
				answer(reply, cmdResult{err: err})
				if _, berr := c.BcastErr(0, int64(0)); berr != nil {
					return false, berr
				}
				return false, nil
			}
			if _, err := c.BcastErr(0, int64(1)); err != nil {
				s.srv.gate.release()
				return false, err
			}
		} else {
			v, err := c.BcastErr(0, int64(0))
			if err != nil {
				return false, err
			}
			if admitted, _ := v.(int64); admitted == 0 {
				return false, nil
			}
		}
		_, err := st.RunCtx(ctx, w.Steps)
		// RunCtx resets the per-batch step counter on entry, so its value
		// now is exactly the number of steps this batch committed (fewer
		// than requested when interrupted at a boundary).
		*step += st.Steps()
		if c.Rank() == 0 {
			s.srv.gate.release()
		}
		interrupted := errors.Is(err, sim.ErrInterrupted)
		if err != nil && !interrupted {
			answer(reply, cmdResult{err: err})
			return false, err
		}
		// Batch-granular durability: with checkpointing configured, every
		// committed batch lands a coordinated set, so a supervised respawn
		// after a world death loses at most the in-flight batch.
		if !interrupted && s.scenario.Resilience.CheckpointEvery > 0 {
			if _, err := st.WriteCheckpointSet(s.dir, *step); err != nil {
				answer(reply, cmdResult{err: err})
				return false, err
			}
		}
		hash, herr := st.FieldHash()
		if herr != nil {
			answer(reply, cmdResult{err: herr})
			return false, herr
		}
		if c.Rank() == 0 {
			s.mu.Lock()
			if !interrupted {
				s.stepped += w.Steps
			}
			s.lastHash = hash
			s.mu.Unlock()
			res := cmdResult{hash: hash}
			if interrupted {
				res.err = sim.ErrInterrupted
			}
			answer(reply, res)
		}
		return false, nil
	case opSteer:
		st.SetForce(w.Force)
		if err := c.BarrierErr(); err != nil {
			return false, err
		}
		answer(reply, cmdResult{})
		return false, nil
	case opHash:
		hash, err := st.FieldHash()
		if err != nil {
			answer(reply, cmdResult{err: err})
			return false, err
		}
		if c.Rank() == 0 {
			s.mu.Lock()
			s.lastHash = hash
			s.mu.Unlock()
		}
		answer(reply, cmdResult{hash: hash})
		return false, nil
	case opSnapshot:
		err := (&core.Rank{Sim: st}).WriteVTK(w.Dir)
		// Frame manifests list a complete frame or nothing: every rank
		// finishes writing before rank 0 reads the directory.
		if berr := c.BarrierErr(); berr != nil {
			return false, berr
		}
		if err != nil {
			answer(reply, cmdResult{err: err})
			return false, err
		}
		if c.Rank() == 0 {
			files, lerr := listFrame(w.Dir)
			answer(reply, cmdResult{files: files, err: lerr})
		}
		return false, nil
	case opSuspend:
		if _, err := st.WriteCheckpointSet(s.dir, w.Step); err != nil {
			answer(reply, cmdResult{err: err})
			return false, err
		}
		answer(reply, cmdResult{})
		return true, nil
	case opDestroy:
		answer(reply, cmdResult{})
		return true, nil
	default:
		err := fmt.Errorf("serve: unknown command op %d", w.Op)
		answer(reply, cmdResult{err: err})
		return false, err
	}
}

// answer replies to the HTTP layer; only rank 0 carries a reply channel.
func answer(reply chan cmdResult, r cmdResult) {
	if reply != nil {
		reply <- r
	}
}

func listFrame(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".vtk" {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	return files, nil
}

// send routes one command to the session's rank-0 loop and waits for the
// reply. It fails fast when the session is not resident.
func (s *Session) send(ctx context.Context, w wireCmd) (cmdResult, error) {
	s.mu.Lock()
	if s.state != StateReady && s.state != StateStepping {
		state := s.state
		s.mu.Unlock()
		return cmdResult{}, fmt.Errorf("serve: session %s is %s", s.ID, state)
	}
	cmds, done := s.cmds, s.worldDone
	s.mu.Unlock()

	cmd := command{wire: w, reply: make(chan cmdResult, 1)}
	select {
	case cmds <- cmd:
	case <-done:
		return cmdResult{}, fmt.Errorf("serve: session %s world exited", s.ID)
	case <-ctx.Done():
		return cmdResult{}, context.Cause(ctx)
	}
	select {
	case r := <-cmd.reply:
		return r, r.err
	case <-done:
		return cmdResult{}, fmt.Errorf("serve: session %s world exited", s.ID)
	}
}
