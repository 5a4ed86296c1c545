// Package serve is the simulation-as-a-service control plane: a Server
// owns many concurrent simulation sessions, each an SPMD world built from
// a validated scenario (internal/scenario), multiplexed over a shared
// fair-share stepping gate. Sessions are created, stepped, steered,
// snapshotted, suspended to coordinated checkpoint sets and revived
// bit-identically — the HTTP surface in http.go exposes exactly these
// verbs.
package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"walberla/internal/scenario"
	"walberla/internal/telemetry"
)

// Config tunes the daemon.
type Config struct {
	// MaxSessions bounds the resident sessions (ready or stepping;
	// suspended sessions live on disk and do not count). Creation and
	// resume beyond the bound are refused — admission control, not
	// queueing. Default 8.
	MaxSessions int
	// MaxConcurrentSteps bounds how many sessions execute step batches at
	// once; further step requests queue on the fair-share gate (round-
	// robin across tenants). Default max(1, GOMAXPROCS/2).
	MaxConcurrentSteps int
	// DataDir is where sessions spill checkpoint sets and VTK frames;
	// default a fresh temp directory.
	DataDir string
	// Metrics, if non-nil, receives one labeled registry per session
	// rank; /metrics/sessions then serves per-session aggregates.
	Metrics *telemetry.MetricsServer
}

// Server is the session manager.
type Server struct {
	cfg  Config
	gate *gate

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	closed   bool
}

// NewServer builds a session manager. The zero Config works.
func NewServer(cfg Config) (*Server, error) {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 8
	}
	if cfg.MaxConcurrentSteps == 0 {
		cfg.MaxConcurrentSteps = max(1, runtime.GOMAXPROCS(0)/2)
	}
	if cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "walberla-serve-*")
		if err != nil {
			return nil, err
		}
		cfg.DataDir = dir
	} else if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		gate:     newGate(cfg.MaxConcurrentSteps),
		sessions: map[string]*Session{},
	}, nil
}

// resident counts sessions currently holding a world (callers hold s.mu).
func (s *Server) resident() int {
	n := 0
	for _, sess := range s.sessions {
		sess.mu.Lock()
		if sess.state == StateReady || sess.state == StateStepping {
			n++
		}
		sess.mu.Unlock()
	}
	return n
}

// Create validates the scenario, admits the session, builds its forest
// once, spins up its world and returns it ready.
func (s *Server) Create(sc *scenario.Scenario, tenant string) (*Session, error) {
	if err := sc.Validate(); err != nil {
		return nil, &APIError{Status: 400, Err: err}
	}
	// A session parks no spare, recovers by respawning its whole world
	// from its last set and keeps its sets under its own data directory:
	// keys asking for more are refused by name, not dropped.
	for _, k := range []struct {
		set bool
		key string
	}{
		{sc.Parallel.Spares > 0, "parallel.spares"},
		{sc.Resilience.Mode != "rewind", fmt.Sprintf("resilience.mode %q", sc.Resilience.Mode)},
		{sc.Resilience.Dir != "", "resilience.dir"},
	} {
		if k.set {
			return nil, &APIError{Status: 400, Err: fmt.Errorf("serve: %s is not supported by sessions; run the scenario with walberla-sim or scenario.Execute", k.key)}
		}
	}
	p, err := sc.Problem()
	if err != nil {
		return nil, &APIError{Status: 400, Err: err}
	}
	forest, err := p.BuildForest()
	if err != nil {
		return nil, &APIError{Status: 400, Err: err}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, &APIError{Status: 503, Err: fmt.Errorf("serve: server is shutting down")}
	}
	if s.resident() >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return nil, &APIError{Status: 429, Err: fmt.Errorf("serve: %d resident sessions (limit %d) — suspend or destroy one first",
			s.cfg.MaxSessions, s.cfg.MaxSessions)}
	}
	s.nextID++
	id := fmt.Sprintf("s-%06d", s.nextID)
	sess := &Session{
		ID:       id,
		Tenant:   tenant,
		srv:      s,
		scenario: sc,
		forest:   forest,
		dir:      filepath.Join(s.cfg.DataDir, id),
		state:    StateReady,
		created:  time.Now(),
	}
	s.sessions[id] = sess
	s.mu.Unlock()

	if err := os.MkdirAll(sess.dir, 0o755); err != nil {
		s.drop(id)
		return nil, err
	}
	if err := sess.start(false); err != nil {
		s.drop(id)
		return nil, err
	}
	return sess, nil
}

func (s *Server) drop(id string) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// Get returns a session by ID.
func (s *Server) Get(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, &APIError{Status: 404, Err: fmt.Errorf("serve: no session %s", id)}
	}
	return sess, nil
}

// List returns every session's status, oldest first.
func (s *Server) List() []Info {
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	infos := make([]Info, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.info()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// HealthSummary aggregates the resilience condition of every session —
// the /v1/healthz body.
type HealthSummary struct {
	OK bool `json:"ok"`
	// Sessions counts sessions by health (healthy/degraded/healing), plus
	// "failed" for sessions whose world died for good.
	Sessions map[string]int `json:"sessions"`
	// FailuresAbsorbed is the total number of world deaths survived by
	// supervised respawn across all sessions.
	FailuresAbsorbed int `json:"failures_absorbed"`
}

// Health reports the daemon's aggregate health: ok as long as the server
// is answering, with per-condition session counts for monitoring.
func (s *Server) Health() HealthSummary {
	sum := HealthSummary{OK: true, Sessions: map[string]int{}}
	for _, in := range s.List() {
		key := string(in.Health)
		if in.State == StateFailed {
			key = "failed"
		}
		sum.Sessions[key]++
		sum.FailuresAbsorbed += in.FailuresAbsorbed
	}
	return sum
}

// Step advances a session by n steps (queueing on the fair-share gate)
// and returns the field hash at the new step boundary.
func (s *Server) Step(ctx context.Context, id string, n int) (uint64, int, error) {
	sess, err := s.Get(id)
	if err != nil {
		return 0, 0, err
	}
	if n <= 0 {
		return 0, 0, &APIError{Status: 400, Err: fmt.Errorf("serve: steps must be positive, got %d", n)}
	}
	sess.mu.Lock()
	if sess.state == StateStepping {
		sess.mu.Unlock()
		return 0, 0, &APIError{Status: 409, Err: fmt.Errorf("serve: session %s is already stepping", id)}
	}
	if sess.state == StateReady {
		sess.state = StateStepping
	}
	sess.mu.Unlock()
	res, err := sess.send(ctx, wireCmd{Op: opStep, Steps: n})
	sess.mu.Lock()
	if sess.state == StateStepping {
		sess.state = StateReady
	}
	stepped := sess.stepped
	sess.mu.Unlock()
	if err != nil {
		return 0, stepped, err
	}
	return res.hash, stepped, nil
}

// Steer atomically replaces the session's body force between step
// batches — live steering of a running simulation. The force must be one
// the session's scenario validates with: a refined world takes none, since
// forcing is not rescaled per level (docs/AMR.md).
func (s *Server) Steer(ctx context.Context, id string, force [3]float64) error {
	sess, err := s.Get(id)
	if err != nil {
		return err
	}
	steered := *sess.scenario
	steered.Physics.Force = force
	if err := steered.Validate(); err != nil {
		return &APIError{Status: 400, Err: fmt.Errorf("serve: steering physics.force: %w", err)}
	}
	_, err = sess.send(ctx, wireCmd{Op: opSteer, Force: force})
	return err
}

// Hash returns the collective field fingerprint without stepping.
func (s *Server) Hash(ctx context.Context, id string) (uint64, error) {
	sess, err := s.Get(id)
	if err != nil {
		return 0, err
	}
	res, err := sess.send(ctx, wireCmd{Op: opHash})
	return res.hash, err
}

// Snapshot writes one VTK frame per block into the session's frame
// directory and returns the frame's file manifest.
func (s *Server) Snapshot(ctx context.Context, id string) (string, []string, error) {
	sess, err := s.Get(id)
	if err != nil {
		return "", nil, err
	}
	sess.mu.Lock()
	frame := fmt.Sprintf("frame-%06d", sess.stepped)
	sess.mu.Unlock()
	dir := filepath.Join(sess.dir, frame)
	res, err := sess.send(ctx, wireCmd{Op: opSnapshot, Dir: dir})
	if err != nil {
		return "", nil, err
	}
	return frame, res.files, nil
}

// Suspend spills the session to a coordinated checkpoint set and tears
// its world down; Resume revives it bit-identically.
func (s *Server) Suspend(ctx context.Context, id string) error {
	sess, err := s.Get(id)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	done := sess.worldDone
	sess.mu.Unlock()
	// The checkpoint step label is stamped by the rank-0 loop at
	// execution time (a suspend may queue behind a step batch).
	if _, err := sess.send(ctx, wireCmd{Op: opSuspend}); err != nil {
		return err
	}
	<-done // the world is torn down before the state flips
	sess.mu.Lock()
	if sess.state != StateFailed {
		sess.state = StateSuspended
		sess.cmds, sess.worldDone, sess.cancel = nil, nil, nil
	}
	err = sess.err
	sess.mu.Unlock()
	return err
}

// Resume revives a suspended session: a fresh world is built on the
// session's original forest and restored from its newest checkpoint set.
// Admission control applies exactly as at creation.
func (s *Server) Resume(ctx context.Context, id string) error {
	sess, err := s.Get(id)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	if sess.state != StateSuspended {
		state := sess.state
		sess.mu.Unlock()
		return &APIError{Status: 409, Err: fmt.Errorf("serve: session %s is %s, not suspended", id, state)}
	}
	sess.mu.Unlock()
	s.mu.Lock()
	if s.resident() >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return &APIError{Status: 429, Err: fmt.Errorf("serve: %d resident sessions (limit %d)", s.cfg.MaxSessions, s.cfg.MaxSessions)}
	}
	s.mu.Unlock()
	return sess.start(true)
}

// Destroy interrupts any in-flight step batch, tears the world down and
// removes the session and its on-disk spill data.
func (s *Server) Destroy(ctx context.Context, id string) error {
	sess, err := s.Get(id)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	state := sess.state
	cancel, done := sess.cancel, sess.worldDone
	sess.state = StateDestroyed
	sess.mu.Unlock()
	if state == StateReady || state == StateStepping {
		// Cancel first so a long step batch stops at the next boundary;
		// the loop then drains our destroy command (or the cancellation
		// itself ends the residency).
		cancel(fmt.Errorf("serve: session %s destroyed", id))
		<-done
	}
	s.drop(id)
	return os.RemoveAll(sess.dir)
}

// Close destroys every session and refuses new ones.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	var firstErr error
	for _, id := range ids {
		if err := s.Destroy(context.Background(), id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// APIError pairs an HTTP status with an error so the transport layer
// reports refusals (validation, admission, conflicts) faithfully.
type APIError struct {
	Status int
	Err    error
}

func (e *APIError) Error() string { return e.Err.Error() }
func (e *APIError) Unwrap() error { return e.Err }
