package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Expvar-style HTTP endpoint: serves live JSON snapshots of registered
// registries while a run is in flight. The handler snapshots atomics
// without pausing writers, so responses are cheap and safe mid-step.

// MetricsServer serves metric snapshots over HTTP.
//
//	GET /metrics           merged snapshot across all registered ranks
//	GET /metrics/ranks     array of per-rank snapshots
//	GET /metrics/sessions  object of per-label merged snapshots (the
//	                       session daemon labels each session's ranks)
type MetricsServer struct {
	mu   sync.Mutex
	regs []metricsEntry
	srv  *http.Server
	done chan struct{} // closed when the serve goroutine has fully exited

	// readHeaderTimeout bounds how long a client may take to deliver its
	// request header (and, doubled, the whole request): every endpoint is a
	// GET, so a connection that trickles bytes is holding a goroutine for
	// nothing.
	readHeaderTimeout time.Duration
}

type metricsEntry struct {
	label string
	rank  int
	reg   *Registry
}

// NewMetricsServer builds an empty server; attach registries with
// Register/RegisterLabeled, then Serve or ServeContext.
func NewMetricsServer() *MetricsServer {
	return &MetricsServer{readHeaderTimeout: 10 * time.Second}
}

// Register attaches one rank's registry. Safe to call concurrently from
// SPMD rank goroutines, also while serving.
func (s *MetricsServer) Register(rank int, r *Registry) {
	s.RegisterLabeled("", rank, r)
}

// RegisterLabeled attaches one rank's registry under a label — the
// session daemon registers every session rank under the session ID, so
// /metrics/sessions streams per-session aggregates while /metrics keeps
// the fleet-wide view. Safe to call concurrently, also while serving.
func (s *MetricsServer) RegisterLabeled(label string, rank int, r *Registry) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	s.regs = append(s.regs, metricsEntry{label: label, rank: rank, reg: r})
	s.mu.Unlock()
}

// UnregisterLabeled detaches every registry registered under the label
// (a destroyed or suspended session drops out of the metrics surface).
func (s *MetricsServer) UnregisterLabeled(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	kept := s.regs[:0]
	for _, e := range s.regs {
		if e.label != label {
			kept = append(kept, e)
		}
	}
	s.regs = kept
	s.mu.Unlock()
}

func (s *MetricsServer) entries() []metricsEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]metricsEntry(nil), s.regs...)
}

func (s *MetricsServer) snapshots() []Snapshot {
	entries := s.entries()
	snaps := make([]Snapshot, len(entries))
	for i, e := range entries {
		snaps[i] = e.reg.Snapshot(e.rank)
	}
	return snaps
}

// ServeHTTP implements http.Handler.
func (s *MetricsServer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch req.URL.Path {
	case "/", "/metrics":
		Merge(s.snapshots()).WriteJSON(w)
	case "/metrics/ranks":
		w.Write([]byte("[\n"))
		for i, snap := range s.snapshots() {
			if i > 0 {
				w.Write([]byte(",\n"))
			}
			snap.WriteJSON(w)
		}
		w.Write([]byte("]\n"))
	case "/metrics/sessions":
		byLabel := map[string][]Snapshot{}
		for _, e := range s.entries() {
			if e.label == "" {
				continue
			}
			byLabel[e.label] = append(byLabel[e.label], e.reg.Snapshot(e.rank))
		}
		labels := make([]string, 0, len(byLabel))
		for l := range byLabel {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		w.Write([]byte("{\n"))
		for i, l := range labels {
			if i > 0 {
				w.Write([]byte(",\n"))
			}
			key, _ := json.Marshal(l)
			w.Write(key)
			w.Write([]byte(": "))
			Merge(byLabel[l]).WriteJSON(w)
		}
		w.Write([]byte("}\n"))
	default:
		http.NotFound(w, req)
	}
}

// Serve starts listening on addr (e.g. "localhost:6060"; ":0" picks an
// ephemeral port) and serves in a background goroutine until Close.
// Returns the bound address.
func (s *MetricsServer) Serve(addr string) (string, error) {
	return s.ServeContext(context.Background(), addr)
}

// ServeContext is Serve bound to a context: when ctx is cancelled the
// server drains exactly as in Close. Either way the serve goroutine is
// fully accounted for — Close (idempotent, safe after cancellation)
// returns only once it has exited, so callers never leak it.
func (s *MetricsServer) ServeContext(ctx context.Context, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: s.readHeaderTimeout,
		ReadTimeout:       2 * s.readHeaderTimeout,
		IdleTimeout:       time.Minute,
	}
	done := make(chan struct{})
	s.mu.Lock()
	s.srv = srv
	s.done = done
	s.mu.Unlock()
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // ErrServerClosed after shutdown
	}()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.shutdown(srv)
			case <-done:
			}
		}()
	}
	return ln.Addr().String(), nil
}

// shutdown drains srv: graceful with a bounded deadline, then forced, so
// a stuck client cannot hold the process open.
func (s *MetricsServer) shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
}

// Close stops the server started by Serve/ServeContext, draining in-flight
// requests, and returns once the serve goroutine has exited. Idempotent;
// a nil or never-served server is a no-op.
func (s *MetricsServer) Close() error {
	s.mu.Lock()
	srv, done := s.srv, s.done
	s.srv, s.done = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	s.shutdown(srv)
	<-done
	return nil
}
