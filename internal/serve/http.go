package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"walberla/internal/scenario"
	"walberla/internal/sim"
)

// Handler builds the daemon's HTTP surface (see docs/SERVE.md):
//
//	POST   /v1/sessions              create from a scenario document
//	GET    /v1/sessions              list all sessions
//	GET    /v1/sessions/{id}         one session's status
//	POST   /v1/sessions/{id}/step    advance {"steps": n}
//	POST   /v1/sessions/{id}/steer   set the body force {"force": [x,y,z]}
//	POST   /v1/sessions/{id}/snapshot  write a VTK frame, return its manifest
//	POST   /v1/sessions/{id}/suspend   spill to a checkpoint set
//	POST   /v1/sessions/{id}/resume    revive bit-identically
//	DELETE /v1/sessions/{id}         destroy
//	GET    /v1/healthz               liveness + per-session health counts
//
// When the server was built with a MetricsServer, its /metrics endpoints
// are mounted on the same mux.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, 200, map[string]any{"sessions": s.List()})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, 200, sess.info())
	})
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleStep)
	mux.HandleFunc("POST /v1/sessions/{id}/steer", s.handleSteer)
	mux.HandleFunc("POST /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		frame, files, err := s.Snapshot(r.Context(), r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, 200, map[string]any{"frame": frame, "files": files})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/suspend", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := s.Suspend(r.Context(), id); err != nil {
			writeErr(w, err)
			return
		}
		writeInfo(w, s, id)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := s.Resume(r.Context(), id); err != nil {
			writeErr(w, err)
			return
		}
		writeInfo(w, s, id)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Destroy(r.Context(), r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, 200, map[string]any{"destroyed": true})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, 200, s.Health())
	})
	if s.cfg.Metrics != nil {
		mux.Handle("/metrics", s.cfg.Metrics)
		mux.Handle("/metrics/", s.cfg.Metrics)
	}
	return mux
}

// Bounds on what one client can make the daemon hold or wait for. No
// request body of the API is larger than a scenario document, and none is
// streamed, so a client gets seconds to deliver its header and body; a
// response has no deadline because a step request legitimately computes
// for minutes.
const (
	maxBodyBytes      = 1 << 20
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server the daemon serves its API from:
// Handler(s) behind the header, body-read and idle timeouts above.
func NewHTTPServer(s *Server) *http.Server {
	return &http.Server{
		Handler:           Handler(s),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// readBody reads a request body of at most maxBodyBytes; a larger one is a
// 413 and the connection is closed instead of being drained.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, &APIError{Status: http.StatusRequestEntityTooLarge,
			Err: fmt.Errorf("serve: request body exceeds %d bytes", maxBodyBytes)}
	case err != nil:
		return nil, &APIError{Status: 400, Err: err}
	}
	return body, nil
}

// decodeBody decodes the bounded JSON body of a command request into v.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return &APIError{Status: 400, Err: fmt.Errorf("serve: bad %s request: %w", what, err)}
	}
	return nil
}

// CreateRequest is the POST /v1/sessions body: the scenario document
// itself, optionally wrapped with a tenant for fair-share accounting.
type CreateRequest struct {
	Tenant   string          `json:"tenant,omitempty"`
	Scenario json.RawMessage `json:"scenario"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var req CreateRequest
	// Accept both the envelope and a bare scenario document.
	if err := json.Unmarshal(body, &req); err != nil || len(req.Scenario) == 0 {
		req = CreateRequest{Scenario: body}
	}
	sc, err := scenario.Parse(req.Scenario)
	if err != nil {
		writeErr(w, &APIError{Status: 400, Err: err})
		return
	}
	sess, err := s.Create(sc, req.Tenant)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, 201, sess.info())
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Steps int `json:"steps"`
	}
	if err := decodeBody(w, r, "step", &req); err != nil {
		writeErr(w, err)
		return
	}
	hash, stepped, err := s.Step(r.Context(), r.PathValue("id"), req.Steps)
	if errors.Is(err, sim.ErrInterrupted) {
		writeJSON(w, 200, map[string]any{"steps": stepped, "interrupted": true})
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, 200, map[string]any{"steps": stepped, "hash": fmt.Sprintf("%016x", hash)})
}

func (s *Server) handleSteer(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Force [3]float64 `json:"force"`
	}
	if err := decodeBody(w, r, "steer", &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.Steer(r.Context(), r.PathValue("id"), req.Force); err != nil {
		writeErr(w, err)
		return
	}
	writeInfo(w, s, r.PathValue("id"))
}

func writeInfo(w http.ResponseWriter, s *Server, id string) {
	sess, err := s.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, 200, sess.info())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeErr(w http.ResponseWriter, err error) {
	status := 500
	var api *APIError
	if errors.As(err, &api) {
		status = api.Status
	}
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
