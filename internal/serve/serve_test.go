package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"walberla/internal/scenario"
	"walberla/internal/telemetry"
	"walberla/internal/testutil"
)

// testScenario is a small two-rank cavity that steps in milliseconds.
func testScenario(t *testing.T, steps int) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Parse([]byte(fmt.Sprintf(`{
		"version": 1,
		"name": "serve-test",
		"geometry": {"example": "cavity"},
		"lattice": {},
		"resolution": {"grid": [2, 1, 1], "cells_per_block": [4, 4, 4]},
		"collision": {"tau": 0.65},
		"physics": {"force": [0, 0, 0], "initial_velocity": [0, 0, 0]},
		"parallel": {"ranks": 2},
		"transport": {},
		"resilience": {},
		"telemetry": {},
		"run": {"steps": %d}
	}`, steps)))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSessionLifecycle drives one session through every verb and proves
// the suspend/resume cycle is bit-identical: the hash after suspend,
// resume and the remaining steps equals the hash of an uninterrupted
// scenario.Execute of the same file — the daemon and the library path
// agree to the last bit.
func TestSessionLifecycle(t *testing.T) {
	const total = 6
	sc := testScenario(t, total)
	want, err := scenario.Execute(context.Background(), sc, scenario.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{})
	sess, err := s.Create(testScenario(t, total), "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := s.Step(ctx, sess.ID, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Suspend(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	if got := sess.info().State; got != StateSuspended {
		t.Fatalf("state after suspend = %s", got)
	}
	// Suspended sessions refuse commands.
	if _, _, err := s.Step(ctx, sess.ID, 1); err == nil {
		t.Fatal("stepped a suspended session")
	}
	if err := s.Resume(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	hash, stepped, err := s.Step(ctx, sess.ID, total-2)
	if err != nil {
		t.Fatal(err)
	}
	if stepped != total {
		t.Fatalf("stepped = %d, want %d", stepped, total)
	}
	if hash != want.Hash {
		t.Errorf("suspend/resume hash %016x != uninterrupted %016x", hash, want.Hash)
	}
	if err := s.Destroy(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(sess.ID); err == nil {
		t.Fatal("destroyed session still listed")
	}
}

// TestConcurrentSessions is the lifecycle race test: ≥3 sessions from
// different tenants create/step/steer/snapshot/suspend/resume/destroy
// concurrently over the shared gate (run under -race via make
// race-serve). Each session must still produce the exact uninterrupted
// hash — concurrency and fair-share scheduling may never leak state
// between sessions.
func TestConcurrentSessions(t *testing.T) {
	const (
		sessions = 4
		total    = 6
	)
	want, err := scenario.Execute(context.Background(), testScenario(t, total), scenario.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{MaxSessions: sessions, MaxConcurrentSteps: 2})
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			sess, err := s.Create(testScenario(t, total), fmt.Sprintf("tenant-%d", i%2))
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := s.Step(ctx, sess.ID, 3); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := s.Suspend(ctx, sess.ID); err != nil {
					t.Error(err)
					return
				}
				if err := s.Resume(ctx, sess.ID); err != nil {
					t.Error(err)
					return
				}
			}
			if _, _, err := s.Step(ctx, sess.ID, total-3-1); err != nil {
				t.Error(err)
				return
			}
			hash, stepped, err := s.Step(ctx, sess.ID, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if stepped != total || hash != want.Hash {
				t.Errorf("session %s: steps %d hash %016x, want %d/%016x",
					sess.ID, stepped, hash, total, want.Hash)
			}
			if err := s.Destroy(ctx, sess.ID); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestAdmissionControl: the resident-session cap refuses creation with a
// typed 429, and a suspended session frees its slot.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{MaxSessions: 1})
	ctx := context.Background()
	first, err := s.Create(testScenario(t, 4), "a")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Create(testScenario(t, 4), "b")
	apiStatus(t, err, 429)
	if err := s.Suspend(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := s.Create(testScenario(t, 4), "b")
	if err != nil {
		t.Fatalf("create after suspend: %v", err)
	}
	// Resuming the first now exceeds the cap again.
	apiStatus(t, s.Resume(ctx, first.ID), 429)
	if err := s.Destroy(ctx, second.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(ctx, first.ID); err != nil {
		t.Fatalf("resume after destroy: %v", err)
	}
}

func apiStatus(t *testing.T, err error, want int) {
	t.Helper()
	var api *APIError
	if err == nil || !errors.As(err, &api) || api.Status != want {
		t.Fatalf("error = %v, want API status %d", err, want)
	}
}

// TestHTTPAPI drives the full HTTP surface end to end over httptest,
// including scenario rejection, session metrics labels and the VTK frame
// manifest.
func TestHTTPAPI(t *testing.T) {
	testutil.CheckLeaks(t)
	metrics := telemetry.NewMetricsServer()
	s := newTestServer(t, Config{Metrics: metrics})
	// Serve from the daemon's own http.Server, with the header deadline
	// shortened so the slow-client case below takes milliseconds.
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = NewHTTPServer(s)
	if ts.Config.ReadHeaderTimeout <= 0 || ts.Config.ReadTimeout <= 0 {
		t.Fatalf("daemon server has no read deadlines: %+v", ts.Config)
	}
	ts.Config.ReadHeaderTimeout = 100 * time.Millisecond
	ts.Start()
	defer ts.Close()

	post := func(path string, body any) (int, map[string]any) {
		t.Helper()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
		return resp.StatusCode, out
	}

	// Rejection: an unknown field is a 400 with the offending name.
	code, out := post("/v1/sessions", map[string]any{"version": 1, "geomtry": map[string]any{}})
	if code != 400 || !strings.Contains(fmt.Sprint(out["error"]), "geomtry") {
		t.Fatalf("bad scenario → %d %v", code, out)
	}

	code, out = post("/v1/sessions", map[string]any{
		"tenant":   "curl",
		"scenario": json.RawMessage(mustJSON(t, testScenario(t, 5))),
	})
	if code != 201 {
		t.Fatalf("create → %d %v", code, out)
	}
	id := fmt.Sprint(out["id"])

	code, out = post("/v1/sessions/"+id+"/step", map[string]any{"steps": 2})
	if code != 200 || out["hash"] == nil {
		t.Fatalf("step → %d %v", code, out)
	}
	hashAfter2 := fmt.Sprint(out["hash"])

	// The session's labeled metrics are live.
	sessions := get(t, ts.URL+"/metrics/sessions")
	if !strings.Contains(sessions, id) {
		t.Errorf("/metrics/sessions lacks %s: %s", id, sessions)
	}

	code, out = post("/v1/sessions/"+id+"/steer", map[string]any{"force": []float64{1e-6, 0, 0}})
	if code != 200 {
		t.Fatalf("steer → %d %v", code, out)
	}
	code, out = post("/v1/sessions/"+id+"/snapshot", nil)
	if code != 200 {
		t.Fatalf("snapshot → %d %v", code, out)
	}
	if files, ok := out["files"].([]any); !ok || len(files) != 2 {
		t.Fatalf("snapshot manifest %v, want 2 block files", out["files"])
	}

	code, out = post("/v1/sessions/"+id+"/suspend", nil)
	if code != 200 || out["state"] != string(StateSuspended) {
		t.Fatalf("suspend → %d %v", code, out)
	}
	// Suspended sessions drop off the metrics surface.
	if got := get(t, ts.URL+"/metrics/sessions"); strings.Contains(got, id) {
		t.Errorf("suspended session still on /metrics/sessions: %s", got)
	}
	code, out = post("/v1/sessions/"+id+"/resume", nil)
	if code != 200 || out["state"] != string(StateReady) {
		t.Fatalf("resume → %d %v", code, out)
	}
	code, out = post("/v1/sessions/"+id+"/step", map[string]any{"steps": 0})
	if code != 400 {
		t.Fatalf("zero steps → %d %v", code, out)
	}

	// Bounded input: a body over the limit is a 413 on every verb that
	// reads one, and costs the session nothing.
	huge := map[string]any{"steps": 1, "pad": strings.Repeat("x", maxBodyBytes)}
	for _, path := range []string{"/v1/sessions", "/v1/sessions/" + id + "/step", "/v1/sessions/" + id + "/steer"} {
		if code, out := post(path, huge); code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body to %s → %d %v, want 413", path, code, out)
		}
	}
	// A client that never finishes its header is cut off at the header
	// deadline instead of holding a connection open.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/sessions HTTP/1.1\r\nHost: slow\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a TCP conn accepts deadlines
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("slow-header connection was not closed by the server: %v", err)
	}

	// The list shows the session with its step count.
	var list struct {
		Sessions []Info `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/v1/sessions")), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].Steps != 2 || list.Sessions[0].LastHash != hashAfter2 {
		t.Fatalf("list = %+v", list.Sessions)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete → %d", resp.StatusCode)
	}
	if code, _ := post("/v1/sessions/"+id+"/step", map[string]any{"steps": 1}); code != 404 {
		t.Fatalf("step after delete → %d", code)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCreateRejectsCLIOnlyKeys: a session parks no spare rank, recovers
// only by respawning its world and writes its sets under its own data
// directory, so Create refuses the keys that ask for those with a 400
// naming the key instead of running without them.
func TestCreateRejectsCLIOnlyKeys(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, row := range []struct {
		key string
		set func(sc *scenario.Scenario)
	}{
		{"parallel.spares", func(sc *scenario.Scenario) {
			sc.Parallel.Spares, sc.Resilience.Mode, sc.Resilience.CheckpointEvery = 1, "heal", 2
		}},
		{"resilience.mode", func(sc *scenario.Scenario) { sc.Resilience.Mode, sc.Resilience.CheckpointEvery = "shrink", 2 }},
		{"resilience.mode", func(sc *scenario.Scenario) { sc.Resilience.Mode, sc.Resilience.CheckpointEvery = "heal", 2 }},
		{"resilience.dir", func(sc *scenario.Scenario) { sc.Resilience.CheckpointEvery, sc.Resilience.Dir = 2, "sets" }},
	} {
		sc := testScenario(t, 4)
		row.set(sc)
		_, err := s.Create(sc, "tenant-a")
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 {
			t.Errorf("%s: want a 400 APIError, got %v", row.key, err)
			continue
		}
		if !strings.Contains(err.Error(), row.key) {
			t.Errorf("error %q does not name %s", err, row.key)
		}
	}
}

// TestCheckpointingSessionNeedsNoDir: a session with checkpoint_every > 0
// and no resilience.dir — the daemon writes its sets under its own data
// directory — is created, suspended and resumed, and ends on the hash of
// an uninterrupted run.
func TestCheckpointingSessionNeedsNoDir(t *testing.T) {
	const total = 6
	want, err := scenario.Execute(context.Background(), testScenario(t, total), scenario.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario(t, total)
	sc.Resilience.CheckpointEvery = 2
	s := newTestServer(t, Config{})
	sess, err := s.Create(sc, "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := s.Step(ctx, sess.ID, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Suspend(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	hash, stepped, err := s.Step(ctx, sess.ID, total-2)
	if err != nil {
		t.Fatal(err)
	}
	if stepped != total || hash != want.Hash {
		t.Fatalf("stepped %d to hash %016x, want %d steps and %016x", stepped, hash, total, want.Hash)
	}
}

// TestRefinedSessionLifecycle: a refined scenario is a session like any
// other. Created, stepped 2, suspended, resumed and stepped 4 more, it
// ends on the hash of scenario.Execute, which is the command line's
// (walberla-sim -scenario amr-cavity.json); a snapshot writes one file per
// leaf, byte for byte what Execute's VTK dump writes. Steering it is a
// 400 naming physics.force — a refined world takes no body force — and
// leaves the fields as they were.
func TestRefinedSessionLifecycle(t *testing.T) {
	const cliHash = 0xff71bdd150329bef
	load := func() *scenario.Scenario {
		sc, err := scenario.ParseFile(filepath.Join("..", "scenario", "testdata", "amr-cavity.json"))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	vtk := t.TempDir()
	want, err := scenario.Execute(context.Background(), load(), scenario.ExecuteOptions{VTKDir: vtk})
	if err != nil {
		t.Fatal(err)
	}
	if want.Hash != cliHash || want.Steps != 6 {
		t.Fatalf("scenario.Execute: %d steps to %016x, want 6 to %016x", want.Steps, want.Hash, uint64(cliHash))
	}

	s := newTestServer(t, Config{})
	sess, err := s.Create(load(), "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := s.Step(ctx, sess.ID, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Suspend(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	err = s.Steer(ctx, sess.ID, [3]float64{1e-6, 0, 0})
	apiStatus(t, err, 400)
	if !strings.Contains(err.Error(), "physics.force") {
		t.Errorf("steer refusal %q does not name physics.force", err)
	}
	hash, stepped, err := s.Step(ctx, sess.ID, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stepped != 6 || hash != want.Hash {
		t.Fatalf("stepped %d to hash %016x, want 6 steps and %016x", stepped, hash, want.Hash)
	}

	frame, files, err := s.Snapshot(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 36 {
		t.Fatalf("snapshot lists %d files, want one per leaf (36)", len(files))
	}
	for _, name := range files {
		got, err := os.ReadFile(filepath.Join(sess.dir, frame, name))
		if err != nil {
			t.Fatal(err)
		}
		if w, err := os.ReadFile(filepath.Join(vtk, name)); err != nil || !bytes.Equal(got, w) {
			t.Errorf("snapshot %s differs from scenario.Execute's (%v)", name, err)
		}
	}
}

// TestRebalancingSessionHash: run.rebalance_every is a session key like
// any other. The tree (walberla-sim -tree -dx 0.02 -cells 8 -ranks 2),
// whose balances move blocks off set-up's graph partition, and the
// refined cavity run on past its regrade to 36 leaves, whose balance at
// step 5 cuts them by measured time, are each rebalanced, stepped past a
// balance, suspended, resumed from the set that recorded the moved owners
// and stepped to the end: they end on the hash of scenario.Execute — the
// command line's path — of the same scenario without rebalancing.
func TestRebalancingSessionHash(t *testing.T) {
	for _, row := range []struct {
		name                string
		load                func() (*scenario.Scenario, error)
		every, first, total int
	}{
		{"tree", func() (*scenario.Scenario, error) {
			return scenario.Parse([]byte(`{"version": 1, "geometry": {"example": "tree", "tree_depth": 3, "dx": 0.02, "seed": 1, "inflow_velocity": 0.02},
				"resolution": {"cells_per_block": [8, 8, 8]}, "collision": {"tau": 0.6}, "parallel": {"ranks": 2}, "run": {"steps": 20}}`))
		}, 5, 7, 20},
		{"refined cavity", func() (*scenario.Scenario, error) {
			return scenario.ParseFile(filepath.Join("..", "scenario", "testdata", "amr-cavity.json"))
		}, 5, 7, 10},
	} {
		sc, err := row.load()
		if err != nil {
			t.Fatal(err)
		}
		sc.Run.Steps = row.total
		want, err := scenario.Execute(context.Background(), sc, scenario.ExecuteOptions{})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		sc, _ = row.load()
		sc.Run.Steps, sc.Run.RebalanceEvery = row.total, row.every
		s := newTestServer(t, Config{})
		sess, err := s.Create(sc, "tenant-a")
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		ctx := context.Background()
		if _, _, err := s.Step(ctx, sess.ID, row.first); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if err := s.Suspend(ctx, sess.ID); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if err := s.Resume(ctx, sess.ID); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		hash, stepped, err := s.Step(ctx, sess.ID, row.total-row.first)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if stepped != row.total || hash != want.Hash {
			t.Errorf("%s: stepped %d to hash %016x, want %d steps and %016x", row.name, stepped, hash, row.total, want.Hash)
		}
	}
}
