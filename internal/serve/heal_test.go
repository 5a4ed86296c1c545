package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"walberla/internal/scenario"
	"walberla/internal/testutil"
)

// faultyScenario is the serve-test cavity with batch-granular durability
// and a deterministic rank crash injected at the given step.
func faultyScenario(t *testing.T, steps, crashRank, crashStep int) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Parse([]byte(fmt.Sprintf(`{
		"version": 1,
		"name": "serve-heal-test",
		"geometry": {"example": "cavity"},
		"lattice": {},
		"resolution": {"grid": [2, 1, 1], "cells_per_block": [4, 4, 4]},
		"collision": {"tau": 0.65},
		"physics": {"force": [0, 0, 0], "initial_velocity": [0, 0, 0]},
		"parallel": {"ranks": 2},
		"transport": {},
		"resilience": {"checkpoint_every": 2},
		"faults": {"seed": 9, "crashes": [{"rank": %d, "step": %d}]},
		"telemetry": {},
		"run": {"steps": %d}
	}`, crashRank, crashStep, steps)))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestSupervisedRespawnHTTP kills a session's world with an injected rank
// crash mid-batch and drives the whole repair through the HTTP surface:
// the failed batch reports an error, the supervisor respawns the world
// from the last committed batch checkpoint, the session surfaces
// healing → degraded with the absorbed failure counted, /v1/healthz
// aggregates it, and the remaining steps produce the exact fault-free
// hash.
func TestSupervisedRespawnHTTP(t *testing.T) {
	testutil.CheckLeaks(t)
	const total = 6
	// Fault-free reference from the library path: same cavity, no faults.
	want, err := scenario.Execute(context.Background(), testScenario(t, total), scenario.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{})
	ts := httptest.NewServer(Handler(s))
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

	code, out := post("/v1/sessions", map[string]any{
		"tenant":   "chaos",
		"scenario": json.RawMessage(mustJSON(t, faultyScenario(t, total, 1, 3))),
	})
	if code != 201 {
		t.Fatalf("create → %d %v", code, out)
	}
	id := fmt.Sprint(out["id"])
	if out["health"] != string(HealthHealthy) {
		t.Fatalf("fresh session health = %v, want healthy", out["health"])
	}

	// Batch 1 (steps 1–2) commits a checkpoint set before the crash step.
	if code, out = post("/v1/sessions/"+id+"/step", map[string]any{"steps": 2}); code != 200 {
		t.Fatalf("first batch → %d %v", code, out)
	}

	// Batch 2 hits the injected crash of rank 1 at step 3: the batch
	// fails, the world dies, and the supervisor takes over.
	if code, out = post("/v1/sessions/"+id+"/step", map[string]any{"steps": 2}); code == 200 {
		t.Fatalf("crashed batch succeeded: %v", out)
	}

	// The supervisor respawns from the batch-1 set; wait for ready+degraded.
	var in Info
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := json.Unmarshal([]byte(get(t, ts.URL+"/v1/sessions/"+id)), &in); err != nil {
			t.Fatal(err)
		}
		if in.State == StateReady && in.Health == HealthDegraded {
			break
		}
		if in.State == StateFailed {
			t.Fatalf("session failed instead of healing: %+v", in)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session did not heal: %+v", in)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if in.FailuresAbsorbed != 1 {
		t.Errorf("failures absorbed = %d, want 1", in.FailuresAbsorbed)
	}
	if in.WorldSize != 2 {
		t.Errorf("world size after respawn = %d, want 2", in.WorldSize)
	}
	if in.Steps != 2 {
		t.Errorf("respawned at step %d, want 2 (the last committed batch)", in.Steps)
	}

	// The aggregate health endpoint counts the degraded session and the
	// absorbed failure.
	var health HealthSummary
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/v1/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Sessions[string(HealthDegraded)] != 1 || health.FailuresAbsorbed != 1 {
		t.Errorf("healthz = %+v, want ok with one degraded session and one absorbed failure", health)
	}

	// The respawned world runs clean (fault schedules describe one
	// incarnation) and finishes bit-identically to the fault-free run.
	code, out = post("/v1/sessions/"+id+"/step", map[string]any{"steps": total - 2})
	if code != 200 {
		t.Fatalf("post-heal batch → %d %v", code, out)
	}
	if got, wantHash := fmt.Sprint(out["hash"]), fmt.Sprintf("%016x", want.Hash); got != wantHash {
		t.Errorf("post-heal hash %s, want fault-free %s", got, wantHash)
	}
	if got := fmt.Sprint(out["steps"]); got != fmt.Sprint(total) {
		t.Errorf("steps after heal = %s, want %d", got, total)
	}
}

// TestHealthzEmpty: a fresh daemon reports ok with no sessions.
func TestHealthzEmpty(t *testing.T) {
	testutil.CheckLeaks(t)
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	var health HealthSummary
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/v1/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || len(health.Sessions) != 0 || health.FailuresAbsorbed != 0 {
		t.Errorf("healthz = %+v, want ok and empty", health)
	}
}
