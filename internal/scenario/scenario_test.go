package scenario

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseGolden: the checked-in valid scenario files parse, and
// Validate fills the documented defaults in place.
func TestParseGolden(t *testing.T) {
	sc, err := ParseFile(filepath.Join("testdata", "cavity.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "cavity-smoke" || sc.Geometry.Example != "cavity" {
		t.Errorf("parsed %q/%q", sc.Name, sc.Geometry.Example)
	}
	if sc.Parallel.Ranks != 2 || sc.Parallel.Workers != 2 {
		t.Errorf("parallel = %+v", sc.Parallel)
	}
	if sc.Transport.Network != "inproc" {
		t.Errorf("network default = %q, want inproc", sc.Transport.Network)
	}
	if sc.Resilience.Mode != "rewind" {
		t.Errorf("resilience mode default = %q, want rewind", sc.Resilience.Mode)
	}
	if sc.Lattice.Stencil != "d3q19" {
		t.Errorf("stencil = %q", sc.Lattice.Stencil)
	}

	tg, err := ParseFile(filepath.Join("testdata", "taylorgreen.json"))
	if err != nil {
		t.Fatal(err)
	}
	if tg.Geometry.Amplitude != 0.02 || !tg.Telemetry.Metrics {
		t.Errorf("taylor-green parsed %+v %+v", tg.Geometry, tg.Telemetry)
	}
	p, err := tg.Problem()
	if err != nil {
		t.Fatal(err)
	}
	if p.Periodic != [3]bool{true, true, true} || p.InitialState == nil {
		t.Errorf("taylor-green problem not periodic with an initial state")
	}
}

// TestParseRejects: the schema fails loudly on unknown fields, version
// skew and invalid values — the golden rejection contract of the HTTP
// API's 400 responses.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		file, want string
	}{
		{"bad-unknown-field.json", "unknown field"},
		{"bad-version.json", "unsupported version"},
		{"bad-values.json", "tau"},
	}
	for _, tc := range cases {
		data, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		_, err = Parse(data)
		if err == nil {
			t.Errorf("%s: accepted an invalid scenario", tc.file)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.file, err, tc.want)
		}
	}
}

// TestParseRejectsExchangeKey: the selector of the legacy per-pair wire
// format is gone from the schema, and strict parsing says so instead of
// ignoring it.
func TestParseRejectsExchangeKey(t *testing.T) {
	doc := `{"version": 1, "geometry": {"example": "cavity"}, "resolution": {"grid": [1, 1, 1]},
		"parallel": {"exchange": "per-pair"}, "run": {"steps": 1}}`
	if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), `unknown field "exchange"`) {
		t.Errorf("parallel.exchange: got %v, want an unknown-field error", err)
	}
}

// TestValidateErrors covers the semantic checks beyond JSON shape.
func TestValidateErrors(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Version:    Version,
			Geometry:   Geometry{Example: "cavity"},
			Resolution: Resolution{Grid: [3]int{1, 1, 1}},
			Run:        RunSpec{Steps: 1},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"no example", func(sc *Scenario) { sc.Geometry.Example = "" }, "geometry.example"},
		{"bad example", func(sc *Scenario) { sc.Geometry.Example = "vortex-street" }, "geometry.example"},
		{"bad stencil", func(sc *Scenario) { sc.Lattice.Stencil = "d3q15" }, "lattice.stencil"},
		{"no grid", func(sc *Scenario) { sc.Resolution.Grid = [3]int{} }, "resolution.grid"},
		{"tree without dx", func(sc *Scenario) { sc.Geometry.Example = "tree" }, "geometry.dx"},
		{"obstacle outside channel", func(sc *Scenario) {
			sc.Geometry.Obstacle = &Obstacle{Min: [3]int{0, 0, 0}, Max: [3]int{1, 1, 1}}
		}, "obstacle"},
		{"empty obstacle", func(sc *Scenario) {
			sc.Geometry.Example = "channel"
			sc.Geometry.Obstacle = &Obstacle{Min: [3]int{2, 0, 0}, Max: [3]int{1, 1, 1}}
		}, "obstacle"},
		{"bad network", func(sc *Scenario) { sc.Transport.Network = "infiniband" }, "transport.network"},
		{"addrs on inproc", func(sc *Scenario) { sc.Transport.Addrs = []string{"a"} }, "transport.addrs"},
		{"addr count", func(sc *Scenario) {
			sc.Transport.Network = "tcp"
			sc.Transport.Addrs = []string{"127.0.0.1:0"}
			sc.Parallel.Ranks = 2
		}, "transport.addrs"},
		{"negative fail timeout", func(sc *Scenario) { sc.Resilience.FailTimeout = Duration(-time.Second) }, "resilience.fail_timeout"},
		{"negative heartbeat", func(sc *Scenario) {
			sc.Transport.Network = "unix"
			sc.Transport.Heartbeat = Duration(-5 * time.Millisecond)
		}, "transport.heartbeat"},
		{"bad mode", func(sc *Scenario) { sc.Resilience.Mode = "forward" }, "resilience.mode"},
		{"no steps", func(sc *Scenario) { sc.Run.Steps = 0 }, "run.steps"},
		{"bad tau", func(sc *Scenario) { sc.Collision.Tau = 0.3 }, "tau"},
		{"bad kernel pairing", func(sc *Scenario) {
			sc.Lattice.Stencil = "d2q9"
			sc.Collision.Kernel = "TRT SIMD"
		}, "kernel"},
	}
	for _, tc := range cases {
		sc := base()
		tc.mutate(sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the scenario", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestExecuteRewindNeedsDir: rewind checkpointing without a set directory
// is a scenario the session daemon runs (it owns where its sets go), so
// Validate accepts it; Execute, which hands resilience.dir to the driver,
// refuses it by name before any rank starts.
func TestExecuteRewindNeedsDir(t *testing.T) {
	sc := &Scenario{
		Version:    Version,
		Geometry:   Geometry{Example: "cavity"},
		Resolution: Resolution{Grid: [3]int{1, 1, 1}},
		Resilience: Resilience{CheckpointEvery: 5},
		Run:        RunSpec{Steps: 1},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := Execute(context.Background(), sc, ExecuteOptions{}); err == nil || !strings.Contains(err.Error(), "resilience.dir") {
		t.Fatalf("Execute error = %v, want one naming resilience.dir", err)
	}
}

// TestRoundTrip: a validated scenario re-marshals and re-parses into the
// same value — the schema is closed under its own serialization, which
// the daemon relies on when echoing a session's scenario back.
func TestRoundTrip(t *testing.T) {
	for _, file := range []string{"cavity.json", "taylorgreen.json", "amr-cavity.json"} {
		sc, err := ParseFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		sc.Resilience.FailTimeout = Duration(250 * time.Millisecond)
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", file, err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("%s: round trip changed the scenario:\n  %+v\n  %+v", file, sc, back)
		}
	}
}

// TestDurationForms: the Duration type accepts both human strings and
// raw nanosecond numbers.
func TestDurationForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"150ms"`), &d); err != nil || time.Duration(d) != 150*time.Millisecond {
		t.Errorf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1000000`), &d); err != nil || time.Duration(d) != time.Millisecond {
		t.Errorf("number form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Error("accepted a junk duration")
	}
}

// TestExecuteDeterministic: the same scenario executes to the same field
// hash regardless of worker count — the property that makes the hash a
// meaningful CLI-vs-daemon and suspend-vs-uninterrupted comparison.
func TestExecuteDeterministic(t *testing.T) {
	sc, err := ParseFile(filepath.Join("testdata", "cavity.json"))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Execute(context.Background(), sc, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Interrupted || r1.Steps != sc.Run.Steps || r1.Hash == 0 {
		t.Fatalf("unexpected result %+v", r1)
	}
	sc2 := *sc
	sc2.Parallel.Workers = 4
	r2, err := Execute(context.Background(), &sc2, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hash != r2.Hash {
		t.Errorf("hash differs across worker counts: %016x vs %016x", r1.Hash, r2.Hash)
	}
}

// TestTreeGeometryGeneratedOnce: one scenario, one geometry. Parse (which
// validates), a second Validate and every Problem call share the single
// generated tree; a copy whose geometry fields were edited regenerates its
// own without touching the original's; and two problems of one scenario
// still build identical forests.
func TestTreeGeometryGeneratedOnce(t *testing.T) {
	sc, err := Parse([]byte(`{"version": 1, "geometry": {"example": "tree", "tree_depth": 2, "dx": 0.05},
  "resolution": {"cells_per_block": [16, 16, 16]}, "parallel": {"ranks": 2}, "run": {"steps": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.tree == nil {
		t.Fatal("Parse validated a tree scenario without keeping its geometry")
	}
	generated := sc.tree.sdf
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	p1, err := sc.Problem()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sc.Problem()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Geometry != generated || p2.Geometry != generated {
		t.Error("validate → problem → problem generated the tree more than once")
	}
	f1, err := p1.BuildForest()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p2.BuildForest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Error("two problems of one scenario built different forests")
	}

	deeper := *sc
	deeper.Geometry.TreeDepth = 3
	p3, err := deeper.Problem()
	if err != nil {
		t.Fatal(err)
	}
	if p3.Geometry == generated {
		t.Error("a copy with another tree_depth reused the original's geometry")
	}
	if sc.tree.sdf != generated {
		t.Error("regenerating on a copy replaced the original's geometry")
	}
}
