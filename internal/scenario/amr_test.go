package scenario

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"walberla/internal/sim"
)

// amrBase is a minimal valid refined scenario: a 2x2x2 lid-driven
// cavity that refines the near-lid shear layer one level.
func amrBase() *Scenario {
	return &Scenario{
		Version:    Version,
		Geometry:   Geometry{Example: "cavity", LidVelocity: 0.08},
		Resolution: Resolution{Grid: [3]int{2, 2, 2}, CellsPerBlock: [3]int{8, 8, 8}},
		Refinement: RefinementSpec{MaxLevel: 1, RefineAbove: 0.002, CoarsenBelow: 0.0002},
		Run:        RunSpec{Steps: 2},
	}
}

// TestRefinementValidateErrors covers the AMR-specific schema
// restrictions: every unsupported combination must fail loudly, naming
// the offending setting.
func TestRefinementValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"fields without max_level", func(sc *Scenario) { sc.Refinement.MaxLevel = 0 }, "max_level"},
		{"negative max_level", func(sc *Scenario) { sc.Refinement.MaxLevel = -1 }, "max_level"},
		{"bad criterion", func(sc *Scenario) { sc.Refinement.Criterion = "curvature" }, "criterion"},
		{"missing refine_above", func(sc *Scenario) { sc.Refinement.RefineAbove = 0 }, "refine_above"},
		{"inverted hysteresis", func(sc *Scenario) { sc.Refinement.CoarsenBelow = 0.01 }, "coarsen_below"},
		{"tree example", func(sc *Scenario) {
			sc.Geometry.Example = "tree"
			sc.Geometry.Dx = 0.5
		}, "tree"},
		{"obstacle", func(sc *Scenario) {
			sc.Geometry.Example = "channel"
			sc.Geometry.Obstacle = &Obstacle{Min: [3]int{1, 1, 1}, Max: [3]int{2, 2, 2}}
		}, "obstacle"},
		{"d2q9 stencil", func(sc *Scenario) { sc.Lattice.Stencil = "d2q9" }, "d3q19"},
		{"d3q27 stencil", func(sc *Scenario) { sc.Lattice.Stencil = "d3q27" }, "d3q19"},
		{"sparse kernel", func(sc *Scenario) { sc.Collision.Kernel = "sparse" }, "sparse"},
		{"body force", func(sc *Scenario) { sc.Physics.Force = [3]float64{1e-6, 0, 0} }, "force"},
		{"body force across z", func(sc *Scenario) { sc.Physics.Force = [3]float64{0, 0, -1e-6} }, "force"},
		{"odd cells per block", func(sc *Scenario) { sc.Resolution.CellsPerBlock = [3]int{7, 8, 8} }, "even"},
	}
	for _, tc := range cases {
		sc := amrBase()
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

// TestRefinementDefaults: Validate fills the documented refinement
// defaults in place, and the valid examples all map onto an AMR config.
func TestRefinementDefaults(t *testing.T) {
	sc := amrBase()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sc.AMR() {
		t.Fatal("refined scenario does not report AMR")
	}
	if sc.Refinement.Criterion != "gradient" || sc.Refinement.Interval != 4 {
		t.Errorf("defaults not filled: %+v", sc.Refinement)
	}
	cfg, err := sc.AMRConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Layout != sim.LayoutAuto {
		t.Errorf("auto layout mapped to %v, want auto (the plane's SoA for D3Q19)", cfg.Layout)
	}
	if cfg.SetupFlags == nil {
		t.Error("cavity mapping has no boundary flags")
	}
	if cfg.Tau != 0.9 {
		t.Errorf("tau default = %v, want 0.9", cfg.Tau)
	}

	for _, ex := range []string{"taylor-green", "channel"} {
		sc := amrBase()
		sc.Geometry.Example = ex
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", ex, err)
			continue
		}
		cfg, err := sc.AMRConfig()
		if err != nil {
			t.Errorf("%s: %v", ex, err)
			continue
		}
		if ex == "taylor-green" && (cfg.Periodic != [3]bool{true, true, true} || cfg.InitialState == nil) {
			t.Errorf("taylor-green mapping not periodic with an initial state")
		}
		if ex == "channel" && cfg.SetupFlags == nil {
			t.Errorf("channel mapping has no boundary flags")
		}
	}
}

// TestAMRGoldenParse: the checked-in refined scenario parses and lands
// on the AMR driver with defaults filled.
func TestAMRGoldenParse(t *testing.T) {
	sc, err := ParseFile(filepath.Join("testdata", "amr-cavity.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !sc.AMR() || sc.Refinement.MaxLevel != 1 {
		t.Fatalf("refinement = %+v", sc.Refinement)
	}
	if sc.Refinement.Criterion != "gradient" || sc.Refinement.Interval != 4 {
		t.Errorf("refinement defaults = %+v", sc.Refinement)
	}
	if _, resilient := sc.Resilient(); resilient {
		t.Error("plain scenario reports a resilient AMR run")
	}
}

// TestExecuteAMRDeterministic: a refined scenario executes to the same
// field hash regardless of worker count, actually refines at runtime,
// and dumps per-leaf VTK blocks on request — the AMR arm of the
// CLI-vs-daemon determinism contract.
func TestExecuteAMRDeterministic(t *testing.T) {
	sc, err := ParseFile(filepath.Join("testdata", "amr-cavity.json"))
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
	if len(r1.Levels) < 2 || r1.Levels[1] == 0 {
		t.Fatalf("run never refined: leaves per level %v", r1.Levels)
	}

	vtk := t.TempDir()
	sc2 := *sc
	sc2.Parallel.Workers = 4
	r2, err := Execute(context.Background(), &sc2, ExecuteOptions{VTKDir: vtk})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hash != r2.Hash {
		t.Errorf("hash differs across worker counts: %016x vs %016x", r1.Hash, r2.Hash)
	}
	fine, err := filepath.Glob(filepath.Join(vtk, "block_L1_*.vtk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) == 0 {
		entries, _ := os.ReadDir(vtk)
		t.Errorf("no fine-level VTK blocks written (%d files total)", len(entries))
	}
}
