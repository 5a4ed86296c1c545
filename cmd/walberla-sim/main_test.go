package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"walberla/internal/setup"
	"walberla/internal/vascular"
)

// healScenario is the cavity of the merge-order bug reports: 2x2x2 blocks
// of 8^3 on 2 ranks over unix sockets, heal recovery with one spare. Its
// fault-free field hash is healHash.
const (
	healScenario = `{"version": 1, "geometry": {"example": "cavity"},
		"resolution": {"grid": [2, 2, 2], "cells_per_block": [8, 8, 8]},
		"parallel": {"ranks": 2, "spares": 1}, "transport": {"network": "unix"},
		"resilience": {"checkpoint_every": 5, "mode": "heal"}, "run": {"steps": 10}}`
	healHash = "93ef7506f4368614"

	// treeFlags and treeScenario describe the same run; treeHash is its
	// field hash (unchanged since the flag path had its own launcher).
	treeFlags    = "-tree -tree-depth 3 -dx 0.02 -cells 8 -ranks 2 -steps 20 -seed 1"
	treeScenario = `{"version": 1, "geometry": {"example": "tree", "tree_depth": 3, "dx": 0.02, "seed": 1, "inflow_velocity": 0.02},
		"resolution": {"cells_per_block": [8, 8, 8]}, "collision": {"tau": 0.6},
		"parallel": {"ranks": 2}, "run": {"steps": 20}}`
	treeHash = "5e900109f39e4bd0"
)

var (
	hashLine     = regexp.MustCompile(`(?m)^field hash: ([0-9a-f]{16})$`)
	failuresWord = regexp.MustCompile(`failures=(\d+)`)
)

// cli runs the command in-process and returns what it printed.
func cli(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(context.Background(), args, &out)
	return out.String(), err
}

func writeScenario(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagsMergeIntoScenario: flags are judged against the scenario they
// override, not against flag defaults, and none is silently dropped.
func TestFlagsMergeIntoScenario(t *testing.T) {
	path := writeScenario(t, healScenario)
	for _, tc := range []struct {
		name     string
		args     []string
		failures string
	}{
		{"spares beside a heal scenario", []string{"-spares", "1"}, "0"},
		{"heartbeat beside a unix scenario", []string{"-heartbeat", "5ms"}, "0"},
		{"injected crash is absorbed", []string{"-inject-fault", "crash=1@4"}, "1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := cli(t, append([]string{"-scenario", path}, tc.args...)...)
			if err != nil {
				t.Fatal(err)
			}
			if m := hashLine.FindStringSubmatch(out); m == nil || m[1] != healHash {
				t.Errorf("field hash %v, want %s\n%s", m, healHash, out)
			}
			if m := failuresWord.FindStringSubmatch(out); m == nil || m[1] != tc.failures {
				t.Errorf("failures %v, want %s\n%s", m, tc.failures, out)
			}
		})
	}
}

// TestFlagsAndScenarioAreOnePath runs every stepping mode from flags
// alone and from the equivalent scenario file with the mode's flags on
// top: same launcher, same hash — the fault-free one, whatever happened.
func TestFlagsAndScenarioAreOnePath(t *testing.T) {
	path := writeScenario(t, treeScenario)
	for _, tc := range []struct {
		name string
		mode func(dir string) string // flags selecting the stepping mode
	}{
		{"plain", func(string) string { return "" }},
		{"rebalanced", func(string) string { return "-rebalance 5" }},
		{"rewind after a crash", func(dir string) string {
			return "-checkpoint-every 5 -inject-fault crash=1@12 -checkpoint-sets " + dir
		}},
		{"heal after a crash", func(dir string) string {
			return "-spares 1 -recover-mode heal -checkpoint-every 5 -inject-fault crash=1@12 -checkpoint-sets " + dir
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, base := range []string{treeFlags, "-scenario " + path} {
				out, err := cli(t, strings.Fields(base+" "+tc.mode(t.TempDir()))...)
				if err != nil {
					t.Fatalf("%s: %v", base, err)
				}
				if m := hashLine.FindStringSubmatch(out); m == nil || m[1] != treeHash {
					t.Errorf("%s: field hash %v, want %s\n%s", base, m, treeHash, out)
				}
				if crashed := strings.Contains(tc.name, "crash"); crashed != strings.Contains(out, "failures=1") {
					t.Errorf("%s: crash injected %v, but the summary says\n%s", base, crashed, out)
				}
			}
		})
	}
}

// TestRejectsByName: a flag that cannot apply, or a value nothing accepts,
// is an error naming it — from run, not from a rank calling os.Exit.
func TestRejectsByName(t *testing.T) {
	path := writeScenario(t, healScenario)
	for _, tc := range []struct {
		args, want string
	}{
		{"-scenario " + path + " -tree", "-tree cannot be combined with -scenario"},
		{"-scenario " + path + " -recover-mode shrink -spares 1", `parallel.spares needs resilience.mode "heal"`},
		{"-scenario " + path + " -inject-fault crash=3@4", "crash rank 3 outside world of size 3"},
		{"-scenario ../../internal/scenario/testdata/amr-cavity.json -checkpoint out", "-checkpoint does not apply to a refined scenario"},
		{treeFlags + " -recover-mode shrink", "-recover-mode needs the fault-tolerant driver"},
		{treeFlags + " -heartbeat 5ms", "heartbeat need network unix or tcp"},
		{treeFlags + " -amr-max-level 2", "refinement does not support the tree example"},
		{treeFlags + " -workers -3", "sim: negative worker count"},
		{treeFlags + " -machine cray", "-machine: unknown machine"},
		{treeFlags + " -inject-fault boom", "-inject-fault:"},
		{"-dx 0.02", "either -mesh or -tree is required"},
		{"-tree", "geometry.dx"},
	} {
		out, err := cli(t, strings.Fields(tc.args)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q\n%s", tc.args, err, tc.want, out)
		}
	}
}

// TestBlocksFileAndPerBlockCheckpoints drives the flags only the command
// line has: a -blocks file fixes the spacing, -checkpoint then -resume
// continue a run bit-identically.
func TestBlocksFileAndPerBlockCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	hash := func(args string) string {
		t.Helper()
		out, err := cli(t, strings.Fields(args)...)
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		m := hashLine.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s: no field hash in\n%s", args, out)
		}
		return m[1]
	}
	base := "-tree -dx 0.02 -cells 8 -ranks 2 "
	first := hash(base + "-steps 10 -checkpoint " + ckpt + " -vtk " + filepath.Join(dir, "vtk"))
	whole := hash(base + "-steps 20")
	if resumed := hash(base + "-steps 10 -resume " + ckpt); resumed != whole || resumed == first {
		t.Errorf("10 steps + 10 resumed steps hash %s, 20 steps %s, 10 steps %s", resumed, whole, first)
	}
	for _, pattern := range []string{"ckpt/block_*.wbc", "vtk/block_*.vtk"} {
		if files, _ := filepath.Glob(filepath.Join(dir, pattern)); len(files) == 0 {
			t.Errorf("no %s written", pattern)
		}
	}
	if whole != treeHash {
		t.Errorf("tree-depth and seed defaults changed the run: hash %s, want %s", whole, treeHash)
	}

	// The same forest from a blockgen-style file: no -dx, no -cells.
	vp := vascular.DefaultParams()
	vp.Depth, vp.Seed = 3, 1
	sdf, err := vascular.Generate(vp).SDF()
	if err != nil {
		t.Fatal(err)
	}
	forest, _, err := setup.BuildForest(sdf, setup.Options{
		CellsPerBlock: [3]int{8, 8, 8}, Dx: 0.02, Ranks: 2, Seed: 1, UseGraphPartitioner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wbf, err := os.Create(filepath.Join(dir, "tree.wbf"))
	if err != nil {
		t.Fatal(err)
	}
	if err := forest.Save(wbf); err != nil {
		t.Fatal(err)
	}
	wbf.Close()
	if fromFile := hash("-tree -ranks 2 -steps 20 -blocks " + wbf.Name()); fromFile != whole {
		t.Errorf("-blocks run hash %s, on-the-fly forest %s", fromFile, whole)
	}
}
