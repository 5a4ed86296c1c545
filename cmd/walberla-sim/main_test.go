package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"walberla/internal/output"
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

// fieldHash runs the command and returns the field hash it printed.
func fieldHash(t *testing.T, args string) string {
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

// TestCheckpointSetsAcrossRecovery: the final set is named after the step
// its fields are at, also when recovery fell back to the initial state; a
// set written after the block ownership changed (a rebalance, a shrink)
// resumes on the fresh distribution; a resumed fault-tolerant run is
// protected from its first step, and its recruited spare runs to the
// resumed end step.
func TestCheckpointSetsAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	sets := func(name string) string { return filepath.Join(dir, name) }
	base := "-tree -dx 0.02 -cells 8 "

	// The crash comes before the first periodic set: rewind replays from
	// the initial state, and simulated time restarts with it.
	if h := fieldHash(t, base+"-ranks 2 -steps 20 -checkpoint-every 5 -inject-fault crash=1@3 -checkpoint "+sets("early")); h != treeHash {
		t.Errorf("rewind to the initial state: hash %s, want %s", h, treeHash)
	}
	if got := output.ListValidSets(sets("early")); !slices.Equal(got, []int64{20, 15, 10, 5}) {
		t.Errorf("rewind to the initial state left sets %v, want [20 15 10 5]", got)
	}

	for _, tc := range []struct{ name, first, resume string }{
		{"plain", "-ranks 2", "-ranks 2 -checkpoint-every 4 -recover-mode shrink -inject-fault crash=1@11"},
		{"rebalanced", "-ranks 2 -rebalance 3", "-ranks 2"},
		{"shrunk", "-ranks 3 -checkpoint-every 4 -recover-mode shrink -inject-fault crash=1@7", "-ranks 2"},
	} {
		ckpt := sets(tc.name)
		fieldHash(t, base+tc.first+" -steps 10 -checkpoint "+ckpt)
		if h := fieldHash(t, base+tc.resume+" -steps 10 -resume "+ckpt); h != treeHash {
			t.Errorf("%s: 10 steps, then %s -resume: hash %s, want the 20-step %s", tc.name, tc.resume, h, treeHash)
		}
	}

	path := writeScenario(t, healScenario)
	want := fieldHash(t, "-scenario "+path+" -steps 15")
	fieldHash(t, "-scenario "+path+" -steps 5 -checkpoint "+sets("heal"))
	out, err := cli(t, strings.Fields("-scenario "+path+" -resume "+sets("heal")+" -checkpoint "+sets("heal")+" -inject-fault crash=1@7")...)
	if err != nil {
		t.Fatalf("resumed heal run: %v\n%s", err, out)
	}
	if m := hashLine.FindStringSubmatch(out); m == nil || m[1] != want || !strings.Contains(out, "failures=1") {
		t.Errorf("resumed heal run: hash %v, want %s after one failure\n%s", m, want, out)
	}
	if got := output.ListValidSets(sets("heal")); !slices.Equal(got, []int64{15, 10, 5}) {
		t.Errorf("resumed heal run left sets %v, want [15 10 5]", got)
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
			return "-checkpoint-every 5 -inject-fault crash=1@12 -checkpoint " + dir
		}},
		{"heal after a crash", func(dir string) string {
			return "-spares 1 -recover-mode heal -checkpoint-every 5 -inject-fault crash=1@12 -checkpoint " + dir
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
	empty := t.TempDir()
	for _, tc := range []struct {
		args, want string
	}{
		{"-scenario " + path + " -tree", "-tree cannot be combined with -scenario"},
		{"-scenario " + path + " -recover-mode shrink -spares 1", `parallel.spares needs resilience.mode "heal"`},
		{"-scenario " + path + " -inject-fault crash=3@4", "crash rank 3 outside world of size 3"},
		{"-scenario ../../internal/scenario/testdata/amr-cavity.json -resume out", "-resume does not apply to a refined scenario"},
		{treeFlags + " -resume " + empty, "no usable checkpoint set for 2 ranks in " + empty},
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

// TestBlocksFileAndCheckpointSets drives the flags only the command line
// has: a -blocks file fixes the spacing, -checkpoint then -resume continue
// a run bit-identically through checkpoint sets — plainly, and under the
// fault-tolerant driver, whose periodic sets and fault schedule then count
// from the restored step — and a -resume that finds no set for its rank
// count fails. A refined scenario writes its final set too.
func TestBlocksFileAndCheckpointSets(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	hash := func(args string) string { t.Helper(); return fieldHash(t, args) }
	base := "-tree -dx 0.02 -cells 8 -ranks 2 "
	first := hash(base + "-steps 10 -checkpoint " + ckpt + " -vtk " + filepath.Join(dir, "vtk"))
	whole := hash(base + "-steps 20")
	if resumed := hash(base + "-steps 10 -resume " + ckpt); resumed != whole || resumed == first {
		t.Errorf("10 steps + 10 resumed steps hash %s, 20 steps %s, 10 steps %s", resumed, whole, first)
	}
	if _, err := output.ValidateSetDir(filepath.Join(ckpt, output.SetDirName(10))); err != nil {
		t.Errorf("final set: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "vtk/block_*.vtk")); len(files) == 0 {
		t.Error("no VTK files written")
	}
	again := filepath.Join(dir, "again")
	if resumed := hash(base + "-steps 10 -resume " + ckpt + " -checkpoint-every 4 -checkpoint " + again + " -inject-fault crash=1@13"); resumed != whole {
		t.Errorf("resilient resume with a crash hash %s, 20 steps %s", resumed, whole)
	}
	// The restored step is a protection barrier too: its set lands beside
	// the periodic ones.
	if got := output.ListValidSets(again); !slices.Equal(got, []int64{20, 16, 12, 10}) {
		t.Errorf("resumed resilient run left sets %v, want [20 16 12 10]", got)
	}
	if out, err := cli(t, strings.Fields("-tree -dx 0.02 -cells 8 -ranks 3 -steps 1 -resume "+ckpt)...); err == nil || !strings.Contains(err.Error(), "no usable checkpoint set for 3 ranks in "+ckpt) {
		t.Errorf("-resume of a 2-rank set on 3 ranks: error %v\n%s", err, out)
	}
	refined := filepath.Join(dir, "refined")
	if out, err := cli(t, "-scenario", "../../internal/scenario/testdata/amr-cavity.json", "-steps", "2", "-checkpoint", refined); err != nil {
		t.Fatalf("refined run with -checkpoint: %v\n%s", err, out)
	}
	if got := output.ListValidSets(refined); !slices.Equal(got, []int64{2}) {
		t.Errorf("refined run left sets %v, want [2]", got)
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
