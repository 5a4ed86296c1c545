package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if err := prepareOut(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables the
// program prints from together: same workloads, same metric names, units,
// directions and bounds, same default run length.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, defined %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: listed %+v, defined %+v", i, got, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: listed %+v, defined %+v", i, got, d)
		}
	}
}

// TestSmokeEmitsEveryMetric runs the smoke sizing of all four workloads,
// untraced and traced, and asserts that every named metric is emitted
// with its unit, that the output checks (golden hash included) pass with
// no failed operation, and that the result line has the contract's shape.
// No timing value is asserted.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			res := runWorkload(w, runOpts{seed: 1, seconds: defaultSeconds, smoke: true, trace: trace})
			if !res.Correct || res.Failed != 0 || res.Attempted != res.Worlds*res.Steps {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d steps=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, res.Steps, strings.Join(res.Notes, "\n"))
			}
			if !strings.Contains(strings.Join(res.Notes, "\n"), "ok   final field hash") {
				t.Errorf("%s trace=%v: the golden hash was not checked:\n%s", w.name, trace, strings.Join(res.Notes, "\n"))
			}
			var out bytes.Buffer
			res.print(&out, w)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", w.name, trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace=%v: result line has %d keys, want correct/attempted/failed/metrics", w.name, trace, len(raw))
			}
			var oc outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &oc); err != nil {
				t.Fatal(err)
			}
			defs := res.reported()
			if len(oc.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result line, want %d", w.name, trace, len(oc.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := oc.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s emitted as %+v (present %v), want unit %s", w.name, trace, d.Name, m, ok, d.Unit)
				}
				if !printedWith(lines, d.Name, d.Unit, d.Better) {
					t.Errorf("%s trace=%v: metric %s is not printed with unit %s and direction %s", w.name, trace, d.Name, d.Unit, d.Better)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join("out", "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// printedWith reports whether some line names the metric together with
// its unit and direction.
func printedWith(lines []string, name, unit, better string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) > 4 && f[0] == name && f[2] == unit && f[3] == better {
			return true
		}
	}
	return false
}

func TestStatistics(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("minimum = %v, want 1", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile([]float64{10, 20}, 0.25); got != 12.5 {
		t.Errorf("lower quartile of two = %v, want 12.5", got)
	}
	if got := relIQR(xs); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("relative IQR = %v, want 2/3", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := runSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("run spread of 1..10 = %v, want (8.25 - 2.75) / 5.5", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got := runSpread([]float64{4, 1, 2}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("run spread of 1, 2, 4 = %v, want 1.5", got)
	}
	if got := runSpread([]float64{3}); got != 0 {
		t.Errorf("run spread of one value = %v, want 0", got)
	}
}

// TestNormalizeEpochs: an epoch that ran while the host delivered twice
// the reference speed counts half; a host that halves its speed mid-run
// leaves the normalised rate unchanged.
func TestNormalizeEpochs(t *testing.T) {
	got := normalizeEpochs([]float64{30, 30, 15}, []float64{2, 2, 1, 1})
	want := []float64{15, 20, 15}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("epoch %d normalised to %v, want %v", i, got[i], want[i])
		}
	}
}

// TestHostIndex: the index is the geometric mean of the two kernels'
// speeds relative to the reference host.
func TestHostIndex(t *testing.T) {
	if got := hostIndex(refCopyGBs, refLBMMLUPS); got != 1 {
		t.Errorf("reference host has index %v", got)
	}
	if got := hostIndex(4*refCopyGBs, refLBMMLUPS); math.Abs(got-2) > 1e-12 {
		t.Errorf("4x copy, 1x lattice: index %v, want 2", got)
	}
	if got := hostIndex(3*refCopyGBs, 3*refLBMMLUPS); math.Abs(got-3) > 1e-12 {
		t.Errorf("a host 3x as fast at both has index %v, want 3", got)
	}
	k := newRefKernel(1, 4, 2)
	if h := k.slice(); !(h.copyGBs > 0) || !(h.lbmMLUPS > 0) || !(h.index > 0) {
		t.Errorf("reference slice measured %+v", h)
	}
}

// TestSelfTime: a span's self time is its duration minus what its direct
// children cover, overlapping children counted once and grandchildren not
// at all.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a by 10
		{Name: "a.1", Start: 15, End: 20, Parent: 1},
		{Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to the parent
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byName := selfByName(spans)
	if math.Abs(byName["root"]-40e-9) > 1e-15 {
		t.Errorf("self seconds of root = %v", byName["root"])
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *recorder
	r.end(r.begin("x", -1))
	rec := newRecorder("w")
	id := rec.begin("outer", -1)
	rec.end(rec.begin("inner", id))
	rec.end(id)
	if len(rec.spans) != 2 || rec.spans[1].Parent != id || rec.spans[0].End < rec.spans[1].End {
		t.Errorf("spans recorded as %+v", rec.spans)
	}
}

// TestSeedChangesFieldsNotWork: two seeds give different scenario
// documents whose driving velocities differ by at most 1e-6 relative.
func TestSeedChangesFieldsNotWork(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := w.scenarioJSON(1, w.shape(), 10, false)
		b := w.scenarioJSON(2, w.shape(), 10, false)
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 render the same scenario", w.name)
		}
		if !bytes.Equal(a, w.scenarioJSON(1, w.shape(), 10, false)) {
			t.Errorf("%s: the same seed renders two scenarios", w.name)
		}
	}
	if f := seedFraction(7); f < 0 || f >= 1 {
		t.Errorf("seed fraction %v outside [0, 1)", f)
	}
}
