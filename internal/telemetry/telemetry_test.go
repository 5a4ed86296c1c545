package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestLaneRecordsSpans(t *testing.T) {
	tr := NewTracer(3, 2, 16)
	l := tr.Driver()
	s0 := l.Start()
	time.Sleep(time.Millisecond)
	l.Span(PhaseStep, 7, 0, s0)
	l.Instant(PhaseFaultDelay, 7, 1)

	if got := l.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	var spans []Span
	l.Each(func(s Span) { spans = append(spans, s) })
	if spans[0].Phase != PhaseStep || spans[0].Step != 7 {
		t.Fatalf("first span = %+v", spans[0])
	}
	if spans[0].End <= spans[0].Start {
		t.Fatalf("span has non-positive duration: %+v", spans[0])
	}
	if spans[1].Phase != PhaseFaultDelay || spans[1].Start != spans[1].End {
		t.Fatalf("instant span = %+v", spans[1])
	}
	if l.BusyNs() <= 0 {
		t.Fatalf("BusyNs = %d, want > 0", l.BusyNs())
	}
}

func TestLaneRingWrap(t *testing.T) {
	tr := NewTracer(0, 0, 4)
	l := tr.Driver()
	for i := 0; i < 10; i++ {
		l.put(Span{Phase: PhaseStep, Step: int32(i)})
	}
	if got := l.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := l.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	var steps []int32
	l.Each(func(s Span) { steps = append(steps, s.Step) })
	want := []int32{6, 7, 8, 9}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("retained steps = %v, want %v", steps, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var l *Lane
	var tr *Tracer
	var trace *Trace
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry

	l.Span(PhaseStep, 0, 0, l.Start())
	l.Instant(PhaseFaultDelay, 0, 0)
	l.Each(func(Span) { t.Fatal("nil lane has spans") })
	if l.Len() != 0 || l.BusyNs() != 0 || l.Dropped() != 0 || l.Name() != "" {
		t.Fatal("nil lane reports state")
	}
	if tr.Lane(0) != nil || tr.Driver() != nil || tr.Worker(0) != nil {
		t.Fatal("nil tracer hands out lanes")
	}
	if tr.Rank() != -1 || tr.LoadImbalance() != 0 || tr.Lanes() != nil {
		t.Fatal("nil tracer reports state")
	}
	if trace.NewTracer(0, 1, 0) != nil || trace.Tracers() != nil {
		t.Fatal("nil trace hands out tracers")
	}
	c.Add(1)
	c.Inc()
	g.Set(1)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.MeanNs() != 0 {
		t.Fatal("nil metrics report state")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry hands out metrics")
	}
	snap := r.Snapshot(0)
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

func TestTracerLanesAndImbalance(t *testing.T) {
	tr := NewTracer(0, 4, 8)
	if tr.Driver().Name() != "driver" {
		t.Fatalf("driver name = %q", tr.Driver().Name())
	}
	if tr.Worker(2).Name() != "worker 2" {
		t.Fatalf("worker name = %q", tr.Worker(2).Name())
	}
	if tr.Worker(4) != nil || tr.Lane(-1) != nil {
		t.Fatal("out-of-range lane not nil")
	}
	// Synthesize busy time: workers 0..2 busy 100ns, worker 3 busy 200ns.
	for k := 0; k < 4; k++ {
		tr.Worker(k).busy = 100
	}
	tr.Worker(3).busy = 200
	// mean = 125, max = 200 -> 1.6
	if got := tr.LoadImbalance(); got < 1.59 || got > 1.61 {
		t.Fatalf("LoadImbalance = %v, want 1.6", got)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("comm.sends")
	c.Add(41)
	c.Inc()
	if c.Value() != 42 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("comm.sends") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("pool.depth")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("comm.recv_wait")
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond) // 1000 ns, bucket floor 512, ceil 1024
	}
	if h.Count() != 100 || h.SumNs() != 100_000 {
		t.Fatalf("hist count=%d sum=%d", h.Count(), h.SumNs())
	}
	if h.MeanNs() != 1000 {
		t.Fatalf("mean = %v", h.MeanNs())
	}
	p50 := h.quantileNs(0.5)
	if p50 < 512 || p50 > 1024 {
		t.Fatalf("p50 = %v, want within [512,1024]", p50)
	}
	// Negative durations clamp to zero instead of corrupting buckets.
	h2 := r.Histogram("neg")
	h2.Observe(-time.Second)
	if h2.SumNs() != 0 || h2.Count() != 1 {
		t.Fatalf("negative observe: sum=%d count=%d", h2.SumNs(), h2.Count())
	}
}

func TestSnapshotAndMerge(t *testing.T) {
	r0 := NewRegistry()
	r0.Counter("comm.sends").Add(10)
	r0.Gauge("imbalance").Set(1.2)
	r0.Histogram("wait").Observe(time.Millisecond)
	r1 := NewRegistry()
	r1.Counter("comm.sends").Add(5)
	r1.Gauge("imbalance").Set(1.7)
	r1.Histogram("wait").Observe(3 * time.Millisecond)

	s0 := r0.Snapshot(0)
	s1 := r1.Snapshot(1)
	if s0.Counter("comm.sends") != 10 || s0.Gauge("imbalance") != 1.2 {
		t.Fatalf("snapshot 0 = %+v", s0)
	}
	if s0.Counter("missing") != 0 || s0.Gauge("missing") != 0 {
		t.Fatal("missing metrics not zero")
	}

	m := Merge([]Snapshot{s0, s1})
	if m.Rank != -1 {
		t.Fatalf("merged rank = %d", m.Rank)
	}
	if m.Counter("comm.sends") != 15 {
		t.Fatalf("merged counter = %d", m.Counter("comm.sends"))
	}
	if m.Gauge("imbalance") != 1.7 {
		t.Fatalf("merged gauge = %v (want max)", m.Gauge("imbalance"))
	}
	if len(m.Histograms) != 1 {
		t.Fatalf("merged histograms = %d", len(m.Histograms))
	}
	h := m.Histograms[0]
	if h.Count != 2 || h.SumNs != int64(4*time.Millisecond) {
		t.Fatalf("merged hist = %+v", h)
	}
	if h.MeanNs != float64(2*time.Millisecond) {
		t.Fatalf("merged mean = %v", h.MeanNs)
	}
	if h.P99Ns <= h.P50Ns {
		t.Fatalf("merged quantiles not ordered: p50=%v p99=%v", h.P50Ns, h.P99Ns)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("snapshot JSON invalid")
	}
	buf.Reset()
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 1 counter + 1 gauge + 1 histogram
	if len(lines) != 4 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "kind,name,value") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestChromeExport(t *testing.T) {
	trace := NewTrace()
	for rank := 0; rank < 2; rank++ {
		tr := trace.NewTracer(rank, 2, 32)
		d := tr.Driver()
		s := d.Start()
		d.Span(PhaseStep, 0, 0, s)
		w := tr.Worker(0)
		s = w.Start()
		w.Span(PhaseCollideStream, 0, 5, s)
		d.Instant(PhaseRankFailed, 0, 1)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome trace JSON invalid:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var meta, complete, instant int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
		case "i":
			instant++
			if ev["s"] != "t" {
				t.Fatalf("instant event missing thread scope: %v", ev)
			}
		default:
			t.Fatalf("unexpected event phase %v", ev["ph"])
		}
	}
	// Per rank: 1 process_name + 3 lanes x (thread_name + sort) = 7.
	if meta != 14 {
		t.Fatalf("metadata events = %d, want 14", meta)
	}
	if complete != 4 || instant != 2 {
		t.Fatalf("complete=%d instant=%d, want 4/2", complete, instant)
	}
	// Single-rank export is also a valid document.
	buf.Reset()
	if err := trace.Tracers()[0].WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("single-tracer chrome JSON invalid")
	}
}

func TestMetricsServer(t *testing.T) {
	srv := NewMetricsServer()
	for rank := 0; rank < 2; rank++ {
		r := NewRegistry()
		r.Counter("comm.sends").Add(int64(10 * (rank + 1)))
		srv.Register(rank, r)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var merged Snapshot
	if err := json.Unmarshal(get("/metrics"), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Counter("comm.sends") != 30 {
		t.Fatalf("merged sends = %d, want 30", merged.Counter("comm.sends"))
	}
	var ranks []Snapshot
	if err := json.Unmarshal(get("/metrics/ranks"), &ranks); err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 2 || ranks[1].Counter("comm.sends") != 20 {
		t.Fatalf("per-rank snapshots = %+v", ranks)
	}
	resp, err := http.Get("http://" + addr + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: %s", resp.Status)
	}
}

func TestRooflineReport(t *testing.T) {
	in := RooflineInput{
		FluidUpdates:  50e6 * 2.0, // 100 MLUP over 2s
		WallSeconds:   2.0,
		KernelSeconds: 1.6,
		PhaseSecondsByName: map[string]float64{
			"interior-sweep": 1.4,
			"exchange-wait":  0.3,
			"exchange-post":  0.2,
		},
		Cores:   4,
		SMTWays: 1,
	}
	r := BuildRooflineReport(in)
	if r.MeasuredMLUPS < 49.9 || r.MeasuredMLUPS > 50.1 {
		t.Fatalf("measured = %v, want 50", r.MeasuredMLUPS)
	}
	if r.KernelMLUPS < 62.4 || r.KernelMLUPS > 62.6 {
		t.Fatalf("kernel = %v, want 62.5", r.KernelMLUPS)
	}
	if r.PredictedMLUPS <= 0 || r.RooflineMLUPS <= 0 {
		t.Fatalf("model values missing: %+v", r)
	}
	if r.ModelEfficiency <= 0 {
		t.Fatalf("efficiency = %v", r.ModelEfficiency)
	}
	// Phases sorted by descending time.
	if len(r.Phases) != 3 || r.Phases[0].Name != "interior-sweep" {
		t.Fatalf("phases = %+v", r.Phases)
	}
	if r.Phases[0].Share < 0.69 || r.Phases[0].Share > 0.71 {
		t.Fatalf("share = %v", r.Phases[0].Share)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "roofline comparison") {
		t.Fatalf("text report:\n%s", buf.String())
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	tr := NewTracer(0, 1, 64)
	l := tr.Driver()
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(200, func() {
		s := l.Start()
		l.Span(PhaseStep, 1, 2, s)
		l.Instant(PhaseFaultDelay, 1, 2)
		c.Add(3)
		g.Set(1.5)
		h.Observe(time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates: %v allocs/op", allocs)
	}
	// Disabled (nil) fast path must not allocate either.
	var nl *Lane
	var nc *Counter
	var nh *Histogram
	allocs = testing.AllocsPerRun(200, func() {
		s := nl.Start()
		nl.Span(PhaseStep, 1, 2, s)
		nc.Add(3)
		nh.Observe(time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("nil fast path allocates: %v allocs/op", allocs)
	}
}

func TestPhaseNames(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		if phaseTable[p].name == "" {
			t.Fatalf("phase %d has no name", p)
		}
		if p.String() == "?" {
			t.Fatalf("phase %d String() = ?", p)
		}
	}
	if Phase(200).String() != "?" {
		t.Fatal("out-of-range phase name")
	}
	for i := 0; i < 25; i++ {
		want := fmt.Sprintf("%d", i)
		if got := itoa(i); got != want {
			t.Fatalf("itoa(%d) = %q", i, got)
		}
	}
}
