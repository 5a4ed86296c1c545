// Command bench is the benchmark of record of this repository: four
// workloads, three end-to-end metrics per workload, and a separate traced
// run with per-layer probes. See README.md in this directory.
//
//	go run . [-seed N] [-seconds S]            all four workloads, untraced
//	go run . -trace 1                          all four workloads, traced
//	go run . -workload NAME -seed N -seconds S -trace 0|1   one workload (the driver's form)
//	go run . -aa N [-runs R]                   N back-to-back sets, disagreement against the bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		name        = flag.String("workload", "", "run this one workload in this process (default: all four, each in a child process)")
		seed        = flag.Int64("seed", 1, "workload seed: feeds the scenario's seed and a <= 1e-6 perturbation of its driving velocity")
		seconds     = flag.Int("seconds", defaultSeconds, "sizes the timed region: this many epochs on each of its worlds, not a deadline")
		trace       = flag.Int("trace", 0, "1 runs the shorter traced run and reports the per-layer metrics instead")
		smoke       = flag.Bool("smoke", false, "tiny sizing for the tests: every code path, no meaningful timing")
		aa          = flag.Int("aa", 0, "run this many back-to-back sets and compare their medians against the bounds")
		runs        = flag.Int("runs", 10, "runs per workload and set with -aa, each with its own seed")
		writeGolden = flag.Bool("write-golden", false, "record the final field hashes of this sizing in golden.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, writeGolden: *writeGolden}
	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, *runs, o))
	case *name == "":
		os.Exit(runAll(o))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := prepareOut(); err != nil {
		fatal(err)
	}
	res := runWorkload(w, o)
	res.print(os.Stdout, w)
	if !res.Correct {
		os.Exit(1)
	}
}

// prepareOut keeps everything the program's layers write — unix sockets,
// checkpoint sets, serve spill — under out/ in this directory: they all
// go through os.TempDir, and a relative TMPDIR keeps socket paths short.
func prepareOut() error {
	if err := os.MkdirAll("out/tmp", 0o755); err != nil {
		return err
	}
	return os.Setenv("TMPDIR", "out/tmp")
}

// defaultSeconds is BENCHMARK.json's run_seconds; golden.json is recorded
// at this sizing.
const defaultSeconds = 20

// outcome is the last line of a run's standard output.
type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported is the metric set of the run's kind.
func (r *result) reported() []metricDef {
	if r.Opts.trace {
		return perLayer
	}
	return endToEnd
}

// print writes the provenance block, the checks, every metric by name
// with unit, direction, in-run spread and sample count, and the result
// line.
func (r *result) print(out io.Writer, w *workload) {
	kind := "untraced"
	if r.Opts.trace {
		kind = "traced"
	}
	fmt.Fprintf(out, "== %s (%s): %s\n", r.Workload, kind, w.why)
	fmt.Fprintf(out, "provenance: time=%s rev=%s cpu=%q num_cpu=%d gomaxprocs=%d go=%s\n",
		time.Now().UTC().Format(time.RFC3339), revision(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "            shape=%dx%d/%s seed=%d seconds=%d worlds=%d, each %d steps = %d warm-up + %d epochs x %d; builds=%d\n",
		w.ranks, w.workers, w.network, r.Opts.seed, r.Opts.seconds, r.Worlds, r.Steps, w.warmSteps, r.Epochs, w.stepsPerEpoch, r.Builds)
	fmt.Fprintf(out, "            host: copy %.2f GB/s (IQR %.1f %%), frozen lattice kernel %.2f MLUP/s (IQR %.1f %%), %d slices; reference host %g GB/s, %g MLUP/s\n",
		median(r.HostCopy), 100*relIQR(r.HostCopy), median(r.HostLBM), 100*relIQR(r.HostLBM), len(r.HostCopy), refCopyGBs, refLBMMLUPS)
	for _, n := range r.Notes {
		fmt.Fprintln(out, "  "+n)
	}
	oc := outcome{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricJSON{}}
	for _, d := range r.reported() {
		s, ok := r.Metrics[d.Name]
		if !ok {
			fatal(fmt.Errorf("metric %s was not measured", d.Name))
		}
		fmt.Fprintf(out, "  %-30s %14.6g %-15s %-6s is better  in-run IQR %5.1f %%  n=%d\n",
			d.Name, s.Value, d.Unit, d.Better, 100*s.IQR, s.N)
		oc.Metrics[d.Name] = metricJSON{Value: s.Value, Unit: d.Unit}
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	line, err := json.Marshal(oc)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

// revision is the git revision the binary was built from, as the go tool
// stamped it.
func revision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// child runs one workload in a fresh process — its own memory high-water
// mark, no heap shared with the workload before it — passing its output
// through and returning its result line.
func child(w *workload, o runOpts, echo io.Writer) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), fmt.Sprintf("-smoke=%v", o.smoke), fmt.Sprintf("-write-golden=%v", o.writeGolden))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return outcome{}, err
	}
	if err := cmd.Start(); err != nil {
		return outcome{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(echo, last)
	}
	runErr := cmd.Wait()
	var oc outcome
	if err := json.Unmarshal([]byte(last), &oc); err != nil {
		if runErr != nil {
			return outcome{}, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return outcome{}, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	return oc, nil
}

// runAll runs the four workloads, each in its own child process, and
// closes with one table of every reported metric.
func runAll(o runOpts) int {
	status := 0
	outcomes := make([]outcome, len(workloads))
	for i := range workloads {
		oc, err := child(&workloads[i], o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !oc.Correct {
			status = 1
		}
		outcomes[i] = oc
		fmt.Println()
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Printf("%-30s %-15s %-6s", "metric", "unit", "better")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-30s %-15s %-6s", d.Name, d.Unit, d.Better)
		for _, oc := range outcomes {
			fmt.Printf(" %14.6g", oc.Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-53s", "operations failed/attempted")
	for _, oc := range outcomes {
		fmt.Printf(" %14s", fmt.Sprintf("%d/%d", oc.Failed, oc.Attempted))
	}
	fmt.Println()
	return status
}
