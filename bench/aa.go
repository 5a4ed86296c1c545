package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// runAA runs sets back-to-back sets of runs of the same code and applies
// the acceptance rule of the benchmark's driver to them: per workload and
// end-to-end metric, no later set's median may be worse than the first's
// by more than the metric's bound (as a share of the first, worsening
// counted in the metric's direction), and no set's spread over its runs
// (runSpread) may exceed the bound — except setup_s's, which the driver
// reports and does not gate. Each run of a set uses its own seed; the
// sets use the same seeds. The report is markdown; bench/AA.md is a
// committed copy. Returns the exit status: 1 on any miss.
func runAA(sets, runs int, o runOpts) int {
	type key struct{ workload, metric string }
	values := make([]map[key][]float64, sets)
	start := time.Now()
	for s := range values {
		values[s] = map[key][]float64{}
		for r := 0; r < runs; r++ {
			for i := range workloads {
				w := &workloads[i]
				ro := o
				ro.seed = o.seed + int64(r)
				oc, err := child(w, ro, io.Discard)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !oc.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d failed its output checks\n", w.name, ro.seed)
					return 1
				}
				for _, d := range endToEnd {
					k := key{w.name, d.Name}
					values[s][k] = append(values[s][k], oc.Metrics[d.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s done (%.0f s)\n", s+1, r+1, w.name, time.Since(start).Seconds())
			}
		}
	}
	fmt.Printf("# A/A: %d sets x %d runs per workload, same code\n\n", sets, runs)
	fmt.Printf("Recorded %s at revision %s on %q (%d CPUs), seeds %d..%d, -seconds %d.\n\n",
		time.Now().UTC().Format(time.RFC3339), revision(), cpuModel(), runtime.NumCPU(), o.seed, o.seed+int64(runs)-1, o.seconds)
	fmt.Println("Disagreement is the worst later set median against the first, as a share of it, in the")
	fmt.Println("direction that counts as worse; spread is each set's distance between the quartiles of its runs")
	fmt.Println("(Python's statistics.quantiles) over their median. A row misses when the disagreement, or a")
	fmt.Println("spread other than that of setup_s, exceeds the bound.")
	fmt.Println()
	fmt.Println("| workload | metric | set medians | disagreement | spreads | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|")
	status := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			first := median(values[0][k])
			var medians, spreads string
			var worst, widest float64
			for s := range values {
				m := median(values[s][k])
				if s > 0 {
					medians += " / "
					spreads += " / "
				}
				medians += fmt.Sprintf("%.5g", m)
				spread := runSpread(values[s][k])
				spreads += fmt.Sprintf("%.2f %%", 100*spread)
				if d.Name != "setup_s" {
					widest = max(widest, spread)
				}
				worse := (m - first) / first
				if d.Better == "higher" {
					worse = -worse
				}
				worst = max(worst, worse)
			}
			verdict := "ok"
			if worst > d.Bound || widest > d.Bound {
				verdict, status = "MISS", 1
			}
			fmt.Printf("| %s | %s | %s | %.2f %% | %s | %.0f %% | %s |\n",
				w.name, d.Name, medians, 100*worst, spreads, 100*d.Bound, verdict)
		}
	}
	return status
}
