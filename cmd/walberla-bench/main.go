// Command walberla-bench regenerates the evaluation figures of the paper:
// every figure of section 4 is reproduced as a projection of the
// calibrated machine/network models (the roofline/ECM kernel studies and
// the petascale scaling figures), next to a small in-process run of the
// same experiment that shows the shape of the curve (kernel MLUPS vs
// threads, weak/strong scaling over goroutine ranks, the sparse-strategy
// and load-balancer ablations). Output is tab-separated with one `###`
// header line per table, suitable for plotting.
//
// These are paper figures and model projections, not host records: the
// performance of this code on this host is measured by the benchmark of
// record in bench/ (bash bench/run.sh, BENCHMARK.json).
//
// Usage:
//
//	walberla-bench -fig all        # everything
//	walberla-bench -fig 6 -quick   # one figure, reduced sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

var quick = flag.Bool("quick", false, "reduce problem sizes for fast runs")

// figures is the -fig table, in the order `-fig all` prints it.
var figures = []struct {
	name string
	run  func()
}{
	{"1", figure1},
	{"2", figure2},
	{"3", figure3},
	{"4", figure4},
	{"5", figure5},
	{"6", figure6},
	{"7", figure7},
	{"8", figure8},
	{"sparse", sparseAblation},
	{"filesize", fileSizes},
	{"balance", balanceAblation},
	{"iaca", iacaReport},
}

func main() {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	figure := flag.String("fig", "all", "figure to regenerate: "+strings.Join(names, "|")+"|all")
	flag.Parse()

	found := false
	for _, f := range figures {
		if *figure == "all" || *figure == f.name {
			f.run()
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Printf("\n### %s\n", title)
}
