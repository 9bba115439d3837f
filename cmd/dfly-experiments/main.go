// dfly-experiments regenerates the paper's tables and figures. By
// default it runs everything at paper scale (the 1K-node evaluation
// network, full warm-up); -quick switches to a reduced scale for smoke
// runs, and positional arguments select individual exhibits:
//
//	dfly-experiments                 # everything, paper scale
//	dfly-experiments -quick fig8     # one experiment, reduced scale
//	dfly-experiments -jobs 8 fig16   # fan the sweeps over 8 workers
//	dfly-experiments -list           # show experiment names
//	dfly-experiments -json fig8      # machine-readable report on stdout
//
// Independent simulations (load points, series, whole exhibits) run
// concurrently on -jobs workers (default: GOMAXPROCS). The rendered
// report is byte-identical for every -jobs value.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dragonfly/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced scale: small network, short phases")
	list := flag.Bool("list", false, "list experiment names and exit")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit one versioned JSON report instead of rendered text")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}

	scale := experiments.Paper()
	if *quick {
		scale = experiments.Quick()
	}
	r := experiments.Runner{Scale: scale, Jobs: *jobs}
	if !*quiet {
		r.Log = os.Stderr
	}

	run := r.RunText
	if *jsonOut {
		run = r.RunJSON
	}
	if err := run(os.Stdout, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "dfly-experiments:", err)
		os.Exit(1)
	}
}
