// dfly-topo builds a dragonfly (or its Figure 6(b) variant) and prints
// its structure: parameters, channel inventory, diameter, and optionally
// a Graphviz DOT rendering or the full wiring table.
//
//	dfly-topo -p 2 -a 4 -h 2            # the paper's 72-node example
//	dfly-topo -p 2 -dims 2,2,2 -h 2     # the Figure 6(b) variant
//	dfly-topo -p 2 -a 4 -h 2 -dot       # DOT on stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dragonfly/internal/topology"
)

func main() {
	var (
		p      = flag.Int("p", 2, "terminals per router")
		a      = flag.Int("a", 4, "routers per group (fully connected group)")
		h      = flag.Int("h", 2, "global channels per router")
		groups = flag.Int("g", 0, "groups (0 = maximal a*h+1)")
		dims   = flag.String("dims", "", "comma-separated intra-group flattened-butterfly dimensions (Figure 6(b) variant; overrides -a)")
		dot    = flag.Bool("dot", false, "emit Graphviz DOT instead of the summary")
		wiring = flag.Bool("wiring", false, "dump the global-channel wiring table")
	)
	flag.Parse()

	var (
		g     *topology.Graph
		name  string
		descr string
	)
	if *dims != "" {
		var dd []int
		for _, s := range strings.Split(*dims, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad -dims: %w", err))
			}
			dd = append(dd, v)
		}
		d, err := topology.NewDragonflyFB(*p, dd, *h, *groups)
		if err != nil {
			fatal(err)
		}
		g, name, descr = d.Graph, "dragonflyFB", d.String()
		if *wiring {
			dumpWiring(d)
		}
	} else {
		d, err := topology.NewDragonfly(*p, *a, *h, *groups)
		if err != nil {
			fatal(err)
		}
		g, name, descr = d.Graph, "dragonfly", d.String()
		if *wiring {
			dumpWiring(d)
		}
	}

	if *dot {
		if err := g.WriteDOT(os.Stdout, name); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(descr)
	fmt.Println(g.Summary())
	diam, err := g.Diameter()
	if err != nil {
		fatal(err)
	}
	avg, err := g.AverageHops()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("diameter: %d hops, average: %.2f hops (router-to-router)\n", diam, avg)
}

// dumpWiring prints, per group, the group each global port leads to,
// in slot order: by in-group router index, then port.
func dumpWiring(m topology.Machine) {
	a := m.Paths().RoutersPerGroup()
	fmt.Println("global wiring (group: slot->group ...):")
	for r := 0; r < m.Routers(); r++ {
		if r%a == 0 {
			fmt.Printf("  g%-3d:", r/a)
		}
		for p := 0; p < m.Radix(r); p++ {
			if pt := m.Port(r, p); pt.Class == topology.ClassGlobal {
				fmt.Printf(" %d", pt.PeerRouter/a)
			}
		}
		if r%a == a-1 {
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfly-topo:", err)
	os.Exit(1)
}
