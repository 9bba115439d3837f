// dfly-scale prints the scalability analytics of Figures 1 and 4: the
// router radix a one-global-hop flat network would need, the balanced
// dragonfly's reach per radix, and — with -k or -n — the balanced
// configuration for a specific router or machine size.
//
// With -sim it additionally times a flit-level simulation of the
// selected balanced machine on the sharded engine: -shards picks the
// shard count (0 = serial), -load/-cycles/-alg shape the run, and the
// output reports wall-clock cycles/sec so paper-scale machines (the
// 256K-node k=64 point of Figure 4) can be benchmarked directly.
//
//	dfly-scale -n 262144 -sim -shards 8 -cycles 200 -load 0.1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/experiments"
	"dragonfly/internal/topology"
)

func main() {
	k := flag.Int("k", 0, "show the balanced dragonfly for this router radix")
	n := flag.Int("n", 0, "show the smallest balanced dragonfly reaching this many nodes")
	simRun := flag.Bool("sim", false, "time a flit-level simulation of the selected machine (needs -k or -n)")
	shards := flag.Int("shards", 0, "engine shards for -sim, clamped to the group count (0 = serial)")
	load := flag.Float64("load", 0.1, "offered load for -sim in flits/cycle/terminal")
	cycles := flag.Int("cycles", 200, "simulated cycles to time with -sim")
	algName := flag.String("alg", "MIN", "routing algorithm for -sim")
	flag.Parse()

	if !*simRun {
		experiments.Fig01().Render(os.Stdout)
		experiments.Fig04().Render(os.Stdout)
		experiments.Fig06().Render(os.Stdout)
	}

	if *n > 0 {
		*k = topology.BalancedRadixForNodes(*n)
		fmt.Printf("smallest balanced radix for %d nodes: %d\n", *n, *k)
	}
	if *k <= 0 {
		if *simRun {
			fatal(fmt.Errorf("-sim needs a machine: give -k or -n"))
		}
		return
	}
	p, a, h := topology.BalancedParams(*k)
	if h == 0 {
		fmt.Printf("radix %d is too small for a dragonfly\n", *k)
		return
	}
	d, err := topology.NewDragonfly(p, a, h, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("balanced dragonfly for radix %d: %v\n", *k, d)
	fmt.Printf("  groups: %d, routers: %d, diameter: 3 (local+global+local)\n", d.G, d.Routers())
	if !*simRun {
		return
	}
	if err := benchSim(p, a, h, *algName, *shards, *load, *cycles); err != nil {
		fatal(err)
	}
}

// benchSim builds the machine, steps it for the requested cycles under
// uniform random traffic and reports wall-clock throughput. The whole
// run is timed from a cold start — at a few hundred cycles the fill
// transient is part of what a capacity-planning user would pay anyway,
// and the in-flight count printed at the end shows how full the
// network got.
func benchSim(p, a, h int, algName string, shards int, load float64, cycles int) error {
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(core.SystemConfig{P: p, A: a, H: h, Shards: shards})
	if err != nil {
		return err
	}
	net, err := sys.NewNetworkFor(alg, core.Workload{Traffic: "ur"})
	if err != nil {
		return err
	}
	net.SetLoad(load)
	fmt.Printf("  simulating %d cycles at load %.3f, %s routing, %d engine shard(s)\n",
		cycles, load, alg, net.Shards())
	start := time.Now()
	for i := 0; i < cycles; i++ {
		if err := net.Step(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	cps := float64(cycles) / elapsed.Seconds()
	fmt.Printf("  %d cycles in %v: %.2f cycles/sec (%.1f ms/cycle), %d flits in flight\n",
		cycles, elapsed.Round(time.Millisecond), cps,
		1000/cps, net.InFlight())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfly-scale:", err)
	os.Exit(1)
}
