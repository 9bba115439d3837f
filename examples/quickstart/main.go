// Quickstart: build the paper's example dragonfly (Figure 5: p=h=2, a=4,
// 72 terminals, radix-7 routers acting as a virtual radix-16 router),
// inspect its structure, and run a short simulation with adaptive
// routing under uniform random traffic.
package main

import (
	"fmt"
	"log"

	"dragonfly/internal/core"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

func main() {
	// A System bundles a dragonfly topology with simulation defaults.
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		log.Fatal(err)
	}
	d := sys.Topo.(*topology.Dragonfly) // P/A/H config: canonical dragonfly
	fmt.Println("topology:", d)
	fmt.Printf("  groups: %d routers of radix %d each; virtual router radix k' = %d\n",
		d.A, d.RouterRadix(), d.EffectiveRadix())
	term, local, global := d.CountChannels()
	fmt.Printf("  channels: %d terminal, %d local, %d global\n", term, local, global)
	diam, err := d.Diameter()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  diameter: %d hops (local + global + local)\n\n", diam)

	// Run adaptive routing (the hybrid VC-discriminating UGAL of
	// Section 4.3.1) under uniform random traffic at half load.
	rc := sim.RunConfig{WarmupCycles: 1000, MeasureCycles: 1000, DrainCycles: 20000}
	res, err := sys.RunW(core.AlgUGALLVCH, core.Workload{Traffic: "ur"}, 0.5, rc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("UGAL-L_VCH @ load 0.5 (uniform random):\n")
	fmt.Printf("  accepted:    %.3f flits/cycle/terminal\n", res.Accepted)
	fmt.Printf("  avg latency: %.1f cycles over %d packets\n", res.Latency.Mean(), res.Latency.Count())
	fmt.Printf("  minimal:     %.1f%% of packets\n", 100*res.MinimalFraction)
}
