// Indirect adaptive routing: the dragonfly's hard problem (Section 4.3).
// The channels that need balancing are the group's global channels, but
// the router making the UGAL decision usually is not the one that owns
// them — it only sees them indirectly, through backpressure. This example
// shows the two resulting pathologies and the paper's two fixes:
//
//  1. UGAL-L starves the non-minimal channels that share a router with
//     the congested minimal channel (throughput loss), fixed by
//     VC-discriminated queues (UGAL-L_VCH);
//  2. minimally-routed packets must fill the buffer chain before the
//     congestion is sensed (latency spike), reduced by the credit
//     round-trip latency mechanism (UGAL-L_CR).
package main

import (
	"fmt"
	"log"

	"dragonfly/internal/core"
	"dragonfly/internal/sim"
)

func main() {
	rc := sim.RunConfig{WarmupCycles: 3000, MeasureCycles: 2000, DrainCycles: 20000}

	fmt.Println("worst-case traffic at load 0.30 on the 1K-node network")
	fmt.Printf("%-12s %-10s %-14s %-14s %s\n", "algorithm", "accepted", "avg latency", "minimal pkts", "minimal share")
	for _, alg := range []core.Algorithm{core.AlgUGALL, core.AlgUGALLVC, core.AlgUGALLVCH, core.AlgUGALLCR, core.AlgUGALG} {
		sys, err := core.NewSystem(core.SystemConfig{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.RunW(alg, core.Workload{Traffic: "wc"}, 0.3, rc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %-10.3f %-14.1f %-14.1f %.1f%%\n",
			alg, res.Accepted, res.Latency.Mean(), res.MinLatency.Mean(), 100*res.MinimalFraction)
	}

	fmt.Println("\nreading the table:")
	fmt.Println("- UGAL-L's minimal packets pay hundreds of cycles: they are 'sacrificed'")
	fmt.Println("  to fill the buffers between source and the congested global channel")
	fmt.Println("  before the congestion becomes visible in local queues.")
	fmt.Println("- UGAL-L_VC/VCH separate minimal and non-minimal occupancy by virtual")
	fmt.Println("  channel, restoring throughput and most of the latency.")
	fmt.Println("- UGAL-L_CR senses congestion through credit round-trip latency and")
	fmt.Println("  delays returning credits, cutting the minimal-packet latency further")
	fmt.Println("  (and independently of buffer depth).")
	fmt.Println("- UGAL-G is the unimplementable oracle both fixes chase.")
}
