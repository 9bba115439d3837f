package dragonfly_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section. Each benchmark renders its exhibit to the
// test log (visible with -v or go test -bench), so
//
//	go test -bench=. -benchmem -benchtime=1x -timeout 60m
//
// reproduces the full evaluation (the simulation figures need more than
// go test's default 10-minute timeout on a small machine). Simulation-backed figures run the
// paper's 1K-node network (p=h=4, a=8); set DFLY_BENCH_SCALE=quick to
// smoke-test the harness on the 72-node example instead.

import (
	"os"
	"strings"
	"testing"

	"dragonfly/internal/experiments"
)

// benchScale picks the simulation fidelity for the harness: the paper's
// 1K-node network with coarse load steps by default.
func benchScale() experiments.Scale {
	if os.Getenv("DFLY_BENCH_SCALE") == "quick" {
		return experiments.Quick()
	}
	s := experiments.Paper()
	s.Warmup = 2000
	s.Measure = 1000
	s.Drain = 8000
	s.Coarse = true
	return s
}

// renderExhibits runs one experiment per benchmark iteration and logs
// the rendered exhibit once.
func renderExhibits(b *testing.B, name string) {
	b.Helper()
	r := experiments.Runner{Scale: benchScale()}
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := r.RunText(&out, []string{name}); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
	b.Log("\n" + out.String())
}

// BenchmarkFig01RadixScaling regenerates Figure 1: the router radix a
// one-global-hop flat network needs as N grows.
func BenchmarkFig01RadixScaling(b *testing.B) { renderExhibits(b, "fig1") }

// BenchmarkTable1CableTech regenerates Table 1: the cable technologies.
func BenchmarkTable1CableTech(b *testing.B) { renderExhibits(b, "table1") }

// BenchmarkFig02CableCost regenerates Figure 2: electrical vs optical
// cable cost and their crossover.
func BenchmarkFig02CableCost(b *testing.B) { renderExhibits(b, "fig2") }

// BenchmarkFig04Scalability regenerates Figure 4: balanced dragonfly
// reach versus router radix.
func BenchmarkFig04Scalability(b *testing.B) { renderExhibits(b, "fig4") }

// BenchmarkFig06GroupVariants regenerates Figure 6: group organisations
// that raise the effective radix.
func BenchmarkFig06GroupVariants(b *testing.B) { renderExhibits(b, "fig6") }

// BenchmarkFig08RoutingComparison regenerates Figure 8(a,b): the
// routing-algorithm comparison under benign and adversarial traffic.
func BenchmarkFig08RoutingComparison(b *testing.B) { renderExhibits(b, "fig8") }

// BenchmarkFig09ChannelUtil regenerates Figure 9: global channel
// utilisation under UGAL-L vs UGAL-G at load 0.2, worst-case traffic.
func BenchmarkFig09ChannelUtil(b *testing.B) { renderExhibits(b, "fig9") }

// BenchmarkFig10UGALVC regenerates Figure 10: the UGAL-L_VC and
// UGAL-L_VCH variants.
func BenchmarkFig10UGALVC(b *testing.B) { renderExhibits(b, "fig10") }

// BenchmarkFig11MinNonmin regenerates Figure 11: latency split between
// minimally and non-minimally routed packets, 16- and 256-flit buffers.
func BenchmarkFig11MinNonmin(b *testing.B) { renderExhibits(b, "fig11") }

// BenchmarkFig12Histogram regenerates Figure 12: the bimodal latency
// distribution at load 0.25.
func BenchmarkFig12Histogram(b *testing.B) { renderExhibits(b, "fig12") }

// BenchmarkFig14BufferDepth regenerates Figure 14: UGAL-L latency as the
// input buffer depth varies.
func BenchmarkFig14BufferDepth(b *testing.B) { renderExhibits(b, "fig14") }

// BenchmarkFig16CreditRT regenerates Figure 16: the credit round-trip
// latency mechanism against UGAL-L_VCH and UGAL-G.
func BenchmarkFig16CreditRT(b *testing.B) { renderExhibits(b, "fig16") }

// BenchmarkFig18Comparison64K regenerates Figure 18: the 64K-node
// dragonfly vs flattened butterfly comparison.
func BenchmarkFig18Comparison64K(b *testing.B) { renderExhibits(b, "fig18") }

// BenchmarkFig19CostComparison regenerates Figure 19: cost per node
// versus machine size for the four topologies.
func BenchmarkFig19CostComparison(b *testing.B) { renderExhibits(b, "fig19") }

// BenchmarkTable2TopologyComparison regenerates Table 2: hop counts and
// cable lengths of the dragonfly versus the flattened butterfly.
func BenchmarkTable2TopologyComparison(b *testing.B) { renderExhibits(b, "table2") }
