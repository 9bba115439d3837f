package dragonfly_test

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// output-FIFO depth of the two-stage router model, the credit-delay
// gate's slack, and the global-channel latency. Each prints a small
// table of the metric the choice moves.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

func ablationTopo(b *testing.B) *topology.Dragonfly {
	b.Helper()
	p, a, h := 4, 8, 4
	if quick := benchScale().Small; quick {
		p, a, h = 2, 4, 2
	}
	d, err := topology.NewDragonfly(p, a, h, 0)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func ablationRun(b *testing.B, d *topology.Dragonfly, cfg sim.Config, rt sim.Routing, tr sim.Traffic, load float64) sim.Result {
	b.Helper()
	net, err := sim.New(d, cfg, rt, tr)
	if err != nil {
		b.Fatal(err)
	}
	s := benchScale()
	res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{
		Load: load, WarmupCycles: s.Warmup, MeasureCycles: s.Measure, DrainCycles: s.Drain, StallLimit: s.StallLimit,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationOutputFIFODepth varies the output-buffer depth of the
// two-stage router. Deep output FIFOs hide congestion from the
// credit-visible input buffers, weakening the backpressure the adaptive
// algorithms rely on; depth 4 (the default) keeps channels busy without
// hiding queueing.
func BenchmarkAblationOutputFIFODepth(b *testing.B) {
	d := ablationTopo(b)
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		fmt.Fprintf(&out, "UGAL-L_VCH on WC at 0.3: output-FIFO depth vs minimal-packet latency\n")
		for _, depth := range []int{1, 2, 4, 16, 64} {
			cfg := sim.Config{BufDepth: 16, OutDepth: depth, VCs: routing.VCs, LocalLatency: 1, GlobalLatency: 2, Seed: 1}
			res := ablationRun(b, d, cfg, routing.NewUGAL(d, routing.UGALLocalVCH), traffic.NewWorstCase(d), 0.3)
			fmt.Fprintf(&out, "  outDepth=%-3d avg=%7.1f min-pkts=%8.1f accepted=%.3f\n",
				depth, res.Latency.Mean(), res.MinLatency.Mean(), res.Accepted)
		}
	}
	b.Log("\n" + out.String())
}

// BenchmarkAblationCreditDelaySlack varies the hot-spot gate of the
// credit round-trip mechanism: slack 0 engages on every congestion
// wobble, large slack disables the mechanism entirely.
func BenchmarkAblationCreditDelaySlack(b *testing.B) {
	d := ablationTopo(b)
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		fmt.Fprintf(&out, "UGAL-L_CR on WC at 0.3: credit-delay slack vs minimal-packet latency\n")
		for _, slack := range []int{4, 8, 32, 128} {
			cfg := sim.Config{BufDepth: 16, VCs: routing.VCs, LocalLatency: 1, GlobalLatency: 2, Seed: 1,
				DelayCredits: true, DelaySlack: slack}
			res := ablationRun(b, d, cfg, routing.NewUGALCR(d), traffic.NewWorstCase(d), 0.3)
			fmt.Fprintf(&out, "  slack=%-4d avg=%7.1f min-pkts=%8.1f accepted=%.3f\n",
				slack, res.Latency.Mean(), res.MinLatency.Mean(), res.Accepted)
		}
	}
	b.Log("\n" + out.String())
}

// BenchmarkAblationGlobalLatency varies the global-channel latency (the
// optical cable length in cycles): zero-load latency shifts, the
// adaptive behaviour should not.
func BenchmarkAblationGlobalLatency(b *testing.B) {
	d := ablationTopo(b)
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		fmt.Fprintf(&out, "UGAL-L_VCH on UR at 0.5: global channel latency vs avg latency\n")
		for _, lat := range []int{1, 2, 4, 8, 16} {
			cfg := sim.Config{BufDepth: 16, VCs: routing.VCs, LocalLatency: 1, GlobalLatency: lat, Seed: 1}
			res := ablationRun(b, d, cfg, routing.NewUGAL(d, routing.UGALLocalVCH), traffic.NewUniformRandom(d.Nodes()), 0.5)
			fmt.Fprintf(&out, "  gLat=%-3d avg=%6.1f minimal-share=%.2f accepted=%.3f\n",
				lat, res.Latency.Mean(), res.MinimalFraction, res.Accepted)
		}
	}
	b.Log("\n" + out.String())
}

// BenchmarkAblationBufferDepthThroughput varies the input buffer depth
// under heavy uniform load: deeper buffers buy throughput near
// saturation (the flip side of Figure 14's latency result).
func BenchmarkAblationBufferDepthThroughput(b *testing.B) {
	d := ablationTopo(b)
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		fmt.Fprintf(&out, "MIN on UR at 0.95: input buffer depth vs accepted throughput\n")
		for _, depth := range []int{4, 8, 16, 64} {
			cfg := sim.Config{BufDepth: depth, VCs: routing.VCs, LocalLatency: 1, GlobalLatency: 2, Seed: 1}
			res := ablationRun(b, d, cfg, routing.NewMIN(d), traffic.NewUniformRandom(d.Nodes()), 0.95)
			fmt.Fprintf(&out, "  buf=%-3d accepted=%.3f avg=%7.1f sat=%v\n",
				depth, res.Accepted, res.Latency.Mean(), res.Saturated)
		}
	}
	b.Log("\n" + out.String())
}
