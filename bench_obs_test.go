package dragonfly_test

// BenchmarkObsOverhead measures what attaching the observability layer
// costs the simulation hot loop: one op is one Network.Step on the
// paper's 1K-node machine (72-node under DFLY_BENCH_SCALE=quick) at
// moderate uniform-random load, with nothing attached, with the
// windowed time-series collector split by link class (built as
// serve.JobSpec.Build builds it for dfly-sim -window and windowed
// service jobs), with the sampled packet tracer (the
// variant that arms the engine's per-hop instrumentation), and with
// both stacked through metrics.Multi. TestMain writes the four records
// into BENCH_sim.json's obs_overhead section, which PERFORMANCE.md's
// "Observability overhead" table quotes; rerun with
//
//	go test -bench=ObsOverhead -benchtime=20000x -run='^$' .

import (
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/metrics"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
)

func BenchmarkObsOverhead(b *testing.B) {
	variants := []struct {
		name  string
		build func(sys *core.System) metrics.Collector
	}{
		{"off", func(*core.System) metrics.Collector { return nil }},
		{"windows", func(sys *core.System) metrics.Collector {
			return benchWindows(sys)
		}},
		{"trace-64", func(*core.System) metrics.Collector {
			return obs.NewTracer(64, 1, 4096)
		}},
		{"windows+trace-64", func(sys *core.System) metrics.Collector {
			return metrics.Multi{benchWindows(sys), obs.NewTracer(64, 1, 4096)}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			sys, netName := benchSystem(b, simBenchScenario{})
			net, err := sys.NewNetworkFor(core.AlgUGALLVCH, core.Workload{Traffic: "ur"})
			if err != nil {
				b.Fatalf("NewNetwork: %v", err)
			}
			net.SetLoad(0.3)
			if c := v.build(sys); c != nil {
				net.AttachMetrics(c)
			}
			obsBenchRecords = append(obsBenchRecords, timeSteps(b, net, v.name, netName))
		})
	}
}

// benchWindows is the windowed collector of a 100-cycle-window run.
func benchWindows(sys *core.System) *obs.Windows {
	return obs.NewWindows(obs.WindowsConfig{
		Width:       100,
		Terminals:   sys.Topo.Nodes(),
		LinkClasses: sim.LinkClasses(sys.Topo),
	})
}
