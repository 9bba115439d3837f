package dragonfly_test

// BenchmarkSimCycle is the simulator hot-loop microbenchmark suite: one
// op is one network cycle (Network.Step) on the paper's 1K-node
// evaluation machine, measured at low load and at saturation, pristine
// and with 10% of the global channels failed. It reports cycles/sec and
// allocs per cycle (the timed region starts on a cold network, so
// warm-up allocations — packet storage, queue growth — are charged to
// the engine the way a real sweep pays them).
//
// After the run, TestMain writes the records to BENCH_sim.json (next to
// this file), preserving the checked-in "baseline" section, which holds
// the pre-arena pointer-heap engine's numbers for the same scenarios.
// See PERFORMANCE.md for how to run and read it.
//
//	go test -bench=Sim -benchtime=100000x -run='^$' .
//
// Set DFLY_BENCH_SCALE=quick to smoke-test on the 72-node example, and
// DFLY_BENCH_JSON=path (or "skip") to redirect or suppress the JSON.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// simBenchRecord is one scenario's measurement in BENCH_sim.json.
type simBenchRecord struct {
	Name          string  `json:"name"`
	Network       string  `json:"network"`
	Cycles        int     `json:"cycles"`
	NsPerCycle    float64 `json:"ns_per_cycle"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`
	AllocsPerCyc  float64 `json:"allocs_per_cycle"`
	BytesPerCyc   float64 `json:"bytes_per_cycle"`
	InFlightAtEnd int     `json:"in_flight_at_end"`
	// Host says where and from which commit the record was measured
	// (absent on records carried forward from before it was recorded).
	Host *benchHost `json:"host,omitempty"`
}

// benchHost is the provenance block of a BENCH_sim.json record.
type benchHost struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is `git describe --always --dirty` of the working tree
	// ("-dirty" marks uncommitted changes), "unknown" outside git.
	Commit string `json:"commit"`
}

// thisHost fills the provenance block of the running benchmark.
func thisHost() *benchHost {
	h := &benchHost{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// simBenchFile is the BENCH_sim.json schema: the current engine's
// numbers plus the frozen pre-refactor baseline for comparison.
type simBenchFile struct {
	Engine    string           `json:"engine"`
	Note      string           `json:"note,omitempty"`
	Scenarios []simBenchRecord `json:"scenarios"`
	// ObsOverhead holds BenchmarkObsOverhead's records, one per set of
	// attached collectors (PERFORMANCE.md "Observability overhead").
	ObsOverhead []simBenchRecord `json:"obs_overhead,omitempty"`
	Baseline    *simBenchFile    `json:"baseline,omitempty"`
	// ScaleDemo holds the hand-recorded paper-scale measurements (the
	// 40K- and 256K-node runs documented in PERFORMANCE.md and
	// EXPERIMENTS.md — too slow for the bench harness); writeSimBench
	// carries it forward untouched, like Baseline.
	ScaleDemo json.RawMessage `json:"scale_demo,omitempty"`
}

// simBenchRecords and obsBenchRecords collect the sub-benchmark
// measurements of one `go test -bench` process; TestMain persists them
// on exit.
var simBenchRecords, obsBenchRecords []simBenchRecord

type simBenchScenario struct {
	name       string
	alg        core.Algorithm
	wl         core.Workload
	load       float64
	failGlobal float64
	shards     int
	// family/params select a registry topology instead of the default
	// canonical dragonfly (see benchSystem for the scale handling).
	family string
	params map[string]int
	// quickParams replaces params under DFLY_BENCH_SCALE=quick.
	quickParams map[string]int
}

func simBenchScenarios() []simBenchScenario {
	return []simBenchScenario{
		{name: "low/pristine", alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "ur"}, load: 0.1},
		{name: "sat/pristine", alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "wc"}, load: 0.5},
		{name: "low/faulted", alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "ur"}, load: 0.1, failGlobal: 0.1},
		{name: "sat/faulted", alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "wc"}, load: 0.5, failGlobal: 0.1},
		// The sharded engine on the same machine: shard count pinned at 4
		// (not NumCPU) so the records stay comparable across runners; the
		// saturated point maximises inter-group traffic and therefore
		// mailbox crossings.
		{name: "low/sharded4", alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "ur"}, load: 0.1, shards: 4},
		{name: "sat/sharded4", alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "wc"}, load: 0.5, shards: 4},
		// The topology zoo at the same radix class as the 1K dragonfly:
		// per-cycle cost of the pluggable machines, so a regression in
		// one family's oracle or port layout shows up next to the
		// canonical numbers.
		{name: "mid/dragonflyplus", alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "ur"}, load: 0.3,
			family:      "dragonflyplus",
			params:      map[string]int{"p": 4, "leaves": 8, "spines": 8, "h": 4},
			quickParams: map[string]int{"p": 2, "leaves": 4, "spines": 4, "h": 2}},
		{name: "mid/swapped", alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "ur"}, load: 0.3,
			family:      "swapped",
			params:      map[string]int{"p": 4, "k": 12},
			quickParams: map[string]int{"p": 2, "k": 6}},
		{name: "mid/aries", alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "ur"}, load: 0.3,
			family:      "aries",
			params:      map[string]int{"p": 4, "blades": 8, "chassis": 2, "bundle": 1, "h": 4, "g": 9},
			quickParams: map[string]int{"p": 1, "blades": 4, "chassis": 2, "bundle": 2, "h": 2, "g": 8}},
	}
}

// benchSystem builds the benchmark machine: the scenario's registry
// topology if one is named, otherwise the paper's 1K-node network —
// both shrunk under DFLY_BENCH_SCALE=quick.
func benchSystem(b *testing.B, sc simBenchScenario) (*core.System, string) {
	b.Helper()
	quick := os.Getenv("DFLY_BENCH_SCALE") == "quick"
	var cfg core.SystemConfig
	var name string
	if sc.family != "" {
		params := sc.params
		if quick && sc.quickParams != nil {
			params = sc.quickParams
		}
		cfg = core.SystemConfig{Topology: sc.family, TopoParams: params}
		name = sc.family
	} else {
		cfg = core.SystemConfig{P: 4, A: 8, H: 4}
		name = "1K-node (p=4,a=8,h=4)"
		if quick {
			cfg = core.SystemConfig{P: 2, A: 4, H: 2}
			name = "72-node (p=2,a=4,h=2)"
		}
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatalf("NewSystem: %v", err)
	}
	if sc.family != "" {
		name = fmt.Sprintf("%v", sys.Topo)
	}
	if sc.failGlobal > 0 {
		plan := fault.NewPlan(7)
		plan.FailFraction(sys.Topo, topology.ClassGlobal, sc.failGlobal)
		sys = sys.WithFaults(plan)
		name += fmt.Sprintf(" %g%% globals failed", sc.failGlobal*100)
	}
	return sys, name
}

// BenchmarkSimCycle times Network.Step across the scenario matrix and
// records cycles/sec and allocs/cycle for BENCH_sim.json.
func BenchmarkSimCycle(b *testing.B) {
	for _, sc := range simBenchScenarios() {
		b.Run(sc.name, func(b *testing.B) {
			sys, netName := benchSystem(b, sc)
			net, err := sys.NewNetworkFor(sc.alg, sc.wl)
			if err != nil {
				b.Fatalf("NewNetwork: %v", err)
			}
			if sc.shards > 0 {
				if err := net.SetShards(sc.shards); err != nil {
					b.Fatalf("SetShards: %v", err)
				}
			}
			net.SetLoad(sc.load)
			simBenchRecords = append(simBenchRecords, timeSteps(b, net, sc.name, netName))
		})
	}
}

// timeSteps times b.N Steps of net and returns them as a record.
func timeSteps(b *testing.B, net *sim.Network, name, network string) simBenchRecord {
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Step(); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	cps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(cps, "cycles/sec")
	return simBenchRecord{
		Name:          name,
		Network:       network,
		Cycles:        b.N,
		NsPerCycle:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		CyclesPerSec:  cps,
		AllocsPerCyc:  float64(m1.Mallocs-m0.Mallocs) / float64(b.N),
		BytesPerCyc:   float64(m1.TotalAlloc-m0.TotalAlloc) / float64(b.N),
		InFlightAtEnd: net.InFlight(),
	}
}

// writeSimBench persists the collected records to BENCH_sim.json,
// carrying the existing file's baseline section forward (or demoting a
// previous engine's numbers to the baseline slot if none is recorded).
// Scenarios this run did not measure keep their previous records, so a
// -bench filter refreshes just the rows it selects.
func writeSimBench() {
	if len(simBenchRecords) == 0 && len(obsBenchRecords) == 0 {
		return
	}
	path := os.Getenv("DFLY_BENCH_JSON")
	if path == "skip" {
		return
	}
	if path == "" {
		path = "BENCH_sim.json"
	}
	host := thisHost()
	scenarios := largestRuns(simBenchRecords, host)
	out := simBenchFile{
		Engine:      "arena",
		Note:        "one op = one Network.Step on a cold network; see PERFORMANCE.md",
		Scenarios:   scenarios,
		ObsOverhead: largestRuns(obsBenchRecords, host),
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old simBenchFile
		if json.Unmarshal(prev, &old) == nil {
			out.ScaleDemo = old.ScaleDemo
			out.ObsOverhead = mergeRecords(old.ObsOverhead, out.ObsOverhead)
			if old.Engine == out.Engine {
				out.Scenarios = mergeRecords(old.Scenarios, scenarios)
			}
			if old.Baseline != nil {
				out.Baseline = old.Baseline
			} else if len(old.Scenarios) > 0 && old.Engine != out.Engine {
				old2 := old
				out.Baseline = &old2
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_sim.json: %v\n", err)
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_sim.json: %v\n", err)
	}
}

// largestRuns stamps recs with host and keeps one record per name. The
// bench framework runs a b.N=1 calibration probe before the timed run;
// the largest-N record wins (under -benchtime=1x the probe IS the run,
// so it survives).
func largestRuns(recs []simBenchRecord, host *benchHost) []simBenchRecord {
	best := make(map[string]int)
	var out []simBenchRecord
	for _, rec := range recs {
		rec.Host = host
		if i, ok := best[rec.Name]; ok {
			if rec.Cycles >= out[i].Cycles {
				out[i] = rec
			}
			continue
		}
		best[rec.Name] = len(out)
		out = append(out, rec)
	}
	return out
}

// mergeRecords replaces the rows of old that fresh re-measured, in
// old's order, and appends fresh scenarios old did not have.
func mergeRecords(old, fresh []simBenchRecord) []simBenchRecord {
	out := append([]simBenchRecord(nil), old...)
next:
	for _, rec := range fresh {
		for i := range out {
			if out[i].Name == rec.Name {
				out[i] = rec
				continue next
			}
		}
		out = append(out, rec)
	}
	return out
}

// TestMain lets the benchmark suite flush BENCH_sim.json after the run.
func TestMain(m *testing.M) {
	code := m.Run()
	writeSimBench()
	os.Exit(code)
}
