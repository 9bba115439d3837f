package dragonfly_test

// TestSteadyStateZeroAlloc pins the observability-off contract: with no
// collector attached, a warmed network simulates without allocating.
// The warm-up pays for packet storage and queue growth once; after it,
// the arena free-list and the pre-sized rings recycle everything, and
// the metrics branches are nil-guarded out. CI's bench-smoke job runs
// this test so a stray allocation on the hot path fails the build
// instead of quietly eroding BENCH_sim.json.

import (
	"runtime"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/obs"
)

func steadyNet(t *testing.T, shards int) interface {
	Step() error
	InFlight() int
} {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sys.NewNetworkFor(core.AlgUGALLVCH, core.Workload{Traffic: "ur"})
	if err != nil {
		t.Fatal(err)
	}
	net.SetLoad(0.2)
	for cyc := 0; cyc < 3000; cyc++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	net := steadyNet(t, 0)
	var stepErr error
	allocs := testing.AllocsPerRun(2000, func() {
		if err := net.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Errorf("steady-state Step allocated %.4f objects/cycle with collectors disabled, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocSharded extends the gate to the sharded
// engine: per-shard arenas, mailboxes and event buffers are warmed the
// same way, and the phase dispatch reuses its prebuilt closures and
// the network's persistent worker crew — so a sharded Step with
// collectors detached must stay allocation-free per cycle too.
// AllocsPerRun reads the global malloc counter, so an allocation on
// any shard goroutine fails the gate, not just one on the caller.
func TestSteadyStateZeroAllocSharded(t *testing.T) {
	net := steadyNet(t, 4)
	var stepErr error
	allocs := testing.AllocsPerRun(2000, func() {
		if err := net.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Errorf("sharded steady-state Step allocated %.4f objects/cycle with collectors disabled, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocWorkload extends the gate to the workload
// layer: a registry-built arrival process (here ON/OFF bursty, whose
// Arrive draws dwell lengths and flips per-terminal state every few
// hundred cycles) must keep the warmed Step allocation-free, serial and
// sharded. Source state lives in the fixed ≤8-word per-terminal arrays
// sized at build time, so steady state touches no heap.
func TestSteadyStateZeroAllocWorkload(t *testing.T) {
	for _, shards := range []int{0, 4} {
		sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		wl := core.Workload{Traffic: "ur", Source: "onoff",
			SourceParams: map[string]int{"on": 40, "off": 120}}
		net, err := sys.NewNetworkFor(core.AlgUGALLVCH, wl)
		if err != nil {
			t.Fatal(err)
		}
		net.SetLoad(0.2)
		for cyc := 0; cyc < 3000; cyc++ {
			if err := net.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var stepErr error
		allocs := testing.AllocsPerRun(2000, func() {
			if err := net.Step(); err != nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if allocs != 0 {
			t.Errorf("shards=%d: steady-state Step with an ON/OFF source allocated %.4f objects/cycle, want 0", shards, allocs)
		}
	}
}

// TestSteadyStateTracerBounded is the flip side: with a tracer
// attached the hot path may allocate only while the trace ring grows to
// its cap — once full, tracing steady state is allocation-free too.
func TestSteadyStateTracerBounded(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sys.NewNetworkFor(core.AlgUGALLVCH, core.Workload{Traffic: "ur"})
	if err != nil {
		t.Fatal(err)
	}
	net.SetLoad(0.2)
	tr := obs.NewTracer(1, 0, 256)
	net.AttachMetrics(tr)
	for cyc := 0; cyc < 3000; cyc++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tr.Records()); got != 256 {
		t.Fatalf("trace ring holds %d records after warm-up, want the full 256", got)
	}
	var stepErr error
	allocs := testing.AllocsPerRun(2000, func() {
		if err := net.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Errorf("tracing steady state allocated %.4f objects/cycle with a full ring, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocZoo extends the gate across the topology
// layer: the pluggable machines (here Dragonfly+, with its two-tier
// leaf/spine groups, and the swapped dragonfly with its non-uniform
// router radix) must hit the same allocation-free steady state as the
// canonical dragonfly — the contract is a property of the engine and
// the routing layer, not of one topology's port layout.
func TestSteadyStateZeroAllocZoo(t *testing.T) {
	for _, tc := range []struct {
		family string
		params map[string]int
	}{
		{"dragonflyplus", map[string]int{"p": 2, "leaves": 4, "spines": 4, "h": 2}},
		{"swapped", map[string]int{"p": 2, "k": 6}},
	} {
		sys, err := core.NewSystem(core.SystemConfig{Topology: tc.family, TopoParams: tc.params})
		if err != nil {
			t.Fatal(err)
		}
		net, err := sys.NewNetworkFor(core.AlgUGALLVCH, core.Workload{Traffic: "ur"})
		if err != nil {
			t.Fatal(err)
		}
		net.SetLoad(0.2)
		for cyc := 0; cyc < 3000; cyc++ {
			if err := net.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var stepErr error
		allocs := testing.AllocsPerRun(2000, func() {
			if err := net.Step(); err != nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if allocs != 0 {
			t.Errorf("%s: steady-state Step allocated %.4f objects/cycle with collectors disabled, want 0", tc.family, allocs)
		}
	}
}

// TestNetworkBuildBytes bounds what building the 1K machine's network
// allocates. Most of it is queue rings, and the credit lines dominate
// unless they are sized by what they hold: with 8-byte entries in rings
// that start at one cache line, and source-queue rings on terminal
// ports only, NewNetworkFor allocates 5.96 MB (MB = 10^6 bytes); rings
// of 16-byte entries pre-sized to their bound took 12.85 MB.
func TestNetworkBuildBytes(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 4, A: 8, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net, err := sys.NewNetworkFor(core.AlgUGALLVCH, core.Workload{Traffic: "ur"})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(net)
	const limit = 7_500_000
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("NewNetworkFor allocated %.2f MB on the 1K machine, want at most %.1f MB", float64(got)/1e6, float64(limit)/1e6)
	} else {
		t.Logf("NewNetworkFor allocated %.2f MB", float64(got)/1e6)
	}
}
