package core

import (
	"testing"

	"dragonfly/internal/fault"
	"dragonfly/internal/parallel"
	"dragonfly/internal/topology"
)

// faultedSystem returns the shared small test system with fraction f of
// its global channels failed under the given seed.
func faultedSystem(t *testing.T, f float64, seed uint64) *System {
	t.Helper()
	sys := testSystem(t)
	plan := fault.NewPlan(seed)
	plan.FailFraction(sys.Topo, topology.ClassGlobal, f)
	return sys.WithFaults(plan)
}

// TestFaultSweepDeterministicAcrossJobs extends the parallel-engine
// guarantee to degraded networks: the same fault seed must produce
// bit-identical sweep results on one worker and on four.
func TestFaultSweepDeterministicAcrossJobs(t *testing.T) {
	rc := shortRC()
	loads := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
	for _, alg := range []Algorithm{AlgMIN, AlgUGALL} {
		serial, err := faultedSystem(t, 0.15, 3).SweepPoolW(parallel.New(1), alg, Workload{Traffic: "ur"}, loads, rc, 2)
		if err != nil {
			t.Fatalf("%s jobs=1: %v", alg, err)
		}
		par, err := faultedSystem(t, 0.15, 3).SweepPoolW(parallel.New(4), alg, Workload{Traffic: "ur"}, loads, rc, 2)
		if err != nil {
			t.Fatalf("%s jobs=4: %v", alg, err)
		}
		samePoints(t, string(alg)+"/faults", serial, par)
		for i := range serial {
			if serial[i].Result.Dropped != par[i].Result.Dropped {
				t.Errorf("%s point %d: dropped %d vs %d", alg, i,
					serial[i].Result.Dropped, par[i].Result.Dropped)
			}
		}
	}
}

// TestSameFaultSeedSamePlan pins that the plan construction itself is a
// pure function of (seed, topology): two independently built plans mark
// the same channels.
func TestSameFaultSeedSamePlan(t *testing.T) {
	sys := testSystem(t)
	build := func() *topology.Degraded {
		plan := fault.NewPlan(11)
		plan.FailFraction(sys.Topo, topology.ClassGlobal, 0.2)
		return topology.NewDegraded(sys.Topo, plan)
	}
	a, b := build(), build()
	for r := 0; r < sys.Topo.Routers(); r++ {
		for p := 0; p < sys.Topo.Radix(r); p++ {
			if a.Alive(r, p) != b.Alive(r, p) {
				t.Fatalf("port (%d,%d): liveness differs between identically-seeded plans", r, p)
			}
		}
	}
}

// TestDisconnectedRouterDropsNotHangs is the degradation guarantee for a
// truly unreachable destination: failing a whole router makes its
// terminals unroutable, and a run over the degraded system must finish
// (no stall, no error) while counting the drops.
func TestDisconnectedRouterDropsNotHangs(t *testing.T) {
	sys := testSystem(t)
	plan := fault.NewPlan(1)
	// Cut router 0 off completely: fail every router-to-router channel it
	// terminates but keep the router "up", so its terminals still inject
	// packets that can never leave. This is harsher than FailRouter (dead
	// routers neither inject nor receive).
	for p := 0; p < sys.Topo.Radix(0); p++ {
		if sys.Topo.Port(0, p).Class != topology.ClassTerminal {
			plan.FailChannel(sys.Topo, 0, p)
		}
	}
	fsys := sys.WithFaults(plan)
	if fsys.Degraded().Connected() {
		t.Fatal("router 0 still connected after cutting all its channels")
	}
	for _, alg := range []Algorithm{AlgMIN, AlgUGALL} {
		res, err := fsys.RunW(alg, Workload{Traffic: "ur"}, 0.2, shortRC())
		if err != nil {
			t.Fatalf("%s: run on disconnected network failed: %v", alg, err)
		}
		if res.Dropped == 0 {
			t.Errorf("%s: no drops with router 0 unreachable under UR traffic", alg)
		}
	}
}

// TestFailedRouterKeepsNetworkUsable: FailRouter kills the router's
// terminals too, so Accepted is normalised by the surviving terminals
// and the rest of the network keeps carrying traffic.
func TestFailedRouterKeepsNetworkUsable(t *testing.T) {
	sys := testSystem(t)
	plan := fault.NewPlan(1)
	plan.FailRouter(0)
	fsys := sys.WithFaults(plan)
	res, err := fsys.RunW(AlgUGALL, Workload{Traffic: "ur"}, 0.2, shortRC())
	if err != nil {
		t.Fatalf("run with a failed router: %v", err)
	}
	wantAlive := sys.Topo.Nodes() - sys.cfg.P
	if res.AliveTerminals != wantAlive {
		t.Errorf("AliveTerminals = %d, want %d", res.AliveTerminals, wantAlive)
	}
	if res.Accepted <= 0 {
		t.Error("no throughput with a single failed router")
	}
}

// TestResilienceAcceptance is the issue's headline scenario: the 1K-node
// evaluation network (p=4 a=8 h=4) with 10% of its global channels
// failed. UGAL-L must complete a full load sweep with no stall and no
// error, stay connected (zero drops), and retain at least half of its
// fault-free saturation throughput.
func TestResilienceAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("1K-node sweep is slow; run without -short")
	}
	sys, err := NewSystem(SystemConfig{P: 4, A: 8, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(1)
	plan.FailFraction(sys.Topo, topology.ClassGlobal, 0.10)
	fsys := sys.WithFaults(plan)
	if !fsys.Degraded().Connected() {
		t.Fatal("10% global failures disconnected the 1K network (unexpected at this fraction)")
	}

	rc := shortRC()
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	pool := parallel.New(0)
	sat := func(s *System) float64 {
		pts, err := s.SweepPoolW(pool, AlgUGALL, Workload{Traffic: "ur"}, loads, rc, 0)
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		if len(pts) != len(loads) {
			t.Fatalf("sweep truncated: %d of %d points", len(pts), len(loads))
		}
		best := 0.0
		for _, p := range pts {
			if p.Result.Dropped != 0 {
				t.Errorf("load %.2f: %d packets dropped on a connected network", p.Load, p.Result.Dropped)
			}
			if p.Result.Accepted > best {
				best = p.Result.Accepted
			}
		}
		return best
	}
	pristine := sat(sys)
	degraded := sat(fsys)
	if degraded < 0.5*pristine {
		t.Errorf("degraded saturation throughput %.3f < 50%% of fault-free %.3f", degraded, pristine)
	}
}
