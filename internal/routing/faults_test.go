package routing

import (
	"testing"

	"dragonfly/internal/fault"
	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// severPair fails every global channel between groups ga and gb.
func severPair(t *testing.T, d *topology.Dragonfly, ga, gb int) *topology.Degraded {
	t.Helper()
	plan := fault.NewPlan(1)
	for idx := 0; idx < d.A; idx++ {
		r := ga*d.A + idx
		for p := 0; p < d.Radix(r); p++ {
			pt := d.Port(r, p)
			if pt.Class == topology.ClassGlobal && pt.PeerRouter/d.A == gb {
				plan.FailChannel(d, r, p)
			}
		}
	}
	dg := topology.NewDegraded(d, plan)
	if n := dg.LiveSlots().Count(ga, gb); n != 0 {
		t.Fatalf("severPair left %d live channels between %d and %d", n, ga, gb)
	}
	return dg
}

// isolateGroup fails every global channel touching group g.
func isolateGroup(t *testing.T, d *topology.Dragonfly, g int) *topology.Degraded {
	t.Helper()
	plan := fault.NewPlan(1)
	for idx := 0; idx < d.A; idx++ {
		r := g*d.A + idx
		for p := 0; p < d.Radix(r); p++ {
			if d.Port(r, p).Class == topology.ClassGlobal {
				plan.FailChannel(d, r, p)
			}
		}
	}
	dg := topology.NewDegraded(d, plan)
	if dg.Connected() {
		t.Fatal("isolateGroup left the network connected")
	}
	return dg
}

// nextGroupTraffic sends every terminal's packets to the same-position
// terminal of the next group, so all traffic crosses exactly one group
// boundary.
type nextGroupTraffic struct{ d *topology.Dragonfly }

func (nextGroupTraffic) Name() string { return "nextgroup" }
func (tr nextGroupTraffic) Dest(src int, _ uint64) int {
	return (src + tr.d.A*tr.d.P) % tr.d.Nodes()
}

// TestMINDetoursAroundSeveredPair: killing the only minimal global
// channel between two groups must not strand their traffic — fault-aware
// MIN falls back to a Valiant detour through a live intermediate group
// and still delivers everything.
func TestMINDetoursAroundSeveredPair(t *testing.T) {
	d := testDF(t) // 1 channel per group pair at this size
	dg := severPair(t, d, 0, 1)
	m := NewMIN(dg)
	net, err := sim.New(dg, testCfg(), m, nextGroupTraffic{d})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	crossDelivered, detours := 0, 0
	watchEjections(net, func(e metrics.Eject, _ int) {
		// The source terminal is the packet id's high half; group g
		// holds routers [g*A, (g+1)*A).
		if src := int(e.Packet >> 32); src/(d.A*d.P) == 0 && e.Router/d.A == 1 {
			crossDelivered++
			if !e.Minimal {
				detours++
			}
		}
	})
	net.SetLoad(0.2)
	for i := 0; i < 2000; i++ {
		if err := net.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if crossDelivered == 0 {
		t.Fatal("no packets delivered across the severed pair")
	}
	if detours != crossDelivered {
		t.Errorf("%d of %d severed-pair packets claim a minimal route that no longer exists",
			crossDelivered-detours, crossDelivered)
	}
	if got := net.Dropped(); got != 0 {
		t.Errorf("%d packets dropped on a connected degraded network", got)
	}
}

// TestVCLevelsMonotoneUnderFaults re-runs the deadlock-freedom VC check
// with a fault plan active: detoured paths must climb the same
// (class, VC) ladder as pristine ones.
func TestVCLevelsMonotoneUnderFaults(t *testing.T) {
	d := testDF(t)
	plan := fault.NewPlan(7)
	plan.FailRandomChannels(d, topology.ClassGlobal, 8) // ~22% of the 36 channels
	plan.FailRandomChannels(d, topology.ClassLocal, 4)
	dg := topology.NewDegraded(d, plan)
	for _, mk := range []func() sim.Routing{
		func() sim.Routing { return NewMIN(dg) },
		func() sim.Routing { return NewVAL(dg) },
		func() sim.Routing { return NewUGAL(dg, UGALLocal) },
		func() sim.Routing { return NewUGAL(dg, UGALLocalVCH) },
	} {
		rec := &hopRecorder{inner: mk(), topo: d, bad: t.Errorf, lastVC: map[uint64]vcState{}}
		net, err := sim.New(dg, testCfg(), rec, traffic.NewUniformRandom(d.Nodes()))
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		net.SetLoad(0.3)
		for i := 0; i < 1500; i++ {
			if err := net.Step(); err != nil {
				t.Fatalf("%s: Step: %v", rec.Name(), err)
			}
		}
	}
}

// TestDisconnectedGroupDropsNotHangs: with a group fully cut off, its
// cross-group traffic is unroutable; the simulator must count drops and
// keep running rather than wedge or error out.
func TestDisconnectedGroupDropsNotHangs(t *testing.T) {
	d := testDF(t)
	dg := isolateGroup(t, d, 0)
	for _, mk := range []func() sim.Routing{
		func() sim.Routing { return NewMIN(dg) },
		func() sim.Routing { return NewUGAL(dg, UGALLocal) },
	} {
		rt := mk()
		net, err := sim.New(dg, testCfg(), rt, nextGroupTraffic{d})
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		net.SetLoad(0.2)
		for i := 0; i < 2000; i++ {
			if err := net.Step(); err != nil {
				t.Fatalf("%s: Step: %v", rt.Name(), err)
			}
		}
		if net.Dropped() == 0 {
			t.Errorf("%s: no drops with group 0 cut off and all its traffic cross-group", rt.Name())
		}
	}
}

// TestEmptyPlanBitIdenticalRouting: attaching an all-alive fault plan
// must not change a single routing decision — the degraded code paths
// reduce exactly to the pristine ones.
func TestEmptyPlanBitIdenticalRouting(t *testing.T) {
	d := testDF(t)
	dg := topology.NewDegraded(d, fault.NewPlan(1))
	for _, mk := range []struct {
		name               string
		pristine, degraded sim.Routing
	}{
		{"MIN", NewMIN(d), NewMIN(dg)},
		{"VAL", NewVAL(d), NewVAL(dg)},
		{"UGAL-L", NewUGAL(d, UGALLocal), NewUGAL(dg, UGALLocal)},
	} {
		run := func(rt sim.Routing, topo sim.Topology) (ejected int, latSum int64) {
			net, err := sim.New(topo, testCfg(), rt, traffic.NewUniformRandom(d.Nodes()))
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			watchEjections(net, func(e metrics.Eject, _ int) {
				ejected++
				latSum += e.Latency
			})
			net.SetLoad(0.3)
			for i := 0; i < 1500; i++ {
				if err := net.Step(); err != nil {
					t.Fatalf("Step: %v", err)
				}
			}
			return
		}
		e1, l1 := run(mk.pristine, d)
		e2, l2 := run(mk.degraded, dg)
		if e1 != e2 || l1 != l2 {
			t.Errorf("%s: empty fault plan changed the simulation: %d pkts/%d lat vs %d pkts/%d lat",
				mk.name, e1, l1, e2, l2)
		}
	}
}
