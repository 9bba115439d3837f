package fault

import (
	"testing"

	"dragonfly/internal/topology"
)

func testDF(t *testing.T) *topology.Dragonfly {
	t.Helper()
	d, err := topology.NewDragonfly(2, 4, 2, 0) // g=9, 36 routers, 72 terminals
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	return d
}

// samePlans reports whether two plans agree on every router and port of w.
func samePlans(w Wiring, a, b *Plan) bool {
	for r := 0; r < w.Routers(); r++ {
		if a.RouterDown(r) != b.RouterDown(r) {
			return false
		}
		for p := 0; p < w.Radix(r); p++ {
			if a.PortDown(r, p) != b.PortDown(r, p) {
				return false
			}
		}
	}
	return true
}

func TestPlanDeterminism(t *testing.T) {
	// The same seed and the same builder calls must yield the identical
	// plan — this is what makes fault sweeps reproducible across worker
	// counts and hosts.
	d := testDF(t)
	build := func(seed uint64) *Plan {
		p := NewPlan(seed)
		p.FailRandomChannels(d, topology.ClassGlobal, 4)
		p.FailRandomRouters(d, 2)
		p.FailFraction(d, topology.ClassLocal, 0.1)
		return p
	}
	if !samePlans(d, build(42), build(42)) {
		t.Error("same seed produced different plans")
	}
	if samePlans(d, build(42), build(43)) {
		t.Error("different seeds produced the same plan (suspicious for this many draws)")
	}
}

func TestFailChannelMarksBothEnds(t *testing.T) {
	d := testDF(t)
	p := NewPlan(1)
	// First global port of router 0.
	var port = -1
	for i := 0; i < d.Radix(0); i++ {
		if d.Port(0, i).Class == topology.ClassGlobal {
			port = i
			break
		}
	}
	if port < 0 {
		t.Fatal("router 0 has no global port")
	}
	pt := d.Port(0, port)
	p.FailChannel(d, 0, port)
	if !p.PortDown(0, port) {
		t.Error("failed channel not down on the failing end")
	}
	if !p.PortDown(pt.PeerRouter, pt.PeerPort) {
		t.Error("failed channel not down on the peer end (cut cables are symmetric)")
	}
	r, g, l, tm := p.Counts()
	if r != 0 || g != 1 || l != 0 || tm != 0 {
		t.Errorf("Counts() = (%d,%d,%d,%d), want (0,1,0,0)", r, g, l, tm)
	}
	// Idempotent from either end.
	p.FailChannel(d, pt.PeerRouter, pt.PeerPort)
	if _, g, _, _ := p.Counts(); g != 1 {
		t.Errorf("re-failing from the peer end double-counted: %d global", g)
	}
}

func TestFailRandomChannelsExactCount(t *testing.T) {
	d := testDF(t)
	p := NewPlan(5)
	const k = 7
	if got := p.FailRandomChannels(d, topology.ClassGlobal, k); got != k {
		t.Fatalf("FailRandomChannels failed %d, want %d", got, k)
	}
	_, g, l, tm := p.Counts()
	if g != k || l != 0 || tm != 0 {
		t.Errorf("Counts() classes = (%d,%d,%d), want (%d,0,0)", g, l, tm, k)
	}
	// Every marked port really is a global port.
	for r := 0; r < d.Routers(); r++ {
		for i := 0; i < d.Radix(r); i++ {
			if p.PortDown(r, i) && d.Port(r, i).Class != topology.ClassGlobal {
				t.Errorf("non-global port (%d,%d) marked down", r, i)
			}
		}
	}
}

func TestFailRandomChannelsExhaustion(t *testing.T) {
	d := testDF(t)
	p := NewPlan(1)
	// g=9 groups, a*h=8 global ports/router-group... total global
	// channels = routers*h/2.
	total := d.Routers() * 2 / 2
	if got := p.FailRandomChannels(d, topology.ClassGlobal, total+10); got != total {
		t.Errorf("failed %d of %d global channels, want all of them and no more", got, total)
	}
}

func TestFailFractionTargetsTotal(t *testing.T) {
	d := testDF(t)
	total := d.Routers() * 2 / 2 // 36 global channels
	p := NewPlan(9)
	want := int(0.25*float64(total) + 0.5)
	if got := p.FailFraction(d, topology.ClassGlobal, 0.25); got != want {
		t.Errorf("FailFraction(0.25) failed %d, want %d", got, want)
	}
	// A second call to the same fraction fails nothing more: the already
	// failed channels count against the target.
	if got := p.FailFraction(d, topology.ClassGlobal, 0.25); got != 0 {
		t.Errorf("repeated FailFraction(0.25) failed %d more channels", got)
	}
	// Raising the fraction tops up to the new target.
	if got := p.FailFraction(d, topology.ClassGlobal, 0.5); got != total/2-want {
		t.Errorf("FailFraction(0.5) top-up failed %d, want %d", got, total/2-want)
	}
}

func TestFailRouterIdempotent(t *testing.T) {
	p := NewPlan(1)
	p.FailRouter(3)
	p.FailRouter(3)
	if r, _, _, _ := p.Counts(); r != 1 {
		t.Errorf("failed routers = %d, want 1", r)
	}
	if !p.RouterDown(3) || p.RouterDown(4) {
		t.Error("RouterDown wrong")
	}
	if got := p.FailedRouters(); len(got) != 1 || got[0] != 3 {
		t.Errorf("FailedRouters() = %v, want [3]", got)
	}
}

func TestFailRandomRoutersAvoidsRepeats(t *testing.T) {
	d := testDF(t)
	p := NewPlan(2)
	if got := p.FailRandomRouters(d, 5); got != 5 {
		t.Fatalf("FailRandomRouters failed %d, want 5", got)
	}
	if len(p.FailedRouters()) != 5 {
		t.Errorf("distinct failed routers = %d, want 5", len(p.FailedRouters()))
	}
	// Asking for more than exist fails exactly the rest.
	if got := p.FailRandomRouters(d, d.Routers()); got != d.Routers()-5 {
		t.Errorf("second draw failed %d, want %d", got, d.Routers()-5)
	}
}

func TestEmptyAndString(t *testing.T) {
	d := testDF(t)
	p := NewPlan(1)
	if !p.Empty() {
		t.Error("fresh plan not empty")
	}
	if p.seed != 1 {
		t.Errorf("seed = %d", p.seed)
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
	p.FailRandomChannels(d, topology.ClassGlobal, 1)
	if p.Empty() {
		t.Error("plan with a failed channel reports Empty")
	}
	if p.String() == "" {
		t.Error("empty String() for non-empty plan")
	}
}

// Counts returns the failed router count and the explicitly failed
// channel counts by class (channels dead only because a router failed
// are not included; topology.Degraded.FaultCounts reports those).
func (p *Plan) Counts() (routers, global, local, terminal int) {
	return p.failedRouters,
		p.failedClass[topology.ClassGlobal],
		p.failedClass[topology.ClassLocal],
		p.failedClass[topology.ClassTerminal]
}
