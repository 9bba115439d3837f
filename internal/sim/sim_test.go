package sim_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"dragonfly/internal/fault"
	"dragonfly/internal/metrics"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

func testDragonfly(t *testing.T) *topology.Dragonfly {
	t.Helper()
	d, err := topology.NewDragonfly(2, 4, 2, 0) // N=72, the paper's Figure 5 example
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	return d
}

// testConfig returns the paper's baseline simulation parameters.
func testConfig() sim.Config {
	return sim.Config{BufDepth: 16, VCs: routing.VCs, LocalLatency: 1, GlobalLatency: 2, Seed: 1}
}

// watchEjections attaches a collector that hands f every ejection with
// the number of channels the packet crossed, counted from its
// PacketHop events.
func watchEjections(net *sim.Network, f func(e metrics.Eject, hops int)) {
	net.AttachMetrics(&ejectWatch{f: f, hops: map[uint64]int{}})
}

type ejectWatch struct {
	metrics.Nop
	f    func(metrics.Eject, int)
	hops map[uint64]int
}

func (w *ejectWatch) PacketHop(h metrics.Hop) { w.hops[h.Packet]++ }

func (w *ejectWatch) PacketEjected(e metrics.Eject) {
	w.f(e, w.hops[e.Packet])
	delete(w.hops, e.Packet)
}

// TestLinkClassesMatchNetwork pins LinkClasses to New's link
// numbering: for every registered topology family, pristine and behind
// a Degraded view with failed channels, the classes computed from the
// topology alone are the ones the built network gave its links.
func TestLinkClassesMatchNetwork(t *testing.T) {
	for _, f := range topology.Families.List() {
		m, err := topology.Build(f.Name, nil)
		if err != nil {
			t.Fatalf("Build(%s): %v", f.Name, err)
		}
		plan := fault.NewPlan(1)
		plan.FailFraction(m, topology.ClassGlobal, 0.1)
		plan.FailFraction(m, topology.ClassLocal, 0.1)
		for _, topo := range []topology.Machine{m, topology.NewDegraded(m, plan)} {
			net, err := sim.New(topo, testConfig(), routing.NewMIN(topo), traffic.NewUniformRandom(topo.Terminals()))
			if err != nil {
				t.Fatalf("%s: New: %v", f.Name, err)
			}
			got := sim.LinkClasses(topo)
			if len(got) != net.NumLinks() {
				t.Fatalf("%s (%T): %d link classes for %d links", f.Name, topo, len(got), net.NumLinks())
			}
			for id, global := range got {
				if global != net.LinkGlobal(id) {
					t.Errorf("%s (%T): link %d global=%t, the network says %t", f.Name, topo, id, global, !global)
				}
			}
		}
	}
}

func newNet(t *testing.T, d *topology.Dragonfly, cfg sim.Config, rt sim.Routing, tr sim.Traffic) *sim.Network {
	t.Helper()
	net, err := sim.New(d, cfg, rt, tr)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return net
}

func TestConfigValidation(t *testing.T) {
	bad := []sim.Config{
		{BufDepth: 0, VCs: 3, LocalLatency: 1, GlobalLatency: 1},
		{BufDepth: 16, VCs: 0, LocalLatency: 1, GlobalLatency: 1},
		{BufDepth: 16, VCs: 3, LocalLatency: 0, GlobalLatency: 1},
		{BufDepth: 16, VCs: 3, LocalLatency: 1, GlobalLatency: 0},
		{BufDepth: 16, OutDepth: -1, VCs: 3, LocalLatency: 1, GlobalLatency: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("baseline config rejected: %v", err)
	}
}

func TestRunDeliversEverything(t *testing.T) {
	d := testDragonfly(t)
	for _, algName := range []string{"MIN", "VAL", "UGAL-L", "UGAL-G", "UGAL-L_VC", "UGAL-L_VCH", "UGAL-L_CR"} {
		alg := buildAlg(t, d, algName)
		cfg := testConfig()
		cfg.DelayCredits = algName == "UGAL-L_CR"
		net := newNet(t, d, cfg, alg, traffic.NewUniformRandom(d.Nodes()))
		res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{
			Load: 0.2, WarmupCycles: 500, MeasureCycles: 500, DrainCycles: 20000, StallLimit: 5000,
		})
		if err != nil {
			t.Fatalf("%s: Run: %v", algName, err)
		}
		if res.DrainTimeout {
			t.Errorf("%s: drain timed out at low load", algName)
		}
		if res.Latency.Count() == 0 {
			t.Errorf("%s: no measured packets", algName)
		}
		if got := res.Accepted; got < 0.18 || got > 0.22 {
			t.Errorf("%s: accepted %v, want ~0.2", algName, got)
		}
		if res.Latency.Mean() < 2 || res.Latency.Mean() > 100 {
			t.Errorf("%s: mean latency %v out of sane range", algName, res.Latency.Mean())
		}
	}
}

func buildAlg(t *testing.T, d *topology.Dragonfly, name string) sim.Routing {
	t.Helper()
	switch name {
	case "MIN":
		return routing.NewMIN(d)
	case "VAL":
		return routing.NewVAL(d)
	case "UGAL-L":
		return routing.NewUGAL(d, routing.UGALLocal)
	case "UGAL-G":
		return routing.NewUGAL(d, routing.UGALGlobal)
	case "UGAL-L_VC":
		return routing.NewUGAL(d, routing.UGALLocalVC)
	case "UGAL-L_VCH":
		return routing.NewUGAL(d, routing.UGALLocalVCH)
	case "UGAL-L_CR":
		return routing.NewUGALCR(d)
	default:
		t.Fatalf("unknown algorithm %q", name)
		return nil
	}
}

func TestDeterminism(t *testing.T) {
	d := testDragonfly(t)
	run := func() sim.Result {
		net := newNet(t, d, testConfig(), routing.NewUGAL(d, routing.UGALLocalVCH), traffic.NewWorstCase(d))
		res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.25, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 20000})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Latency.Mean() != b.Latency.Mean() || a.Latency.Count() != b.Latency.Count() {
		t.Errorf("identical seeds diverged: %v/%d vs %v/%d",
			a.Latency.Mean(), a.Latency.Count(), b.Latency.Mean(), b.Latency.Count())
	}
	if a.Accepted != b.Accepted {
		t.Errorf("accepted diverged: %v vs %v", a.Accepted, b.Accepted)
	}
}

func TestSeedChangesResults(t *testing.T) {
	d := testDragonfly(t)
	run := func(seed uint64) sim.Result {
		cfg := testConfig()
		cfg.Seed = seed
		net := newNet(t, d, cfg, routing.NewMIN(d), traffic.NewUniformRandom(d.Nodes()))
		res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.3, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 20000})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	if run(1).Latency.Count() == run(2).Latency.Count() && run(1).Latency.Mean() == run(2).Latency.Mean() {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestZeroLoadLatencyMatchesPathLength(t *testing.T) {
	// At near-zero load every packet should traverse its minimal path
	// uncontended: up to local+global+local, i.e. at most
	// 2*LocalLatency + GlobalLatency cycles.
	d := testDragonfly(t)
	cfg := testConfig()
	net := newNet(t, d, cfg, routing.NewMIN(d), traffic.NewUniformRandom(d.Nodes()))
	maxLat := int64(0)
	watchEjections(net, func(e metrics.Eject, _ int) {
		maxLat = max(maxLat, e.Latency)
	})
	net.SetLoad(0.005)
	for i := 0; i < 3000; i++ {
		net.Step()
	}
	want := int64(2*cfg.LocalLatency + cfg.GlobalLatency)
	if maxLat > want+2 { // tiny slack for rare same-cycle collisions
		t.Errorf("zero-load max latency %d, want <= %d", maxLat, want)
	}
	if maxLat == 0 {
		t.Error("no packets delivered")
	}
}

func TestMinimalHopBound(t *testing.T) {
	// Minimal routing must never exceed 3 router-to-router hops
	// (Section 4.1); Valiant must never exceed 5.
	d := testDragonfly(t)
	for _, tc := range []struct {
		alg  sim.Routing
		want int
	}{
		{routing.NewMIN(d), 3},
		{routing.NewVAL(d), 5},
	} {
		net := newNet(t, d, testConfig(), tc.alg, traffic.NewUniformRandom(d.Nodes()))
		worst := 0
		watchEjections(net, func(_ metrics.Eject, hops int) {
			worst = max(worst, hops)
		})
		net.SetLoad(0.3)
		for i := 0; i < 2000; i++ {
			net.Step()
		}
		if worst > tc.want {
			t.Errorf("%s: packet took %d hops, want <= %d", tc.alg.Name(), worst, tc.want)
		}
	}
}

func TestPacketConservation(t *testing.T) {
	// Stop injecting and drain: every packet must leave the network and
	// every credit must come home.
	d := testDragonfly(t)
	net := newNet(t, d, testConfig(), routing.NewUGAL(d, routing.UGALLocalVCH), traffic.NewWorstCase(d))
	injected := 0
	ejected := 0
	watchEjections(net, func(metrics.Eject, int) { ejected++ })
	net.SetLoad(0.4)
	for i := 0; i < 2000; i++ {
		net.Step()
	}
	injected = ejected + net.InFlight() + net.TotalSourceBacklog()
	_ = injected
	net.SetLoad(0)
	for i := 0; i < 60000 && net.InFlight() > 0; i++ {
		net.Step()
	}
	if net.InFlight() != 0 {
		t.Fatalf("packets stuck after drain: %d", net.InFlight())
	}
	// A few extra cycles to land the last credits.
	for i := 0; i < 64; i++ {
		net.Step()
	}
	for r := 0; r < d.Routers(); r++ {
		rt := net.RouterAt(r)
		for p := 0; p < d.Radix(r); p++ {
			if rt.IsTerminalPort(p) {
				continue
			}
			for vc := 0; vc < 3; vc++ {
				if c := rt.Credits(p, vc); c != 16 {
					t.Fatalf("credit leak: router %d port %d vc %d has %d/16 credits", r, p, vc, c)
				}
			}
			if q := rt.PendingOut(p); q != 0 {
				t.Fatalf("router %d port %d still has %d pending flits", r, p, q)
			}
		}
	}
}

func TestDeadlockFreedomUnderStress(t *testing.T) {
	// Drive every algorithm at overload on the adversarial pattern; the
	// stall detector inside Run would error on a routing deadlock.
	if testing.Short() {
		t.Skip("stress test")
	}
	d := testDragonfly(t)
	for _, algName := range []string{"MIN", "VAL", "UGAL-L", "UGAL-G", "UGAL-L_VC", "UGAL-L_VCH", "UGAL-L_CR"} {
		alg := buildAlg(t, d, algName)
		cfg := testConfig()
		cfg.BufDepth = 4 // shallow buffers make deadlock most likely
		cfg.DelayCredits = algName == "UGAL-L_CR"
		net := newNet(t, d, cfg, alg, traffic.NewWorstCase(d))
		net.SetLoad(1.0)
		last := 0
		for i := 0; i < 4000; i++ {
			net.Step()
			if i%500 == 499 {
				cur := net.InFlight()
				_ = cur
				_ = last
			}
		}
		// Forward progress: ejections must keep happening at full load.
		count := 0
		watchEjections(net, func(metrics.Eject, int) { count++ })
		for i := 0; i < 500; i++ {
			net.Step()
		}
		if count == 0 {
			t.Errorf("%s: no packets delivered during 500 cycles at overload (deadlock?)", algName)
		}
	}
}

func TestWorstCaseMinimalThroughputBound(t *testing.T) {
	// Figure 8(b): under the WC pattern, minimal routing is limited to
	// 1/(a*h) of capacity because each group funnels everything through
	// one global channel.
	d := testDragonfly(t) // a*h = 8
	net := newNet(t, d, testConfig(), routing.NewMIN(d), traffic.NewWorstCase(d))
	res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.5, WarmupCycles: 1500, MeasureCycles: 1000, DrainCycles: 2000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	bound := 1.0 / float64(d.A*d.H)
	if res.Accepted > bound*1.15 {
		t.Errorf("MIN/WC accepted %v, theoretical bound %v", res.Accepted, bound)
	}
	if !res.Saturated {
		t.Error("MIN/WC at load 0.5 should report saturation")
	}
}

func TestValiantHalvesCapacity(t *testing.T) {
	// VAL doubles global-channel load, so UR traffic saturates near 0.5.
	d := testDragonfly(t)
	net := newNet(t, d, testConfig(), routing.NewVAL(d), traffic.NewUniformRandom(d.Nodes()))
	res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.42, WarmupCycles: 1500, MeasureCycles: 1000, DrainCycles: 30000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Saturated {
		t.Errorf("VAL/UR saturated at 0.42; should sustain just below 0.5 (accepted %v)", res.Accepted)
	}
	net2 := newNet(t, d, testConfig(), routing.NewVAL(d), traffic.NewUniformRandom(d.Nodes()))
	res2, err := sim.RunCtx(context.Background(), net2, sim.RunConfig{Load: 0.65, WarmupCycles: 1500, MeasureCycles: 1000, DrainCycles: 3000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res2.Saturated {
		t.Errorf("VAL/UR at 0.65 should saturate (accepted %v)", res2.Accepted)
	}
}

func TestUGALAdaptsOnWorstCase(t *testing.T) {
	// UGAL variants must beat MIN's 1/(ah) bound on WC traffic by
	// routing non-minimally.
	d := testDragonfly(t)
	for _, algName := range []string{"UGAL-L", "UGAL-G", "UGAL-L_VC", "UGAL-L_VCH", "UGAL-L_CR"} {
		alg := buildAlg(t, d, algName)
		cfg := testConfig()
		cfg.DelayCredits = algName == "UGAL-L_CR"
		net := newNet(t, d, cfg, alg, traffic.NewWorstCase(d))
		res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.3, WarmupCycles: 1500, MeasureCycles: 1000, DrainCycles: 30000})
		if err != nil {
			t.Fatalf("%s: Run: %v", algName, err)
		}
		if res.Accepted < 0.25 {
			t.Errorf("%s/WC accepted %v at load 0.3, want ~0.3", algName, res.Accepted)
		}
		if res.MinimalFraction > 0.5 {
			t.Errorf("%s/WC routed %.0f%% minimally; adversarial traffic needs mostly non-minimal",
				algName, res.MinimalFraction*100)
		}
	}
}

func TestUGALPrefersMinimalOnUniform(t *testing.T) {
	d := testDragonfly(t)
	for _, algName := range []string{"UGAL-L", "UGAL-G", "UGAL-L_VCH"} {
		alg := buildAlg(t, d, algName)
		net := newNet(t, d, testConfig(), alg, traffic.NewUniformRandom(d.Nodes()))
		res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.3, WarmupCycles: 1000, MeasureCycles: 1000, DrainCycles: 30000})
		if err != nil {
			t.Fatalf("%s: Run: %v", algName, err)
		}
		if res.MinimalFraction < 0.5 {
			t.Errorf("%s/UR routed only %.0f%% minimally at light load", algName, res.MinimalFraction*100)
		}
	}
}

func TestChannelUtilizationCounting(t *testing.T) {
	d := testDragonfly(t)
	net := newNet(t, d, testConfig(), routing.NewMIN(d), traffic.NewUniformRandom(d.Nodes()))
	util := metrics.NewChannelUtil(net.NumLinks())
	net.AttachMetrics(util)
	net.SetLoad(0.3)
	for i := 0; i < 1000; i++ {
		net.Step()
	}
	total := int64(0)
	seen := false
	for r := 0; r < d.Routers(); r++ {
		for p := 0; p < d.Radix(r); p++ {
			l := net.LinkID(r, p)
			if l < 0 {
				continue
			}
			b := util.Busy(l)
			total += b
			seen = true
			if b > 1000 {
				t.Fatalf("channel (%d,%d) busy %d cycles out of 1000", r, p, b)
			}
		}
	}
	if !seen || total == 0 {
		t.Error("no utilization recorded")
	}
	// Replace, then detach: neither the replaced collector nor the fresh
	// one may count the steps that follow.
	fresh := metrics.NewChannelUtil(net.NumLinks())
	net.AttachMetrics(fresh)
	net.AttachMetrics(nil)
	for i := 0; i < 100; i++ {
		net.Step()
	}
	after := int64(0)
	for l := 0; l < net.NumLinks(); l++ {
		after += util.Busy(l)
		if fresh.Busy(l) > 0 {
			t.Fatal("detached collector still counting")
		}
	}
	if after != total {
		t.Fatalf("replaced collector kept counting: %d flits, want %d", after, total)
	}
}

func TestRunConfigValidation(t *testing.T) {
	d := testDragonfly(t)
	net := newNet(t, d, testConfig(), routing.NewMIN(d), traffic.NewUniformRandom(d.Nodes()))
	cases := []struct {
		name  string
		rc    sim.RunConfig
		param string
	}{
		{"negative load", sim.RunConfig{Load: -0.1, MeasureCycles: 10}, "Load"},
		{"load > 1", sim.RunConfig{Load: 1.5, MeasureCycles: 10}, "Load"},
		{"NaN load", sim.RunConfig{Load: math.NaN(), MeasureCycles: 10}, "Load"},
		{"+Inf load", sim.RunConfig{Load: math.Inf(1), MeasureCycles: 10}, "Load"},
		{"-Inf load", sim.RunConfig{Load: math.Inf(-1), MeasureCycles: 10}, "Load"},
		{"negative warmup", sim.RunConfig{Load: 0.1, WarmupCycles: -1, MeasureCycles: 10}, "WarmupCycles"},
		{"zero measure", sim.RunConfig{Load: 0.1, MeasureCycles: 0}, "MeasureCycles"},
		{"negative measure", sim.RunConfig{Load: 0.1, MeasureCycles: -5}, "MeasureCycles"},
		{"negative drain", sim.RunConfig{Load: 0.1, MeasureCycles: 10, DrainCycles: -1}, "DrainCycles"},
		{"negative hist width", sim.RunConfig{Load: 0.1, MeasureCycles: 10, HistWidth: -2}, "HistWidth"},
		{"negative stall limit", sim.RunConfig{Load: 0.1, MeasureCycles: 10, StallLimit: -1}, "StallLimit"},
	}
	for _, c := range cases {
		_, err := sim.RunCtx(context.Background(), net, c.rc)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		var ce *sim.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", c.name, err)
			continue
		}
		if ce.Param != c.param {
			t.Errorf("%s: rejected parameter %q, want %q (%v)", c.name, ce.Param, c.param, err)
		}
	}
	// Zero warm-up is valid: cold-start stress tests rely on it.
	if err := (sim.RunConfig{Load: 0.1, MeasureCycles: 10}).Validate(); err != nil {
		t.Errorf("zero warm-up rejected: %v", err)
	}
}

func TestConfigErrorTyped(t *testing.T) {
	err := sim.Config{BufDepth: 0, VCs: 3, LocalLatency: 1, GlobalLatency: 1}.Validate()
	var ce *sim.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Config.Validate error %v is not a *ConfigError", err)
	}
	if ce.Param != "BufDepth" {
		t.Errorf("rejected parameter %q, want BufDepth", ce.Param)
	}
	if ce.Error() == "" || ce.Value != "0" {
		t.Errorf("unexpected rendering: %q (value %q)", ce.Error(), ce.Value)
	}
}

func TestHistogramCollection(t *testing.T) {
	d := testDragonfly(t)
	net := newNet(t, d, testConfig(), routing.NewMIN(d), traffic.NewUniformRandom(d.Nodes()))
	res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{
		Load: 0.2, WarmupCycles: 300, MeasureCycles: 500, DrainCycles: 20000,
		Histogram: true, HistWidth: 2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Hist == nil || res.Hist.Total() == 0 {
		t.Fatal("histogram empty")
	}
	if res.Hist.Total() != res.Latency.Count() {
		t.Errorf("histogram total %d != latency count %d", res.Hist.Total(), res.Latency.Count())
	}
	if res.MinHist.Total()+res.NonminHist.Total() != res.Hist.Total() {
		t.Error("min + nonmin histograms do not partition the total")
	}
}

func TestCreditRTTSensing(t *testing.T) {
	// Under WC congestion with the delayed-credit mechanism on, the
	// router owning the overloaded minimal global channel must develop a
	// large congestion estimate for it while its other outputs stay low.
	d := testDragonfly(t)
	cfg := testConfig()
	cfg.DelayCredits = true
	net := newNet(t, d, cfg, routing.NewMIN(d), traffic.NewWorstCase(d))
	net.SetLoad(0.3)
	for i := 0; i < 2000; i++ {
		net.Step()
	}
	// Group 1's minimal channel to group 2 is slot 0, owned by the first
	// router of the group.
	owner := net.RouterAt(d.A)
	hot := owner.TD(d.P + d.A - 1)
	if hot <= 0 {
		t.Errorf("congested global channel has TD=%d, want > 0", hot)
	}
}

func TestTwoGroupDragonflySimulates(t *testing.T) {
	// Degenerate small configuration: 2 groups, single global channel
	// pair; everything must still deliver.
	d, err := topology.NewDragonfly(1, 2, 1, 0)
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	net := newNet(t, d, testConfig(), routing.NewMIN(d), traffic.NewUniformRandom(d.Nodes()))
	res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.2, WarmupCycles: 200, MeasureCycles: 400, DrainCycles: 10000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Latency.Count() == 0 {
		t.Error("no packets delivered in 2-group dragonfly")
	}
}

func TestMixIsDeterministic(t *testing.T) {
	if sim.Mix(42) != sim.Mix(42) {
		t.Error("Mix not deterministic")
	}
	if sim.Mix(1) == sim.Mix(2) {
		t.Error("Mix(1) == Mix(2)")
	}
}

// TestMetricsRunThenPlainRunBitIdentical proves the zero-cost
// instrumentation never changes results: on the same network, a run
// with a ChannelUtil attached followed by a plain run produces exactly
// the numbers the plain-plain sequence does.
func TestMetricsRunThenPlainRunBitIdentical(t *testing.T) {
	second := func(firstUtil bool) sim.Result {
		d := testDragonfly(t)
		net := newNet(t, d, testConfig(), routing.NewUGAL(d, routing.UGALLocalVCH), traffic.NewUniformRandom(d.Nodes()))
		rc := sim.RunConfig{Load: 0.2, WarmupCycles: 300, MeasureCycles: 300, DrainCycles: 10000}
		var util *metrics.ChannelUtil
		if firstUtil {
			util = metrics.NewChannelUtil(net.NumLinks())
			net.AttachMetrics(util)
		}
		if _, err := sim.RunCtx(context.Background(), net, rc); err != nil {
			t.Fatalf("first run: %v", err)
		}
		if firstUtil {
			net.AttachMetrics(nil)
			busy := int64(0)
			for l := 0; l < net.NumLinks(); l++ {
				busy += util.Busy(l)
			}
			if busy == 0 {
				t.Fatal("attached ChannelUtil counted no flits")
			}
		}
		res, err := sim.RunCtx(context.Background(), net, rc)
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
		return res
	}
	withUtil := second(true)
	plain := second(false)
	if withUtil.Accepted != plain.Accepted ||
		withUtil.Latency.Mean() != plain.Latency.Mean() ||
		withUtil.Latency.Count() != plain.Latency.Count() ||
		withUtil.Cycles != plain.Cycles {
		t.Errorf("plain run after a metrics run diverged: accepted %v vs %v, latency %v/%d vs %v/%d, cycles %d vs %d",
			withUtil.Accepted, plain.Accepted,
			withUtil.Latency.Mean(), withUtil.Latency.Count(),
			plain.Latency.Mean(), plain.Latency.Count(),
			withUtil.Cycles, plain.Cycles)
	}
}
