package routing

import (
	"testing"
	"testing/quick"

	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

func testDF(t *testing.T) *topology.Dragonfly {
	t.Helper()
	d, err := topology.NewDragonfly(2, 4, 2, 0)
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	return d
}

// testCfg returns the paper's baseline simulation parameters.
func testCfg() sim.Config {
	return sim.Config{BufDepth: 16, VCs: VCs, LocalLatency: 1, GlobalLatency: 2, Seed: 1}
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

// hopRecorder wraps a routing algorithm and records, for every packet,
// the VC sequence constraints we care about from its NextHop calls.
type hopRecorder struct {
	inner sim.Routing
	topo  topology.Machine
	bad   func(format string, args ...any)
	// lastVC tracks the last VC assigned per packet id, to check
	// monotonicity per hop class.
	lastVC map[uint64]vcState
}

type vcState struct {
	class topology.Class
	vc    int
}

func (h *hopRecorder) Name() string { return h.inner.Name() }

func (h *hopRecorder) Decide(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	return h.inner.Decide(net, r, hs)
}

// classLevel maps a (channel class, VC) pair to its position in the
// acyclic channel ordering of Figure 7:
// (l,0) < (g,0) < (l,1) < (g,1) < (l,2).
func classLevel(c topology.Class, vc int) int {
	if c == topology.ClassGlobal {
		return 2*vc + 1
	}
	return 2 * vc
}

func (h *hopRecorder) NextHop(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	if err := h.inner.NextHop(net, r, hs); err != nil {
		return err
	}
	cls := h.topo.Port(r.ID, hs.Port).Class
	if cls == topology.ClassTerminal {
		delete(h.lastVC, hs.ID)
		return nil
	}
	cur := vcState{class: cls, vc: hs.VC}
	if prev, ok := h.lastVC[hs.ID]; ok {
		lc, lp := classLevel(cur.class, cur.vc), classLevel(prev.class, prev.vc)
		// Equal levels are legal only for consecutive local hops of one
		// group visit (dimension-order routing inside a flattened-
		// butterfly group is acyclic within a VC class).
		sameLocal := lc == lp && cur.class == topology.ClassLocal && prev.class == topology.ClassLocal
		if lc < lp || (lc == lp && !sameLocal) {
			h.bad("packet %d: VC level not increasing: (%v,%d) -> (%v,%d)",
				hs.ID, prev.class, prev.vc, cur.class, cur.vc)
		}
	}
	h.lastVC[hs.ID] = cur
	return nil
}

func TestVCLevelsMonotone(t *testing.T) {
	// The deadlock-freedom argument needs the (class, VC) level to
	// strictly increase along every path. Exercise every algorithm on
	// both traffic patterns and verify each assigned hop.
	d := testDF(t)
	for _, mk := range []func() sim.Routing{
		func() sim.Routing { return NewMIN(d) },
		func() sim.Routing { return NewVAL(d) },
		func() sim.Routing { return NewUGAL(d, UGALLocal) },
		func() sim.Routing { return NewUGAL(d, UGALGlobal) },
		func() sim.Routing { return NewUGAL(d, UGALLocalVC) },
		func() sim.Routing { return NewUGAL(d, UGALLocalVCH) },
		func() sim.Routing { return NewUGALCR(d) },
	} {
		inner := mk()
		rec := &hopRecorder{inner: inner, topo: d, bad: t.Errorf, lastVC: map[uint64]vcState{}}
		net, err := sim.New(d, testCfg(), rec, traffic.NewWorstCase(d))
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		net.SetLoad(0.3)
		for i := 0; i < 1500; i++ {
			net.Step()
		}
		net2, err := sim.New(d, testCfg(), &hopRecorder{inner: mk(), topo: d, bad: t.Errorf, lastVC: map[uint64]vcState{}}, traffic.NewUniformRandom(d.Nodes()))
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		net2.SetLoad(0.3)
		for i := 0; i < 1500; i++ {
			net2.Step()
		}
	}
}

func TestMINAlwaysMinimal(t *testing.T) {
	d := testDF(t)
	m := NewMIN(d)
	net, err := sim.New(d, testCfg(), m, traffic.NewUniformRandom(d.Nodes()))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	checked := 0
	watchEjections(net, func(e metrics.Eject, hops int) {
		checked++
		if !e.Minimal {
			t.Error("MIN produced a non-minimal packet")
		}
		if hops > 3 {
			t.Errorf("MIN packet took %d hops", hops)
		}
	})
	net.SetLoad(0.2)
	for i := 0; i < 1000; i++ {
		net.Step()
	}
	if checked == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestVALAlwaysNonminimalAcrossGroups(t *testing.T) {
	d := testDF(t)
	v := NewVAL(d)
	net, err := sim.New(d, testCfg(), v, traffic.NewWorstCase(d))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	checked := 0
	watchEjections(net, func(e metrics.Eject, hops int) {
		checked++
		if e.Minimal {
			t.Error("VAL produced a minimal packet for cross-group traffic")
		}
		if hops > 5 {
			t.Errorf("VAL packet took %d hops, want <= 5", hops)
		}
	})
	net.SetLoad(0.2)
	for i := 0; i < 1000; i++ {
		net.Step()
	}
	if checked == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestUGALModeNames(t *testing.T) {
	d := testDF(t)
	cases := map[string]sim.Routing{
		"MIN":        NewMIN(d),
		"VAL":        NewVAL(d),
		"UGAL-L":     NewUGAL(d, UGALLocal),
		"UGAL-G":     NewUGAL(d, UGALGlobal),
		"UGAL-L_VC":  NewUGAL(d, UGALLocalVC),
		"UGAL-L_VCH": NewUGAL(d, UGALLocalVCH),
		"UGAL-L_CR":  NewUGALCR(d),
	}
	for want, alg := range cases {
		if alg.Name() != want {
			t.Errorf("Name() = %q, want %q", alg.Name(), want)
		}
	}
	if !NewUGALCR(d).CreditRT {
		t.Error("UGAL-L_CR must request the credit-delay mechanism")
	}
	if NewUGAL(d, UGALLocalVCH).CreditRT {
		t.Error("UGAL-L_VCH must not request the credit-delay mechanism")
	}
}

func TestHopCountsMatchPaths(t *testing.T) {
	// pathHops (the H_m, H_nm of the decision rule) must equal the hops
	// the packet actually takes when routed that way.
	d := testDF(t)
	b := newBase(d)
	ps := b.pairSlots()
	f := func(srcRaw, dstRaw uint16, seed uint64) bool {
		src := int(srcRaw) % d.Nodes()
		dst := int(dstRaw) % d.Nodes()
		rs, rd := d.TerminalRouter(src), d.TerminalRouter(dst)
		if rs == rd {
			return true
		}
		gd, dIdx := rd/d.A, rd%d.A
		_, _, slot, err := b.hop(ps, b.at(rs), dIdx, gd, true, seed)
		if err != nil {
			return false
		}
		hm := b.pathHops(ps, b.at(rs), slot, gd, dIdx, gd, seed)
		// Walk the minimal path manually using hop().
		hops := 0
		cur := rs
		for cur != rd {
			port, _, _, err := b.hop(ps, b.at(cur), dIdx, gd, true, seed)
			if err != nil {
				return false
			}
			pt := d.Port(cur, port)
			if pt.Class == topology.ClassTerminal {
				return false
			}
			cur = pt.PeerRouter
			hops++
			if hops > 3 {
				return false
			}
		}
		return hops == hm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNonminimalHopsWithinBounds(t *testing.T) {
	d := testDF(t)
	b := newBase(d)
	ps := b.pairSlots()
	f := func(srcRaw, dstRaw uint16, giRaw uint8, seed uint64) bool {
		src := int(srcRaw) % d.Routers()
		dst := int(dstRaw) % d.Routers()
		gi := int(giRaw) % d.G
		if src == dst {
			return true
		}
		at := b.at(src)
		gd, dIdx := dst/d.A, dst%d.A
		tg, phase1 := gi, false
		if gi == at.grp {
			// An intermediate group equal to the source group degenerates
			// to the minimal path.
			tg, phase1 = gd, true
		}
		_, _, slot, err := b.hop(ps, at, dIdx, tg, phase1, seed)
		if err != nil {
			return false
		}
		h := b.pathHops(ps, at, slot, gd, dIdx, tg, seed)
		return h >= 1 && h <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPickInterGroupExcludesSource(t *testing.T) {
	d := testDF(t)
	b := newBase(d)
	f := func(gsRaw uint8, seed uint64) bool {
		gs := int(gsRaw) % d.G
		gi := b.pickInterGroup(gs, seed)
		return gi != gs && gi >= 0 && gi < d.G
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPickInterGroupCoversAllGroups(t *testing.T) {
	d := testDF(t)
	b := newBase(d)
	seen := make(map[int]bool)
	for s := uint64(0); s < 2000; s++ {
		seen[b.pickInterGroup(0, sim.Mix(s))] = true
	}
	if len(seen) != d.G-1 {
		t.Errorf("intermediate groups covered: %d, want %d", len(seen), d.G-1)
	}
}

func TestChooseSlotDeterministicPerPacket(t *testing.T) {
	// Decide-time congestion queries must inspect the same slot NextHop
	// later uses, which requires determinism in (seed, group) alone.
	d, err := topology.NewDragonfly(2, 4, 2, 5) // multiple channels per pair
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	b := newBase(d)
	for seed := uint64(0); seed < 200; seed++ {
		a := int(b.chooseSlot(b.pairSlots(), 1, 3, seed).Slot)
		if int(b.chooseSlot(b.pairSlots(), 1, 3, seed).Slot) != a {
			t.Fatal("chooseSlot not deterministic")
		}
		if s := b.tab.Slot(1, a); d.Port(d.A+int(s.Owner), int(s.Port)).PeerRouter/d.A != 3 {
			t.Fatalf("chooseSlot returned slot %d not leading to group 3", a)
		}
	}
}

func TestChooseSlotSpreadsOverParallelChannels(t *testing.T) {
	d, err := topology.NewDragonfly(2, 4, 2, 3) // ah=8 slots over 2 peers: 4 channels per pair
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	b := newBase(d)
	n := b.pairSlots().Count(0, 1)
	if n < 2 {
		t.Fatalf("expected parallel channels, got %d", n)
	}
	counts := map[int]int{}
	for s := uint64(0); s < 4000; s++ {
		counts[int(b.chooseSlot(b.pairSlots(), 0, 1, sim.Mix(s)).Slot)]++
	}
	if len(counts) != n {
		t.Errorf("slot choice covered %d of %d parallel channels", len(counts), n)
	}
	for slot, c := range counts {
		if c < 4000/n/2 {
			t.Errorf("slot %d underused: %d of 4000", slot, c)
		}
	}
}
