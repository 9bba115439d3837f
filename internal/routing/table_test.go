package routing

import (
	"fmt"
	"testing"

	"dragonfly/internal/fault"
	"dragonfly/internal/topology"
)

// liveOracle is a fault view: liveness per channel end, and the
// live-slot table derived from it.
type liveOracle interface {
	Topo
	Alive(router, port int) bool
	LiveSlots() *topology.PairSlots
}

// pairMismatch checks ps's layout and compares every pair's slot list
// with want(ga, gb). It returns the first disagreement, "" when none.
func pairMismatch(ps *topology.PairSlots, groups int, want func(ga, gb int) []int) string {
	if ps.Groups != groups {
		return fmt.Sprintf("pair table for %d groups, want %d", ps.Groups, groups)
	}
	if len(ps.Start) != groups*groups+1 || ps.Start[0] != 0 || int(ps.Start[len(ps.Start)-1]) != len(ps.Slots) {
		return "pair table offsets do not frame the slot array"
	}
	for i := 1; i < len(ps.Start); i++ {
		if ps.Start[i] < ps.Start[i-1] {
			return fmt.Sprintf("pair table offset %d decreases", i)
		}
	}
	for ga := 0; ga < groups; ga++ {
		for gb := 0; gb < groups; gb++ {
			got, exp := ps.Pair(ga, gb), want(ga, gb)
			if len(got) != len(exp) {
				return fmt.Sprintf("pair (%d,%d): %d slots, want %d", ga, gb, len(got), len(exp))
			}
			for m := range got {
				if int(got[m]) != exp[m] {
					return fmt.Sprintf("pair (%d,%d) slot %d: %d, want %d", ga, gb, m, got[m], exp[m])
				}
			}
		}
	}
	return ""
}

// tableMismatch compares every entry of tb with the Topo call it
// replaces and returns the first disagreement, "" when none.
func tableMismatch(tb *pathTable, t Topo) string {
	g, a := t.Groups(), t.RoutersPerGroup()
	if tb.groups != g || tb.a != a {
		return fmt.Sprintf("table sized %d groups of %d, want %d of %d", tb.groups, tb.a, g, a)
	}
	if len(tb.routers) != g*a {
		return fmt.Sprintf("%d routers, want %d", len(tb.routers), g*a)
	}
	for r, l := range tb.routers {
		if int(l.grp) != t.RouterGroup(r) || int(l.idx) != t.RouterIndex(r) {
			return fmt.Sprintf("router %d: (%d,%d), want (%d,%d)", r, l.grp, l.idx, t.RouterGroup(r), t.RouterIndex(r))
		}
	}
	if len(tb.terms) != t.Terminals() {
		return fmt.Sprintf("%d terminals, want %d", len(tb.terms), t.Terminals())
	}
	for term, l := range tb.terms {
		r := t.TerminalRouter(term)
		if _, dr := tb.dest(term); dr != r || int(l.port) != t.TerminalPort(term) ||
			int(l.grp) != t.RouterGroup(r) || int(l.idx) != t.RouterIndex(r) {
			return fmt.Sprintf("terminal %d: %+v, want router %d port %d", term, l, r, t.TerminalPort(term))
		}
	}
	if len(tb.localRoute) != a*a || len(tb.localHops) != a*a {
		return "local grids are not a×a"
	}
	for from := 0; from < a; from++ {
		for to := 0; to < a; to++ {
			if tb.route(from, to) != t.LocalRoute(from, to) || tb.hops(from, to) != t.LocalHops(from, to) {
				return fmt.Sprintf("local (%d,%d): route %d hops %d, want %d %d", from, to,
					tb.route(from, to), tb.hops(from, to), t.LocalRoute(from, to), t.LocalHops(from, to))
			}
		}
	}
	wired := func(ga, gb int) []int {
		var out []int
		if ga != gb {
			for m := 0; m < t.ChannelsBetween(ga, gb); m++ {
				out = append(out, t.GlobalSlot(ga, gb, m))
			}
		}
		return out
	}
	if msg := pairMismatch(&tb.pairs, g, wired); msg != "" {
		return "pristine " + msg
	}
	// dstOf[grp][slot] is the group slot of grp leads to.
	stride := 0
	dstOf := make([]map[int]int, g)
	for grp := range dstOf {
		dstOf[grp] = map[int]int{}
		for dst := 0; dst < g; dst++ {
			for _, s := range wired(grp, dst) {
				dstOf[grp][s] = dst
				if s+1 > stride {
					stride = s + 1
				}
			}
		}
	}
	if tb.slotStride != stride || len(tb.slots) != g*stride {
		return fmt.Sprintf("slot table stride %d (%d entries), want %d", tb.slotStride, len(tb.slots), stride)
	}
	for grp := 0; grp < g; grp++ {
		for s := 0; s < stride; s++ {
			want := noSlot
			if dst, ok := dstOf[grp][s]; ok {
				want = slotInfo{
					slot:  int32(s),
					owner: int32(t.SlotRouterIndex(s)),
					port:  int32(t.GlobalPort(s)),
					entry: int32(t.RouterIndex(t.GlobalEntryRouter(grp, dst, s))),
				}
			}
			if got := tb.slot(grp, s); got != want {
				return fmt.Sprintf("group %d slot %d: %+v, want %+v", grp, s, got, want)
			}
		}
	}
	return ""
}

// liveMismatch compares v's live-slot table with a brute-force filter
// of the pristine slot lists through Alive.
func liveMismatch(v liveOracle) string {
	alive := func(ga, gb int) []int {
		var out []int
		if ga != gb {
			for m := 0; m < v.ChannelsBetween(ga, gb); m++ {
				s := v.GlobalSlot(ga, gb, m)
				if v.Alive(v.GroupRouter(ga, v.SlotRouterIndex(s)), v.GlobalPort(s)) {
					out = append(out, s)
				}
			}
		}
		return out
	}
	if msg := pairMismatch(v.LiveSlots(), v.Groups(), alive); msg != "" {
		return "live " + msg
	}
	return ""
}

// tableFamilySpecs are small build parameters for every registered
// topology family.
var tableFamilySpecs = map[string]map[string]int{
	"dragonfly":     {"p": 2, "a": 4, "h": 2},
	"dragonflyfb":   {"p": 2, "d1": 2, "d2": 2, "h": 2},
	"dragonflyplus": {"p": 2, "leaves": 3, "spines": 2, "h": 2},
	"swapped":       {"p": 2, "k": 4, "m": 3},
	"aries":         {"p": 2, "blades": 3, "chassis": 2, "bundle": 2, "h": 2, "g": 4},
}

// degradedView fails 10% of d's global channels (at least one) and one
// router.
func degradedView(t *testing.T, d topology.Machine, seed uint64) *topology.Degraded {
	t.Helper()
	plan := fault.NewPlan(seed)
	if plan.FailFraction(d, topology.ClassGlobal, 0.10) == 0 && plan.FailRandomChannels(d, topology.ClassGlobal, 1) == 0 {
		t.Fatalf("%v: the fault plan failed no global channel", d)
	}
	plan.FailRouter(d.Routers() / 2)
	return topology.NewDegraded(d, plan)
}

// TestPathTableMatchesOracle checks every entry of the compiled path
// table, and of the live-slot tables routing reads under faults,
// against the oracle calls they replace: every registered family,
// dragonflies with one, two and a mix of channels per group pair, a
// degraded view, a machine too wide for 16-bit columns, and a switched
// view before and after an epoch swap.
func TestPathTableMatchesOracle(t *testing.T) {
	machines := map[string]topology.Machine{}
	for _, f := range topology.Families() {
		params, ok := tableFamilySpecs[f.Name]
		if !ok {
			t.Fatalf("family %q has no small test parameters", f.Name)
		}
		m, err := topology.Build(f.Name, params)
		if err != nil {
			t.Fatalf("Build(%s): %v", f.Name, err)
		}
		machines[f.Name] = m
	}
	for _, g := range []int{3, 5, 6} {
		d, err := topology.NewDragonfly(2, 4, 2, g)
		if err != nil {
			t.Fatalf("NewDragonfly(2, 4, 2, %d): %v", g, err)
		}
		machines[fmt.Sprintf("dragonfly-g%d", g)] = d
	}
	// Slot ids and ports past the int16 range: the table must not assume
	// small machines.
	wide, err := topology.NewDragonfly(1, 200, 200, 2)
	if err != nil {
		t.Fatalf("NewDragonfly(1, 200, 200, 2): %v", err)
	}
	machines["dragonfly-wide"] = wide
	for name, m := range machines {
		pristine := newBase(m)
		if msg := tableMismatch(&pristine.tab, m); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
		dg := degradedView(t, m, 3)
		degraded := newBase(dg)
		if msg := tableMismatch(&degraded.tab, dg); msg != "" {
			t.Errorf("%s degraded: %s", name, msg)
		}
		if msg := liveMismatch(dg); msg != "" {
			t.Errorf("%s degraded: %s", name, msg)
		}

		sw := topology.NewSwitched(m)
		b := newBase(sw)
		if msg := tableMismatch(&b.tab, sw); msg != "" {
			t.Errorf("%s switched: %s", name, msg)
		}
		if msg := liveMismatch(sw); msg != "" {
			t.Errorf("%s switched (all alive): %s", name, msg)
		}
		sw.SetEpoch(degradedView(t, m, 4))
		if msg := liveMismatch(sw); msg != "" {
			t.Errorf("%s switched after SetEpoch: %s", name, msg)
		}
		if b.pairSlots() != sw.Epoch().LiveSlots() {
			t.Errorf("%s switched: routing does not read the current epoch's live slots", name)
		}
	}
}

// tableEntries calls f once per entry of tb with functions that perturb
// the entry and restore it.
func tableEntries(tb *pathTable, f func(name string, perturb, restore func())) {
	i32 := func(name string, p *int32) {
		old := *p
		f(name, func() { *p = old + 1 }, func() { *p = old })
	}
	num := func(name string, p *int) {
		old := *p
		f(name, func() { *p = old + 1 }, func() { *p = old })
	}
	num("groups", &tb.groups)
	num("a", &tb.a)
	num("slotStride", &tb.slotStride)
	for i := range tb.routers {
		i32(fmt.Sprintf("routers[%d].grp", i), &tb.routers[i].grp)
		i32(fmt.Sprintf("routers[%d].idx", i), &tb.routers[i].idx)
	}
	for i := range tb.terms {
		i32(fmt.Sprintf("terms[%d].grp", i), &tb.terms[i].grp)
		i32(fmt.Sprintf("terms[%d].idx", i), &tb.terms[i].idx)
		i32(fmt.Sprintf("terms[%d].port", i), &tb.terms[i].port)
	}
	for i := range tb.localRoute {
		i32(fmt.Sprintf("localRoute[%d]", i), &tb.localRoute[i])
		i32(fmt.Sprintf("localHops[%d]", i), &tb.localHops[i])
	}
	pairEntries(&tb.pairs, "pairs", f)
	info := func(name string, p *slotInfo) {
		i32(name+".slot", &p.slot)
		i32(name+".owner", &p.owner)
		i32(name+".port", &p.port)
		i32(name+".entry", &p.entry)
	}
	for i := range tb.slots {
		info(fmt.Sprintf("slots[%d]", i), &tb.slots[i])
	}
}

// pairEntries is tableEntries for a pair-slot table.
func pairEntries(ps *topology.PairSlots, prefix string, f func(name string, perturb, restore func())) {
	old := ps.Groups
	f(prefix+".Groups", func() { ps.Groups = old + 1 }, func() { ps.Groups = old })
	for i := range ps.Start {
		p, v := &ps.Start[i], ps.Start[i]
		f(fmt.Sprintf("%s.Start[%d]", prefix, i), func() { *p = v + 1 }, func() { *p = v })
	}
	for i := range ps.Slots {
		p, v := &ps.Slots[i], ps.Slots[i]
		f(fmt.Sprintf("%s.Slots[%d]", prefix, i), func() { *p = v + 1 }, func() { *p = v })
	}
}

// TestPathTableCheckCatchesPerturbation proves the oracle comparison
// above is exhaustive: perturbing any single entry of a compiled table,
// or of a degraded view's live-slot table, makes it report a mismatch.
func TestPathTableCheckCatchesPerturbation(t *testing.T) {
	d, err := topology.NewDragonfly(2, 4, 2, 6) // one or two channels per pair
	if err != nil {
		t.Fatal(err)
	}
	dg := degradedView(t, d, 3)
	b := newBase(dg)
	tb := &b.tab
	if msg := tableMismatch(tb, dg); msg != "" {
		t.Fatalf("unperturbed table: %s", msg)
	}
	n := 0
	tableEntries(tb, func(name string, perturb, restore func()) {
		n++
		perturb()
		if tableMismatch(tb, dg) == "" {
			t.Errorf("perturbing %s went unnoticed", name)
		}
		restore()
	})
	pairEntries(dg.LiveSlots(), "live", func(name string, perturb, restore func()) {
		n++
		perturb()
		if liveMismatch(dg) == "" {
			t.Errorf("perturbing %s went unnoticed", name)
		}
		restore()
	})
	if msg := liveMismatch(dg); msg != "" {
		t.Fatalf("restored live table: %s", msg)
	}
	if n < 100 {
		t.Fatalf("only %d table entries visited", n)
	}
}
