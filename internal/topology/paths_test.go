package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// wiredSlots walks m's wiring the way slots are numbered: per group,
// the global ports by in-group index, then port. It returns each
// group's slots in id order and the group each one leads to.
func wiredSlots(m Machine, groups, a int) (slots [][]SlotInfo, dst [][]int) {
	slots, dst = make([][]SlotInfo, groups), make([][]int, groups)
	for r := 0; r < m.Routers(); r++ {
		grp := r / a
		for p := 0; p < m.Radix(r); p++ {
			if pt := m.Port(r, p); pt.Class == ClassGlobal {
				id := int32(len(slots[grp]))
				slots[grp] = append(slots[grp], SlotInfo{Slot: id, Owner: int32(r % a), Port: int32(p), Entry: int32(pt.PeerRouter % a)})
				dst[grp] = append(dst[grp], pt.PeerRouter/a)
			}
		}
	}
	return slots, dst
}

// pairMismatch checks ps's layout and compares every ordered pair's
// slots with the wiring's slots from ga into gb that keep accepts. It
// returns the first disagreement, "" when none.
func pairMismatch(ps *PairSlots, m Machine, keep func(grp int, s SlotInfo) bool) string {
	desc := m.Describe()
	g := desc.Groups
	slots, dst := wiredSlots(m, g, desc.RoutersPerGroup)
	if ps.Groups != g || len(ps.Start) != g*g+1 || ps.Start[0] != 0 || int(ps.Start[g*g]) != len(ps.Slots) {
		return fmt.Sprintf("pair table for %d groups (%d offsets, %d slots) does not frame %d groups", ps.Groups, len(ps.Start), len(ps.Slots), g)
	}
	for i := 1; i < len(ps.Start); i++ {
		if ps.Start[i] < ps.Start[i-1] {
			return fmt.Sprintf("pair table offset %d decreases", i)
		}
	}
	for ga := 0; ga < g; ga++ {
		for gb := 0; gb < g; gb++ {
			got, n := ps.pair(ga, gb), 0
			for s, to := range dst[ga] {
				if to != gb || !keep(ga, slots[ga][s]) {
					continue
				}
				if n >= len(got) || got[n] != int32(s) {
					return fmt.Sprintf("pair (%d,%d): slots %v, want slot %d at position %d", ga, gb, got, s, n)
				}
				n++
			}
			if n != len(got) {
				return fmt.Sprintf("pair (%d,%d): %d slots, want %d", ga, gb, len(got), n)
			}
		}
	}
	return ""
}

// tableMismatch compares every entry of tb with what m's wiring, its
// descriptor and its family's local routing policy say, and returns the
// first disagreement, "" when none.
func tableMismatch(tb *PathTable, m Machine) string {
	desc := m.Describe()
	g, a := desc.Groups, desc.RoutersPerGroup
	if tb.groups != g || tb.a != a {
		return fmt.Sprintf("table sized %d groups of %d, want %d of %d", tb.groups, tb.a, g, a)
	}
	if len(tb.routers) != m.Routers() {
		return fmt.Sprintf("%d routers, want %d", len(tb.routers), m.Routers())
	}
	for r, l := range tb.routers {
		if l != (RouterLoc{Grp: int32(r / a), Idx: int32(r % a)}) {
			return fmt.Sprintf("router %d at %+v, want group-major", r, l)
		}
	}
	if len(tb.terms) != m.Terminals() || tb.TerminalsPerGroup() != desc.TerminalsPerGroup {
		return fmt.Sprintf("%d terminals, want %d", len(tb.terms), m.Terminals())
	}
	for term, l := range tb.terms {
		r := m.TerminalRouter(term)
		if l != (TermLoc{Grp: int32(r / a), Idx: int32(r % a), Port: int32(m.TerminalPort(term))}) {
			return fmt.Sprintf("terminal %d at %+v, want router %d port %d", term, l, r, m.TerminalPort(term))
		}
	}
	route := localRouteOf(m)
	if len(tb.localRoute) != a*a || len(tb.localHops) != a*a {
		return "local grids are not a×a"
	}
	for from := 0; from < a; from++ {
		dist := groupDistances(m, a, from)
		for to := 0; to < a; to++ {
			if tb.Route(from, to) != route(from, to) || tb.Hops(from, to) != dist[to] {
				return fmt.Sprintf("local (%d,%d): route %d hops %d, want %d %d", from, to,
					tb.Route(from, to), tb.Hops(from, to), route(from, to), dist[to])
			}
		}
	}
	if msg := pairMismatch(&tb.pairs, m, func(int, SlotInfo) bool { return true }); msg != "" {
		return "pristine " + msg
	}
	slots, _ := wiredSlots(m, g, a)
	stride := 0
	for _, s := range slots {
		stride = max(stride, len(s))
	}
	if tb.slotStride != stride || len(tb.slots) != g*stride {
		return fmt.Sprintf("slot table stride %d (%d entries), want %d", tb.slotStride, len(tb.slots), stride)
	}
	for grp := 0; grp < g; grp++ {
		for s := 0; s < stride; s++ {
			want := NoSlot
			if s < len(slots[grp]) {
				want = slots[grp][s]
			}
			if got := tb.Slot(grp, s); got != want {
				return fmt.Sprintf("group %d slot %d: %+v, want %+v", grp, s, got, want)
			}
		}
	}
	return ""
}

// localRouteOf returns the local routing policy of m's family.
func localRouteOf(m Machine) func(from, to int) int {
	if v, ok := m.(*Degraded); ok {
		return localRouteOf(v.Machine)
	}
	return m.(interface{ LocalRoute(from, to int) int }).LocalRoute
}

// groupDistances returns the local-hop distances from in-group index
// from to every router of group 0, by breadth-first search over the
// group's local channels: every family's local route is a shortest one.
func groupDistances(m Machine, a, from int) []int {
	dist := make([]int, a)
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	for queue := []int{from}; len(queue) > 0; queue = queue[1:] {
		r := queue[0]
		for p := 0; p < m.Radix(r); p++ {
			if pt := m.Port(r, p); pt.Class == ClassLocal && dist[pt.PeerRouter] < 0 {
				dist[pt.PeerRouter] = dist[r] + 1
				queue = append(queue, pt.PeerRouter)
			}
		}
	}
	return dist
}

// liveMismatch compares v's live-slot table with the wiring's slots
// filtered through Alive.
func liveMismatch(v interface {
	Machine
	Alive(router, port int) bool
	LiveSlots() *PairSlots
}) string {
	a := v.Paths().RoutersPerGroup()
	alive := func(grp int, s SlotInfo) bool { return v.Alive(grp*a+int(s.Owner), int(s.Port)) }
	if msg := pairMismatch(v.LiveSlots(), v, alive); msg != "" {
		return "live " + msg
	}
	return ""
}

// tableDigest hashes a table's content: router and terminal locations,
// the route and hop grids, and each ordered pair's (owner, port, entry)
// list in order. Slot ids are left out: they are names, not content.
func tableDigest(tb *PathTable) string {
	h := sha256.New()
	var buf [4]byte
	w := func(vs ...int) {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(buf[:], uint32(int32(v)))
			h.Write(buf[:])
		}
	}
	w(tb.groups, tb.a, len(tb.routers), len(tb.terms))
	for _, l := range tb.routers {
		w(int(l.Grp), int(l.Idx))
	}
	for _, l := range tb.terms {
		w(int(l.Grp), int(l.Idx), int(l.Port))
	}
	for i := range tb.localRoute {
		w(int(tb.localRoute[i]), int(tb.localHops[i]))
	}
	for ga := 0; ga < tb.groups; ga++ {
		for gb := 0; gb < tb.groups; gb++ {
			list := tb.pairs.pair(ga, gb)
			w(len(list))
			for _, s := range list {
				si := tb.Slot(ga, int(s))
				w(int(si.Owner), int(si.Port), int(si.Entry))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// pathTableGoldens pins each config's table digest. The values were
// computed from the routing layer's compile step over the per-family
// slot oracle (GlobalSlot, SlotRouterIndex, GlobalPort,
// GlobalEntryRouter, LocalRoute, LocalHops) before that oracle was
// replaced by the derivation from the wiring, so they hold the derived
// tables to the oracle's paths. The configs are every family's registry
// default and conformance size, dragonflies whose group count leaves a
// circulant remainder layer (g = 6, 8, 20), a single-group dragonfly,
// and one with port and slot ids past the int16 range.
var pathTableGoldens = []struct {
	name   string
	family string
	params map[string]int
	digest string
}{
	{"default/dragonfly", "dragonfly", nil, "3b685c4b6bed8ec7"},
	{"default/dragonflyfb", "dragonflyfb", nil, "25a41dca56886494"},
	{"default/dragonflyplus", "dragonflyplus", nil, "38b2dd75af0cb21c"},
	{"default/swapped", "swapped", nil, "089d8df65c8ca2d4"},
	{"default/aries", "aries", nil, "442ee8f22be4f346"},
	{"small/dragonfly", "dragonfly", conformanceSpecs["dragonfly"], "20d3ee8abb13e6be"},
	{"small/dragonflyfb", "dragonflyfb", conformanceSpecs["dragonflyfb"], "ba3dc911386fa294"},
	{"small/dragonflyplus", "dragonflyplus", conformanceSpecs["dragonflyplus"], "aac64a04f7e7e5fe"},
	{"small/swapped", "swapped", conformanceSpecs["swapped"], "d2c6fd498f112b35"},
	{"small/aries", "aries", conformanceSpecs["aries"], "e29f58e9fd8dadc4"},
	{"dragonfly/g6", "dragonfly", map[string]int{"p": 2, "a": 4, "h": 2, "g": 6}, "51245959079fd5d5"},
	{"dragonfly/g8", "dragonfly", map[string]int{"p": 2, "a": 4, "h": 2, "g": 8}, "f88e436ead1a599c"},
	{"dragonfly/g20", "dragonfly", map[string]int{"p": 4, "a": 8, "h": 4, "g": 20}, "c930d44af759b909"},
	{"dragonfly/g1", "dragonfly", map[string]int{"p": 2, "a": 4, "h": 2, "g": 1}, "d59793262bf0b6e4"},
	{"dragonfly/wide", "dragonfly", map[string]int{"p": 1, "a": 200, "h": 200, "g": 2}, "d50c498166327caf"},
}

// TestPathTableGolden checks every config's derived table entry by
// entry against its wiring and pins its content digest; it also checks
// the live-slot tables of a degraded view and of a switched view
// before and after an epoch swap.
func TestPathTableGolden(t *testing.T) {
	for _, c := range pathTableGoldens {
		m, err := Build(c.family, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tb := m.Paths()
		if msg := tableMismatch(tb, m); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
		if got := tableDigest(tb); got != c.digest {
			t.Errorf("%s: table digest %s, want %s", c.name, got, c.digest)
		}
		dg := degradedView(m, 3)
		if dg.Paths() != tb {
			t.Errorf("%s: the degraded view does not share the machine's table", c.name)
		}
		if msg := liveMismatch(dg); msg != "" {
			t.Errorf("%s degraded: %s", c.name, msg)
		}
		sw := NewSwitched(m)
		if msg := liveMismatch(sw); msg != "" {
			t.Errorf("%s switched (all alive): %s", c.name, msg)
		}
		sw.SetEpoch(degradedView(m, 4))
		if msg := liveMismatch(sw); msg != "" {
			t.Errorf("%s switched after SetEpoch: %s", c.name, msg)
		}
	}
}

// degradedView fails every tenth global port, starting with the
// seed-th, and one router.
func degradedView(m Machine, seed int) *Degraded {
	ff := fakeFault{routers: map[int]bool{m.Routers() / 2: true}, ports: map[[2]int]bool{}}
	n := 0
	for r := 0; r < m.Routers(); r++ {
		for p := 0; p < m.Radix(r); p++ {
			if m.Port(r, p).Class == ClassGlobal {
				if n%10 == seed {
					ff.ports[[2]int{r, p}] = true
				}
				n++
			}
		}
	}
	return NewDegraded(m, ff)
}

// tableEntries calls f once per entry of tb with functions that perturb
// the entry and restore it.
func tableEntries(tb *PathTable, f func(name string, perturb, restore func())) {
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
		i32(fmt.Sprintf("routers[%d].Grp", i), &tb.routers[i].Grp)
		i32(fmt.Sprintf("routers[%d].Idx", i), &tb.routers[i].Idx)
	}
	for i := range tb.terms {
		i32(fmt.Sprintf("terms[%d].Grp", i), &tb.terms[i].Grp)
		i32(fmt.Sprintf("terms[%d].Idx", i), &tb.terms[i].Idx)
		i32(fmt.Sprintf("terms[%d].Port", i), &tb.terms[i].Port)
	}
	for i := range tb.localRoute {
		i32(fmt.Sprintf("localRoute[%d]", i), &tb.localRoute[i])
		i32(fmt.Sprintf("localHops[%d]", i), &tb.localHops[i])
	}
	pairEntries(&tb.pairs, "pairs", f)
	for i := range tb.slots {
		s := &tb.slots[i]
		name := fmt.Sprintf("slots[%d]", i)
		i32(name+".Slot", &s.Slot)
		i32(name+".Owner", &s.Owner)
		i32(name+".Port", &s.Port)
		i32(name+".Entry", &s.Entry)
	}
}

// pairEntries is tableEntries for a pair-slot table.
func pairEntries(ps *PairSlots, prefix string, f func(name string, perturb, restore func())) {
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

// TestPathTableCheckCatchesPerturbation proves the entry-by-entry check
// above is exhaustive: perturbing any single entry of a derived table,
// or of a degraded view's live-slot table, makes it report a mismatch.
func TestPathTableCheckCatchesPerturbation(t *testing.T) {
	d, err := NewDragonfly(2, 4, 2, 6) // one or two channels per pair
	if err != nil {
		t.Fatal(err)
	}
	dg := degradedView(d, 3)
	tb := d.Paths()
	if msg := tableMismatch(tb, d); msg != "" {
		t.Fatalf("unperturbed table: %s", msg)
	}
	n := 0
	tableEntries(tb, func(name string, perturb, restore func()) {
		n++
		perturb()
		if tableMismatch(tb, d) == "" {
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

// pathTableSink keeps BenchmarkPathTableBuild's result live.
var pathTableSink *PathTable

// BenchmarkPathTableBuild times the derivation of the path table from
// the wiring on the paper's 1K machine (p=4 a=8 h=4) and the 16K
// machine (p=8 a=16 h=8):
//
//	go test -run '^$' -bench PathTableBuild -benchtime 2s ./internal/topology/
func BenchmarkPathTableBuild(b *testing.B) {
	for _, size := range []struct {
		name    string
		p, a, h int
	}{{"1k", 4, 8, 4}, {"16k", 8, 16, 8}} {
		d, err := NewDragonfly(size.p, size.a, size.h, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if pathTableSink, err = newPathTable(d.Graph, d.G, d.A, d.LocalRoute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// pair returns the slots from group ga to group gb.
func (ps *PairSlots) pair(ga, gb int) []int32 {
	i := ga*ps.Groups + gb
	return ps.Slots[ps.Start[i]:ps.Start[i+1]]
}
