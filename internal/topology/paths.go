package topology

import "fmt"

// PathTable is the minimal-path structure of one machine in flat
// arrays: where every router and terminal sits in the group structure,
// the in-group next hop and distance between any two routers of a
// group, and every global channel of every ordered group pair. It is
// derived from the wiring alone (newPathTable), once, by the family's
// constructor, and is immutable afterwards, so any number of routing
// instances and shards read it concurrently. Routing copies the table
// by value and reads it on every hop; the shard partitioner, the
// group-relative traffic patterns and Degraded's live-slot filter read
// it too.
//
// Router ids are group-major: router r is in-group index r%a of group
// r/a, where a is RoutersPerGroup, and each group's terminals are one
// contiguous id range. The builder checks both.
type PathTable struct {
	groups int
	a      int // routers per group

	routers []RouterLoc // router → (group, in-group index)
	terms   []TermLoc   // terminal → (group, in-group index, port)

	// localRoute[from*a+to] is the next-hop local port from in-group
	// index from towards to (-1 when from == to); localHops[from*a+to]
	// the number of local hops that route takes.
	localRoute []int32
	localHops  []int32

	// pairs lists every ordered group pair's global-channel slots.
	pairs PairSlots

	// slots[grp*slotStride+slot] locates slot of group grp; entries of
	// slot ids the group does not have are NoSlot.
	slotStride int
	slots      []SlotInfo
}

// RouterLoc is a router's group and in-group index.
type RouterLoc struct{ Grp, Idx int32 }

// TermLoc locates a terminal: the group and in-group index of its
// router, and its port there, so a packet's destination resolves in one
// load.
type TermLoc struct{ Grp, Idx, Port int32 }

// SlotInfo locates one global-channel slot of one group: the slot id,
// the in-group index of the router owning it, its port on that router,
// and the in-group index of the router it enters in the group it leads
// to.
type SlotInfo struct{ Slot, Owner, Port, Entry int32 }

// NoSlot marks the absence of a slot: an intra-group path, or a pair
// with no surviving channel.
var NoSlot = SlotInfo{Slot: -1, Owner: -1, Port: -1, Entry: -1}

// PairSlots lists global-channel slots per ordered group pair in one
// flat array: the slots from group ga to group gb are
// Slots[Start[ga*Groups+gb]:Start[ga*Groups+gb+1]], in ascending slot
// order; a group's pair with itself is empty. The path table keeps the
// pristine wiring in this layout and a Degraded view its surviving
// slots, so routing reads both the same way on every hop. A PairSlots
// is immutable once built.
type PairSlots struct {
	Groups int
	Start  []int32
	Slots  []int32
}

// Count returns the number of slots from group ga to group gb.
func (ps *PairSlots) Count(ga, gb int) int {
	i := ga*ps.Groups + gb
	return int(ps.Start[i+1] - ps.Start[i])
}

// newPathTable validates the wiring w and derives its path table: w
// has groups groups of a routers each, numbered group-major, and route
// is the family's in-group routing policy, the next-hop local port from
// in-group index from towards to (-1 when from == to).
//
// A group's global-channel slots are its global ports, numbered in
// (in-group index, port) order; each slot is filed under the group its
// peer router belongs to, with entry = the peer's in-group index. The
// hop grid comes from walking route over group 0's wiring. An error
// means the builder broke the wiring or an invariant routing relies
// on: the numbering is not group-major, a route does not reach its target
// over local channels, or a pair of groups has no direct channel.
func newPathTable(w *Graph, groups, a int, route func(from, to int) int) (*PathTable, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if groups < 1 || a < 1 || w.Routers() != groups*a || w.Terminals()%groups != 0 {
		return nil, fmt.Errorf("path table: %d routers and %d terminals do not form %d groups of %d routers",
			w.Routers(), w.Terminals(), groups, a)
	}
	t := &PathTable{
		groups:     groups,
		a:          a,
		routers:    make([]RouterLoc, groups*a),
		terms:      make([]TermLoc, w.Terminals()),
		localRoute: make([]int32, a*a),
		localHops:  make([]int32, a*a),
		pairs:      PairSlots{Groups: groups, Start: make([]int32, groups*groups+1)},
	}
	for r := range t.routers {
		t.routers[r] = RouterLoc{Grp: int32(r / a), Idx: int32(r % a)}
	}
	perGroup := w.Terminals() / groups
	for term := range t.terms {
		r := w.TerminalRouter(term)
		if r/a != term/perGroup {
			return nil, fmt.Errorf("path table: terminal %d sits in group %d, outside its group's contiguous range", term, r/a)
		}
		t.terms[term] = TermLoc{Grp: int32(r / a), Idx: int32(r % a), Port: int32(w.TerminalPort(term))}
	}
	for from := 0; from < a; from++ {
		if p := route(from, from); p != -1 {
			return nil, fmt.Errorf("path table: local route %d -> %d is port %d, want -1", from, from, p)
		}
		for to := 0; to < a; to++ {
			hops, err := walkLocal(w, a, route, from, to)
			if err != nil {
				return nil, err
			}
			t.localRoute[from*a+to] = int32(route(from, to))
			t.localHops[from*a+to] = int32(hops)
		}
	}
	if err := t.fileSlots(w); err != nil {
		return nil, err
	}
	return t, nil
}

// walkLocal follows route from in-group index from to to over group
// 0's local channels and returns the hop count.
func walkLocal(w *Graph, a int, route func(from, to int) int, from, to int) (int, error) {
	hops := 0
	for cur := from; cur != to; hops++ {
		p := route(cur, to)
		if hops >= a || p < 0 || p >= w.Radix(cur) {
			return 0, fmt.Errorf("path table: local route %d -> %d does not converge (port %d at index %d)", from, to, p, cur)
		}
		pt := w.Port(cur, p)
		if pt.Class != ClassLocal || pt.PeerRouter >= a {
			return 0, fmt.Errorf("path table: local route %d -> %d leaves the group at router %d port %d", from, to, cur, p)
		}
		cur = pt.PeerRouter
	}
	return hops, nil
}

// fileSlots numbers every group's global ports and files them under
// their ordered group pairs.
func (t *PathTable) fileSlots(w *Graph) error {
	g, a := t.groups, t.a
	start := t.pairs.Start
	perGroup := make([]int, g)
	for r := 0; r < w.Routers(); r++ {
		grp := r / a
		for p := 0; p < w.Radix(r); p++ {
			pt := w.Port(r, p)
			if pt.Class == ClassTerminal {
				continue
			}
			if (pt.PeerRouter/a == grp) != (pt.Class == ClassLocal) {
				return fmt.Errorf("path table: %v channel at router %d port %d reaches router %d, against group-major numbering",
					pt.Class, r, p, pt.PeerRouter)
			}
			if pt.Class == ClassGlobal {
				start[grp*g+pt.PeerRouter/a+1]++
				perGroup[grp]++
			}
		}
	}
	for i := 1; i < len(start); i++ {
		if ga, gb := (i-1)/g, (i-1)%g; ga != gb && start[i] == 0 {
			return fmt.Errorf("path table: groups %d and %d share no global channel", ga, gb)
		}
		start[i] += start[i-1]
	}
	for _, n := range perGroup {
		t.slotStride = max(t.slotStride, n)
	}
	t.pairs.Slots = make([]int32, start[len(start)-1])
	t.slots = make([]SlotInfo, g*t.slotStride)
	for i := range t.slots {
		t.slots[i] = NoSlot
	}
	next := append([]int32(nil), start[:g*g]...)
	for grp := 0; grp < g; grp++ {
		slot := int32(0)
		for idx := 0; idx < a; idx++ {
			r := grp*a + idx
			for p := 0; p < w.Radix(r); p++ {
				pt := w.Port(r, p)
				if pt.Class != ClassGlobal {
					continue
				}
				k := grp*g + pt.PeerRouter/a
				t.pairs.Slots[next[k]] = slot
				next[k]++
				t.slots[grp*t.slotStride+int(slot)] = SlotInfo{
					Slot: slot, Owner: int32(idx), Port: int32(p), Entry: int32(pt.PeerRouter % a),
				}
				slot++
			}
		}
	}
	return nil
}

// livePairs returns the pairs' slots whose channel alive accepts, given
// the owning router and port, in the same order.
func (t *PathTable) livePairs(alive func(router, port int) bool) PairSlots {
	g := t.groups
	ps := PairSlots{Groups: g, Start: make([]int32, g*g+1)}
	for i := 0; i < g*g; i++ {
		grp := i / g
		for _, s := range t.pairs.Slots[t.pairs.Start[i]:t.pairs.Start[i+1]] {
			si := t.Slot(grp, int(s))
			if alive(grp*t.a+int(si.Owner), int(si.Port)) {
				ps.Slots = append(ps.Slots, s)
			}
		}
		ps.Start[i+1] = int32(len(ps.Slots))
	}
	return ps
}

// Groups returns the group count.
func (t *PathTable) Groups() int { return t.groups }

// RoutersPerGroup returns the routers per group.
func (t *PathTable) RoutersPerGroup() int { return t.a }

// TerminalsPerGroup returns the terminals attached to each group.
func (t *PathTable) TerminalsPerGroup() int { return len(t.terms) / t.groups }

// Router returns router r's group and in-group index.
func (t *PathTable) Router(r int) RouterLoc { return t.routers[r] }

// Terminal locates terminal term.
func (t *PathTable) Terminal(term int) TermLoc { return t.terms[term] }

// Route returns the next-hop local port from in-group index from
// towards to, -1 when from == to.
func (t *PathTable) Route(from, to int) int { return int(t.localRoute[from*t.a+to]) }

// Hops returns the number of local hops Route takes from in-group
// index from to to.
func (t *PathTable) Hops(from, to int) int { return int(t.localHops[from*t.a+to]) }

// Slot returns the location of slot s of group grp.
func (t *PathTable) Slot(grp, s int) SlotInfo { return t.slots[grp*t.slotStride+s] }

// Pairs returns the global-channel slots of every ordered group pair.
func (t *PathTable) Pairs() *PairSlots { return &t.pairs }
