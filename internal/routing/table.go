package routing

import (
	"fmt"

	"dragonfly/internal/topology"
)

// pathTable is the minimal-path oracle of one machine compiled into
// flat arrays. Every hop and every source decision reads these arrays
// instead of composing paths from Topo calls; newBase builds the table
// once, and it is immutable afterwards, so shards read it concurrently.
//
// Router ids are group-major (router r = grp*a + idx), which the
// builder checks; a router id is therefore recovered from its group and
// in-group index without a table.
type pathTable struct {
	groups int
	a      int // routers per group

	routers []routerLoc // router → (group, in-group index)
	terms   []termLoc   // terminal → (router, port)

	// localRoute[from*a+to] and localHops[from*a+to] are the a×a
	// LocalRoute and LocalHops grids over in-group indices.
	localRoute []int32
	localHops  []int32

	// pairs lists every ordered group pair's global-channel slots in
	// GlobalSlot order.
	pairs topology.PairSlots

	// slots[grp*slotStride+slot] locates slot of group grp; entries of
	// slot ids no pair uses are noSlot.
	slotStride int
	slots      []slotInfo
}

// routerLoc is a router's group and in-group index.
type routerLoc struct{ grp, idx int32 }

// termLoc locates a terminal: the group and in-group index of its
// router, and its port there, so a packet's destination resolves in one
// load.
type termLoc struct{ grp, idx, port int32 }

// slotInfo locates one global-channel slot of one group: the slot id,
// the in-group index of the router owning it, its port on that router,
// and the in-group index of the router it enters in the group it leads
// to.
type slotInfo struct {
	slot, owner, port, entry int32
}

// noSlot marks the absence of a slot: slot ids no group pair uses, an
// intra-group path, or a pair with no surviving channel.
var noSlot = slotInfo{slot: -1, owner: -1, port: -1, entry: -1}

// newPathTable compiles t's oracle into a pathTable. It panics if the
// machine's router numbering is not group-major, a construction bug of
// the topology.
func newPathTable(t Topo) pathTable {
	g, a := t.Groups(), t.RoutersPerGroup()
	tb := pathTable{
		groups:     g,
		a:          a,
		routers:    make([]routerLoc, g*a),
		terms:      make([]termLoc, t.Terminals()),
		localRoute: make([]int32, a*a),
		localHops:  make([]int32, a*a),
		pairs:      topology.NewPairSlots(t, nil),
	}
	for r := range tb.routers {
		grp, idx := t.RouterGroup(r), t.RouterIndex(r)
		if t.GroupRouter(grp, idx) != r || r != grp*a+idx {
			panic(fmt.Sprintf("routing: router %d is not numbered group-major", r))
		}
		tb.routers[r] = routerLoc{grp: int32(grp), idx: int32(idx)}
	}
	for term := range tb.terms {
		l := tb.routers[t.TerminalRouter(term)]
		tb.terms[term] = termLoc{grp: l.grp, idx: l.idx, port: int32(t.TerminalPort(term))}
	}
	for from := 0; from < a; from++ {
		for to := 0; to < a; to++ {
			tb.localRoute[from*a+to] = int32(t.LocalRoute(from, to))
			tb.localHops[from*a+to] = int32(t.LocalHops(from, to))
		}
	}
	for _, slot := range tb.pairs.Slots {
		if int(slot) >= tb.slotStride {
			tb.slotStride = int(slot) + 1
		}
	}
	tb.slots = make([]slotInfo, g*tb.slotStride)
	for i := range tb.slots {
		tb.slots[i] = noSlot
	}
	for grp := 0; grp < g; grp++ {
		for dst := 0; dst < g; dst++ {
			for _, slot := range tb.pairs.Pair(grp, dst) {
				s := int(slot)
				tb.slots[grp*tb.slotStride+s] = slotInfo{
					slot:  int32(s),
					owner: int32(t.SlotRouterIndex(s)),
					port:  int32(t.GlobalPort(s)),
					entry: int32(t.RouterIndex(t.GlobalEntryRouter(grp, dst, s))),
				}
			}
		}
	}
	return tb
}

// route returns LocalRoute(from, to).
func (tb *pathTable) route(from, to int) int { return int(tb.localRoute[from*tb.a+to]) }

// hops returns LocalHops(from, to).
func (tb *pathTable) hops(from, to int) int { return int(tb.localHops[from*tb.a+to]) }

// slot returns the location of slot s of group grp.
func (tb *pathTable) slot(grp, s int) slotInfo { return tb.slots[grp*tb.slotStride+s] }

// dest resolves terminal term: its location and its router's id.
func (tb *pathTable) dest(term int) (termLoc, int) {
	l := tb.terms[term]
	return l, int(l.grp)*tb.a + int(l.idx)
}

// pos is a router resolved through the path table: its id, group and
// in-group index.
type pos struct{ id, grp, idx int }

// at resolves router r.
func (tb *pathTable) at(r int) pos {
	l := tb.routers[r]
	return pos{r, int(l.grp), int(l.idx)}
}
