// Package routing implements the dragonfly routing algorithms of
// Section 4 of the paper:
//
//   - MIN — minimal routing (Section 4.1, three steps).
//   - VAL — Valiant randomized routing over intermediate groups
//     (Section 4.1, five steps).
//   - UGAL-L — universal globally-adaptive load-balanced routing using
//     local queue estimates at the source router.
//   - UGAL-G — the ideal variant with oracle access to the queues of
//     every global channel in the source group.
//   - UGAL-L_VC — queue estimates discriminated by virtual channel
//     (Section 4.3.1).
//   - UGAL-L_VCH — the hybrid: VC discrimination only when the minimal
//     and non-minimal candidates share an output port (Section 4.3.1).
//   - UGAL-L_CR — UGAL-L_VCH on top of the credit round-trip latency
//     mechanism (Section 4.3.2); the mechanism itself lives in
//     internal/sim and is switched on via Config.DelayCredits.
//
// Virtual channels are assigned per Figure 7 to break routing deadlock:
// along any path the (class, VC) level is non-decreasing —
// non-minimal paths use l:VC0 → g:VC0 → l:VC1 → g:VC1 → l:VC2 and
// minimal paths the suffix l:VC1 → g:VC1 → l:VC2. Minimal and
// non-minimal packets therefore use distinct VCs on a shared first local
// hop (VC1 vs. VC0), which is exactly the discrimination UGAL-L_VC
// needs.
package routing

import (
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// VCs is the number of virtual channels the algorithms require
// (Figure 7: two for minimal plus a third for non-minimal routing).
const VCs = 3

// Virtual-channel levels (see the package comment).
const (
	vcPhase0  = 0 // local and global hops towards the intermediate group
	vcPhase1  = 1 // local and global hops towards the destination group
	vcDestHop = 2 // the final local hop inside the destination group
)

// DegradedTopo is the fault-aware view the algorithms need on top of
// topology.Machine. *topology.Degraded and *topology.Switched implement
// it; when a machine handed to a constructor satisfies it, the
// algorithm routes around the dead channels it describes. Unlike the
// path table it is queried on every decision, because a Switched view
// changes under the algorithm at every fault epoch.
type DegradedTopo interface {
	topology.Machine
	// Alive reports whether the channel attached at (router, port) can
	// carry flits.
	Alive(router, port int) bool
	// TerminalDown reports that terminal t is unreachable.
	TerminalDown(t int) bool
	// LiveSlots returns the surviving global-channel slots of every
	// ordered group pair, in the path table's order.
	LiveSlots() *topology.PairSlots
}

// base carries the dragonfly structure all algorithms share: the
// machine's path table, held by value so a hop reads its arrays without
// a pointer hop, plus deg when the machine is a fault-aware degraded
// view (every structural query then consults channel liveness) and sl
// when it spreads parallel local links per packet. Direct local hops
// then spread over the bundle, while hop counts and detours keep using
// the table's Route/Hops grids (every cable of a bundle is one hop).
type base struct {
	tab topology.PathTable
	deg DegradedTopo
	sl  topology.SeededLocal
}

// newBase copies m's path table, detecting a degraded (fault-aware)
// machine and the optional local-bundle capability.
func newBase(m topology.Machine) base {
	b := base{tab: *m.Paths()}
	if d, ok := m.(DegradedTopo); ok {
		b.deg = d
	}
	if s, ok := m.(topology.SeededLocal); ok {
		b.sl = s
	}
	return b
}

// pos is a router resolved through the path table: its id, group and
// in-group index.
type pos struct{ id, grp, idx int }

// at resolves router r.
func (b *base) at(r int) pos {
	l := b.tab.Router(r)
	return pos{r, int(l.Grp), int(l.Idx)}
}

// dest resolves terminal term: its location and its router's id.
func (b *base) dest(term int) (topology.TermLoc, int) {
	l := b.tab.Terminal(term)
	return l, int(l.Grp)*b.tab.RoutersPerGroup() + int(l.Idx)
}

// pairSlots returns the slot lists global-channel choices draw from:
// the current fault epoch's surviving slots on a degraded topology, the
// pristine wiring otherwise. Callers fetch it once per decision or hop.
func (b *base) pairSlots() *topology.PairSlots {
	if b.deg != nil {
		return b.deg.LiveSlots()
	}
	return b.tab.Pairs()
}

// errNoLivePath is the internal marker hop helpers return when the
// fault plan severed every channel the requested hop could use; callers
// holding packet context convert it to *sim.UnroutableError.
var errNoLivePath = &internalNoPathError{}

type internalNoPathError struct{}

func (*internalNoPathError) Error() string { return "routing: no live channel for hop" }

// hop computes the switch request (output port, VC) for a packet at
// router at heading for target group tg, whose destination router has
// in-group index dIdx. phase1 reports whether tg is the packet's final
// destination group. seed drives the deterministic choice among
// parallel global channels, so Decide-time congestion queries inspect
// exactly the channel NextHop will use; s is that choice (NoSlot when
// tg is the packet's current group). It returns errNoLivePath when no
// live channel can make progress.
func (b *base) hop(ps *topology.PairSlots, at pos, dIdx, tg int, phase1 bool, seed uint64) (port, vc int, s topology.SlotInfo, err error) {
	if at.grp == tg {
		// Local hop(s) inside the destination group (dimension-order for
		// flattened-butterfly groups, direct otherwise).
		port, err = b.localPort(at, dIdx, seed)
		return port, vcDestHop, topology.NoSlot, err
	}
	s = b.chooseSlot(ps, at.grp, tg, seed)
	if s.Owner < 0 {
		return 0, 0, topology.NoSlot, errNoLivePath
	}
	vc = vcPhase0
	if phase1 {
		vc = vcPhase1
	}
	if int(s.Owner) == at.idx {
		return int(s.Port), vc, s, nil
	}
	port, err = b.localPort(at, int(s.Owner), seed)
	return port, vc, s, err
}

// localPort returns the local output port from router at toward the
// router with in-group index toIdx. On a pristine topology this is the
// direct next hop; on a degraded one, a dead direct channel is detoured
// through one live intermediate router of the group, chosen
// deterministically from the packet seed. The detour stays on the same
// VC — legal here because the fully connected group's local hops are
// acyclic in the detour's two-hop pattern, though pathological fault
// plans could in principle defeat the ordering, which is exactly what
// the stall detector's diagnostic snapshot exists to expose.
func (b *base) localPort(at pos, toIdx int, seed uint64) (int, error) {
	tb := &b.tab
	direct := tb.Route(at.idx, toIdx)
	if b.sl != nil {
		direct = b.sl.LocalRouteSeeded(at.idx, toIdx, seed)
	}
	if b.deg == nil || b.deg.Alive(at.id, direct) {
		return direct, nil
	}
	a := tb.RoutersPerGroup()
	start := int(sim.Mix(seed^0x94d049bb133111eb) % uint64(a))
	for i := 0; i < a; i++ {
		w := start + i
		if w >= a {
			w -= a
		}
		if w == at.idx || w == toIdx {
			continue
		}
		first := tb.Route(at.idx, w)
		if !b.deg.Alive(at.id, first) {
			continue
		}
		if !b.deg.Alive(at.grp*a+w, tb.Route(w, toIdx)) {
			continue
		}
		return first, nil
	}
	return 0, errNoLivePath
}

// chooseSlot picks the global-channel slot from group cur to group tg
// out of ps, deterministically per packet, uniformly among the pair's
// parallel channels — on a degraded topology, among its surviving
// channels (NoSlot when none survive). With an empty fault plan the
// live slot lists equal the pristine ones, so the choice is
// bit-identical to the pristine one.
func (b *base) chooseSlot(ps *topology.PairSlots, cur, tg int, seed uint64) topology.SlotInfo {
	i := cur*ps.Groups + tg
	lo := ps.Start[i]
	n := ps.Start[i+1] - lo
	if n == 0 {
		return topology.NoSlot
	}
	k := lo
	if n > 1 {
		k += int32(sim.Mix(seed+uint64(cur)*0x9e37) % uint64(n))
	}
	return b.tab.Slot(cur, int(ps.Slots[k]))
}

// NextHop resolves the packet's phase and target group, then computes
// the hop request. It satisfies sim.Routing for every algorithm. On a
// degraded topology it returns a *sim.UnroutableError when the fault
// plan severed every channel the hop could use; the simulator drops the
// packet and counts it.
func (b *base) NextHop(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	dst, dstR := b.dest(hs.Dst)
	if r.ID == dstR {
		hs.Port = int(dst.Port)
		hs.VC = 0
		return nil
	}
	at := b.at(r.ID)
	if !hs.Phase1 && at.grp == hs.InterGroup {
		// Reached the intermediate group (or it was the source group):
		// the rest of the path is minimal.
		hs.Phase1 = true
	}
	tg := int(dst.Grp)
	if !hs.Phase1 {
		tg = hs.InterGroup
	}
	port, vc, _, err := b.hop(b.pairSlots(), at, int(dst.Idx), tg, hs.Phase1, hs.Seed)
	if err != nil {
		return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
	}
	hs.Port, hs.VC = port, vc
	return nil
}

// pathHops returns the router-to-router channel count of the path from
// src to the destination router (group gd, in-group index dIdx) whose
// first hop hop resolved towards group tg with global slot s: H_m of
// the UGAL rule when tg == gd, H_nm of the Valiant path through
// intermediate group tg otherwise. It follows the same deterministic
// slot choices NextHop will make: the intra-group hops to the global
// channel, the global channel, and so on to the destination router.
func (b *base) pathHops(ps *topology.PairSlots, src pos, s topology.SlotInfo, gd, dIdx, tg int, seed uint64) int {
	tb := &b.tab
	if src.grp == tg {
		return tb.Hops(src.idx, dIdx)
	}
	if s.Owner < 0 {
		return infeasibleHops // no surviving channel: never preferable
	}
	hops := tb.Hops(src.idx, int(s.Owner)) + 1
	if tg == gd {
		return hops + tb.Hops(int(s.Entry), dIdx)
	}
	s2 := b.chooseSlot(ps, tg, gd, seed)
	if s2.Owner < 0 {
		return infeasibleHops
	}
	hops += tb.Hops(int(s.Entry), int(s2.Owner)) + 1
	return hops + tb.Hops(int(s2.Entry), dIdx)
}

// infeasibleHops is the hop count reported for a path with no surviving
// channel, large enough that the UGAL product rule never selects it.
const infeasibleHops = 1 << 20

// pickInterGroup draws the Valiant intermediate group for a packet,
// uniform over all groups except the source group (a candidate equal to
// the source group carries no load-balancing value). On a single-group
// topology there is no other group to draw, so it returns gs itself —
// callers treat that as "route minimally" — instead of dividing by zero.
func (b *base) pickInterGroup(gs int, seed uint64) int {
	g := b.tab.Groups()
	if g <= 1 {
		return gs
	}
	gi := int(sim.Mix(seed^0xd1b54a32d192ed03) % uint64(g-1))
	if gi >= gs {
		gi++
	}
	return gi
}

// liveInter reports whether gi is a usable Valiant intermediate group
// for traffic from gs to gd under the fault epoch whose surviving slots
// are ps: distinct from the source, reachable from it over a surviving
// global channel, and with a surviving onward channel to the
// destination group (trivially true when gi is the destination group
// itself).
func liveInter(ps *topology.PairSlots, gs, gd, gi int) bool {
	return gi != gs && ps.Count(gs, gi) > 0 && (gi == gd || ps.Count(gi, gd) > 0)
}

// pickLiveInterGroup draws the Valiant intermediate group uniformly
// among the groups still usable under the fault epoch whose surviving
// slots are ps, deterministically per packet. It uses the same seed
// mixing as pickInterGroup and enumerates candidates in ascending group
// order, so with an empty fault plan the draw is bit-identical to
// pickInterGroup. ok is false when no usable intermediate group exists
// (single-group machine, or the faults severed them all).
func (b *base) pickLiveInterGroup(ps *topology.PairSlots, gs, gd int, seed uint64) (gi int, ok bool) {
	g := b.tab.Groups()
	count := 0
	for c := 0; c < g; c++ {
		if liveInter(ps, gs, gd, c) {
			count++
		}
	}
	if count == 0 {
		return gs, false
	}
	want := int(sim.Mix(seed^0xd1b54a32d192ed03) % uint64(count))
	for c := 0; c < g; c++ {
		if !liveInter(ps, gs, gd, c) {
			continue
		}
		if want == 0 {
			return c, true
		}
		want--
	}
	return gs, false // unreachable: count bounded want
}
