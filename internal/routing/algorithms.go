package routing

import (
	"fmt"

	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// MIN is minimal routing (Section 4.1): at most one local hop in the
// source group, one global channel, and one local hop in the destination
// group. Ideal on benign traffic, pathological on adversarial patterns.
type MIN struct{ base }

// NewMIN returns minimal routing over d.
func NewMIN(d topology.Machine) *MIN { return &MIN{newBase(d)} }

// Name implements sim.Routing.
func (*MIN) Name() string { return "MIN" }

// Decide implements sim.Routing: always minimal on a pristine topology.
// On a degraded one, a source-destination group pair whose every direct
// global channel died falls back to a Valiant detour through a live
// intermediate group (the VC scheme already covers non-minimal paths,
// so the fallback stays within the deadlock-free ordering); a
// destination no fallback can reach is reported unroutable.
func (m *MIN) Decide(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	if m.deg != nil {
		return m.decideWithFaults(r, hs, false)
	}
	hs.Minimal = true
	hs.InterGroup = -1
	return nil
}

// decideWithFaults is the shared minimal-preferred decision under a
// fault plan: route minimally when a live minimal path exists, detour
// through a live intermediate group otherwise. forceDetour skips the
// minimal preference (VAL's behaviour).
func (b *base) decideWithFaults(r *sim.Router, hs *sim.HopState, forceDetour bool) error {
	if b.deg.TerminalDown(hs.Dst) {
		return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
	}
	ps := b.deg.LiveSlots()
	dst, dstR := b.dest(hs.Dst)
	atDst := dstR == r.ID
	gs, gd := int(b.tab.Router(r.ID).Grp), int(dst.Grp)
	minFeasible := atDst || gs == gd || ps.Count(gs, gd) > 0
	if minFeasible && (!forceDetour || atDst) {
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	gi, ok := b.pickLiveInterGroup(ps, gs, gd, hs.Seed)
	if ok && gi != gs {
		hs.Minimal = false
		hs.InterGroup = gi
		return nil
	}
	if minFeasible {
		// forceDetour with no usable intermediate group (single-group
		// machine, or faults severed them all): minimal still works.
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
}

// VAL is Valiant's randomized algorithm applied at the group level
// (Section 4.1): every packet first routes minimally to a random
// intermediate group, then minimally to its destination. It halves the
// worst case at the price of halving best-case throughput.
type VAL struct{ base }

// NewVAL returns Valiant routing over d.
func NewVAL(d topology.Machine) *VAL { return &VAL{newBase(d)} }

// Name implements sim.Routing.
func (*VAL) Name() string { return "VAL" }

// Decide implements sim.Routing: always non-minimal through a random
// intermediate group. On a degraded topology the intermediate group is
// drawn among the groups whose detour channels survived.
func (v *VAL) Decide(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	if v.deg != nil {
		return v.decideWithFaults(r, hs, true)
	}
	gs := int(v.tab.Router(r.ID).Grp)
	if _, dstR := v.dest(hs.Dst); dstR == r.ID {
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	gi := v.pickInterGroup(gs, hs.Seed)
	if gi == gs {
		// Single-group topology: no intermediate group exists, so the
		// "Valiant" path is the minimal one.
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	hs.Minimal = false
	hs.InterGroup = gi
	return nil
}

// UGALMode selects the congestion-estimate flavour of UGAL.
type UGALMode int

const (
	// UGALLocal is conventional UGAL-L: total output-queue estimates at
	// the source router.
	UGALLocal UGALMode = iota
	// UGALLocalVC is UGAL-L_VC: per-VC queue estimates, separating
	// minimal (VC1) from non-minimal (VC0) occupancy (Section 4.3.1).
	UGALLocalVC
	// UGALLocalVCH is UGAL-L_VCH: per-VC estimates only when the two
	// candidate paths leave through the same output port, total
	// estimates otherwise (the paper's hybrid rule).
	UGALLocalVCH
	// UGALGlobal is UGAL-G: an ideal implementation reading the queues
	// of the actual global channels, wherever they are in the group.
	UGALGlobal
)

// String names the mode like the paper does.
func (m UGALMode) String() string {
	switch m {
	case UGALLocal:
		return "UGAL-L"
	case UGALLocalVC:
		return "UGAL-L_VC"
	case UGALLocalVCH:
		return "UGAL-L_VCH"
	case UGALGlobal:
		return "UGAL-G"
	default:
		return fmt.Sprintf("UGALMode(%d)", int(m))
	}
}

// UGAL chooses between the minimal and a random Valiant path per packet
// by comparing queue-length × hop-count products (Singh's UGAL), with
// the congestion estimate selected by Mode.
type UGAL struct {
	base
	// Mode selects the congestion estimate.
	Mode UGALMode
	// CreditRT marks the UGAL-L_CR configuration: the decision rule is
	// UGAL-L_VCH and the simulator must run with Config.DelayCredits.
	CreditRT bool
}

// NewUGAL returns a UGAL router over d with the given mode.
func NewUGAL(d topology.Machine, mode UGALMode) *UGAL {
	return &UGAL{base: newBase(d), Mode: mode}
}

// NewUGALCR returns the UGAL-L_CR configuration: UGAL-L_VCH decisions
// designed to run with the credit round-trip latency mechanism enabled
// (sim.Config.DelayCredits = true), which core enables for it.
func NewUGALCR(d topology.Machine) *UGAL {
	return &UGAL{base: newBase(d), Mode: UGALLocalVCH, CreditRT: true}
}

// Name implements sim.Routing.
func (u *UGAL) Name() string {
	if u.CreditRT {
		return "UGAL-L_CR"
	}
	return u.Mode.String()
}

// Decide implements sim.Routing: the source-router adaptive choice.
// Each candidate's global slot is resolved once, and both its first hop
// and its hop count derive from it. On a degraded topology the minimal
// and Valiant candidates are restricted to surviving channels; when
// only one candidate survives it is taken without a queue comparison,
// and when neither does the packet is unroutable.
func (u *UGAL) Decide(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	if u.deg != nil && u.deg.TerminalDown(hs.Dst) {
		return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
	}
	dst, dstR := u.dest(hs.Dst)
	if dstR == r.ID {
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	src := u.at(r.ID)
	gs, gd, dIdx := src.grp, int(dst.Grp), int(dst.Idx)
	ps := u.pairSlots()

	var gi int
	if u.deg != nil {
		minFeasible := gs == gd || ps.Count(gs, gd) > 0
		var giOK bool
		gi, giOK = u.pickLiveInterGroup(ps, gs, gd, hs.Seed)
		switch {
		case !minFeasible && !giOK:
			return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
		case !giOK:
			// No usable intermediate group: minimal without comparison.
			hs.Minimal = true
			hs.InterGroup = -1
			return nil
		case !minFeasible:
			// Minimal path severed: forced Valiant detour.
			hs.Minimal = false
			hs.InterGroup = gi
			return nil
		}
	} else {
		gi = u.pickInterGroup(gs, hs.Seed)
		if gi == gs {
			// Single-group topology: no non-minimal candidate exists.
			hs.Minimal = true
			hs.InterGroup = -1
			return nil
		}
	}

	portM, vcM, slotM, errM := u.hop(ps, src, dIdx, gd, true, hs.Seed)
	portNm, vcNm, slotNm, errNm := u.hop(ps, src, dIdx, gi, false, hs.Seed)
	// Either candidate's first hop can be locally severed even when the
	// group pair keeps live channels; fall back to the other candidate.
	switch {
	case errM != nil && errNm != nil:
		return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
	case errM != nil:
		hs.Minimal = false
		hs.InterGroup = gi
		return nil
	case errNm != nil:
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	hm := u.pathHops(ps, src, slotM, gd, dIdx, gd, hs.Seed)
	hnm := u.pathHops(ps, src, slotNm, gd, dIdx, gi, hs.Seed)

	var qm, qnm int
	switch u.Mode {
	case UGALLocal:
		qm = r.OutputQueue(portM)
		qnm = r.OutputQueue(portNm)
	case UGALLocalVC:
		qm = r.OutputQueueVC(portM, vcM)
		qnm = r.OutputQueueVC(portNm, vcNm)
	case UGALLocalVCH:
		if portM == portNm {
			qm = r.OutputQueueVC(portM, vcM)
			qnm = r.OutputQueueVC(portNm, vcNm)
		} else {
			qm = r.OutputQueue(portM)
			qnm = r.OutputQueue(portNm)
		}
	case UGALGlobal:
		qm = u.globalQueue(net, r, gs, slotM, portM)
		qnm = u.globalQueue(net, r, gs, slotNm, portNm)
	}

	if qm*hm <= qnm*hnm {
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	hs.Minimal = false
	hs.InterGroup = gi
	return nil
}

// globalQueue implements the UGAL-G oracle for one candidate path: its
// congestion is read at the router that actually sources its global
// channel slot s in source group gs, wherever in the group that router
// is. For an intra-group path (NoSlot: no global channel) the local
// output queue of its first hop port stands in.
func (u *UGAL) globalQueue(net *sim.Network, r *sim.Router, gs int, s topology.SlotInfo, port int) int {
	if s.Owner < 0 {
		return r.OutputQueue(port)
	}
	owner := net.RouterAt(gs*u.tab.RoutersPerGroup() + int(s.Owner))
	return owner.OutputQueue(int(s.Port))
}
