package sim

import (
	"errors"
	"fmt"

	"dragonfly/internal/topology"
)

// This file is the simulator half of the fault-timeline machinery: the
// Network tracks a schedule of epochs (compiled by internal/fault into
// immutable topology.Degraded views) and swaps the active view at event
// cycles, reconciling the flow-control state so the run continues
// seamlessly across the change.
//
// The swap happens at the start of the event cycle, before any flit or
// credit delivery:
//
//   - Links that died lose their in-flight flits (the packets are killed
//     and counted in KilledInFlight — a severed cable loses what was on
//     it) and their credit queues freeze: a dead link carries nothing in
//     either direction until it revives.
//   - Routers that died lose every buffered packet, source queues
//     included, and their sensor state resets.
//   - Links that revived are "retrained": both delay lines clear and the
//     sender's credit count is recomputed as depth minus the receiver's
//     current input occupancy, which restores the per-(port, VC) credit
//     conservation invariant exactly (asserted under the dflydebug tag).
//   - Packets buffered at live routers but queued towards a dead output
//     are rescued: routing re-resolves them against the new view, and
//     only the truly unroutable ones are dropped (counted in Dropped,
//     like any routing-level drop).
//
// Determinism: the swap iterates routers, ports, VCs and links in index
// order and consults only per-network state, so a timeline run is
// bit-identical across hosts and worker counts. With a sharded engine
// the swap still runs serially, on the coordinator, before the cycle's
// parallel phase: the coordinator first drains every shard's mailboxes
// (the drain each shard's phase would open with), so every mailbox is
// provably empty and the kill/rescue passes see exactly the state the
// serial engine would.

// Epoch is one interval of a fault timeline as the simulator consumes
// it: View governs the network from cycle Start until the next epoch's
// Start. Schedules are compiled by internal/fault and converted by the
// caller (fault cannot be imported from here — the dependency points
// the other way).
type Epoch struct {
	// Start is the first cycle the view governs. The first epoch must
	// start at cycle 0.
	Start int64
	// View is the fault-aware topology of the epoch.
	View *topology.Degraded
}

// SwitchedTopology is the topology contract a fault timeline needs:
// a degraded view the simulator (and the routing algorithm sharing the
// same value) can swap between epochs. *topology.Switched implements
// it.
type SwitchedTopology interface {
	DegradedTopology
	// SetEpoch swaps the active fault view.
	SetEpoch(*topology.Degraded)
}

// SetTimeline installs a compiled fault timeline. It must be called
// before the first Step, on a network built over a SwitchedTopology
// (so the routing algorithm observes the same epoch swaps). The first
// epoch is applied immediately; subsequent epochs apply at the start
// of their Start cycle, before any delivery.
func (n *Network) SetTimeline(epochs []Epoch) error {
	if len(epochs) == 0 {
		return fmt.Errorf("sim: SetTimeline with no epochs")
	}
	if _, ok := n.topo.(SwitchedTopology); !ok {
		return fmt.Errorf("sim: topology %T cannot swap fault epochs (need a SwitchedTopology)", n.topo)
	}
	if n.now != 0 {
		return fmt.Errorf("sim: SetTimeline after the simulation started (cycle %d)", n.now)
	}
	if epochs[0].Start != 0 {
		return fmt.Errorf("sim: first epoch starts at cycle %d, want 0", epochs[0].Start)
	}
	for i, e := range epochs {
		if e.View == nil {
			return fmt.Errorf("sim: epoch %d has no view", i)
		}
		if i > 0 && e.Start <= epochs[i-1].Start {
			return fmt.Errorf("sim: epoch starts not strictly increasing (%d then %d)",
				epochs[i-1].Start, e.Start)
		}
	}
	n.epochs = epochs
	n.epochIdx = 0
	n.routerDead = make([]bool, len(n.routers))
	n.fp = n.fingerprint()
	// Adopt epoch 0. The network is empty before the first Step, so
	// this only recomputes link and terminal liveness (there is nothing
	// to kill or rescue yet) — including undoing any liveness New
	// derived from a view pre-set on the switched topology.
	return n.applyEpoch(epochs[0].View)
}

// ActiveEpoch returns the index of the governing epoch (0 when no
// timeline is installed).
func (n *Network) ActiveEpoch() int { return n.epochIdx }

// KilledInFlight returns the number of packets destroyed by fault
// events: flits on a link when it died, and packets buffered at a
// router when it died. Distinct from Dropped, which counts packets
// routing abandoned as unroutable.
func (n *Network) KilledInFlight() int64 { return n.killedInFlight }

// Rerouted returns the number of buffered packets re-resolved against
// a new epoch because their queued output died.
func (n *Network) Rerouted() int64 { return n.rerouted }

// epochDue reports whether an epoch's Start has been reached this
// cycle, so Step must apply it before the cycle's pipeline runs.
func (n *Network) epochDue() bool {
	return n.epochIdx+1 < len(n.epochs) && n.epochs[n.epochIdx+1].Start <= n.now
}

// advanceEpochs applies every epoch whose Start has been reached. Run
// from Step after the cycle counter advances, before delivery: flits
// that would have completed a dead link exactly at the event cycle are
// killed, not delivered.
func (n *Network) advanceEpochs() error {
	for n.epochDue() {
		n.epochIdx++
		if err := n.applyEpoch(n.epochs[n.epochIdx].View); err != nil {
			return err
		}
	}
	return nil
}

// applyEpoch reconciles the running network with a new fault view. See
// the file comment for the semantics of each pass.
func (n *Network) applyEpoch(v *topology.Degraded) error {
	sw := n.topo.(SwitchedTopology)
	sw.SetEpoch(v) // routing sees the new view from this instant

	// Pass 1: routers that died lose their buffered packets and reset.
	for r := range n.routers {
		down := v.RouterDown(r)
		if down && !n.routerDead[r] {
			n.purgeRouter(&n.routers[r])
		}
		n.routerDead[r] = down
	}

	// Pass 2: link transitions. Death kills the in-flight flits and
	// freezes the link; revival retrains it and reconciles the
	// sender's credits against the receiver's surviving occupancy.
	// Flits riding link l live in the arena of the shard owning l.dst.
	for i := range n.links {
		l := &n.links[i]
		dead := !v.Alive(l.src, l.srcPort)
		switch {
		case dead && !l.dead:
			for l.flits.len() > 0 {
				e := l.flits.pop()
				n.killPacket(n.shardForRouter(l.dst), e.ref, l.dst)
			}
			l.dead = true
		case !dead && l.dead:
			n.reviveLink(l)
			l.dead = false
		}
	}

	// Pass 3: rescue packets queued at live routers towards dead
	// outputs, re-resolving them against the new view.
	for r := range n.routers {
		if n.routerDead[r] {
			continue
		}
		if err := n.rescueRouter(&n.routers[r]); err != nil {
			return err
		}
	}

	// Pass 4: terminal liveness. Terminals that died lose their source
	// queues and stop injecting (their RNG keeps drawing, preserving
	// the per-terminal streams); revived ones resume.
	alive := 0
	for t := 0; t < n.topo.Terminals(); t++ {
		a := v.Alive(n.topo.TerminalRouter(t), n.topo.TerminalPort(t))
		if !a && n.termAlive[t] {
			rt := &n.routers[n.topo.TerminalRouter(t)]
			q := &rt.srcQ[n.topo.TerminalPort(t)]
			for q.len() > 0 {
				n.killPacket(n.shardForRouter(rt.ID), q.pop(), rt.ID)
			}
		}
		n.termAlive[t] = a
		if a {
			alive++
		}
	}
	n.aliveTerms = alive
	if alive == 0 {
		return fmt.Errorf("sim: epoch at cycle %d leaves no live terminals", n.now)
	}

	// The event reshaped the network; give the stall watchdog a fresh
	// horizon to observe the reconfigured state.
	n.touchLastMove()
	// The passes above rewrite queues wholesale, bypassing the
	// occupancy counters the cycle pipeline skips on and UGAL's queue
	// estimates (Router.PendingOut) read; rebuild them before the next
	// cycle routes anything. (Rescue itself only calls NextHop, which
	// reads no queue.)
	n.recount()
	if arenaDebug {
		if err := n.CheckFlowInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// killPacket destroys an in-flight packet hit by a fault event; sh is
// the shard whose arena owns ref. The caller handles any input-slot
// accounting (purged routers zero their occupancy wholesale; flits on a
// wire hold no slot yet).
func (n *Network) killPacket(sh *shard, ref int32, router int) {
	if sh.ar.p[ref].flags&pfMeasured != 0 {
		sh.outstanding--
	}
	sh.inFlight--
	n.killedInFlight++
	if n.mcFault != nil {
		n.mcFault.Kill(router)
	}
	sh.ar.release(ref)
}

// purgeRouter empties a router that died: every buffered packet
// (source queues, crossbar wait queues, output buffers) is killed and
// the sensor state resets. Credits are left stale — every link of a
// dead router is dead, and revival reconciles them per link.
func (n *Network) purgeRouter(r *Router) {
	sh := n.shardForRouter(r.ID)
	for p := 0; p < r.radix; p++ {
		if r.isTerm[p] {
			q := &r.srcQ[p]
			for q.len() > 0 {
				n.killPacket(sh, q.pop(), r.ID)
			}
		}
		r.ctq[p].clear()
		r.td[p] = 0
		r.crossTd[p] = 0
		r.outRR[p] = 0
	}
	for i := range r.waitQ {
		for r.waitQ[i].len() > 0 {
			n.killPacket(sh, r.waitQ[i].pop(), r.ID)
		}
		for r.outQ[i].len() > 0 {
			n.killPacket(sh, r.outQ[i].pop(), r.ID)
		}
		r.inOcc[i] = 0
	}
}

// reviveLink retrains a channel that came back: both delay lines
// clear, the sender's round-trip sensors reset, and the sender's
// credit count is recomputed as buffer depth minus the receiver's
// surviving input occupancy — packets that arrived over the link
// before it died and are still buffered downstream return their
// credits through the revived link when they depart, so conservation
// holds from the first cycle.
func (n *Network) reviveLink(l *link) {
	l.flits.clear()
	l.credits.clear()
	src := &n.routers[l.src]
	dst := &n.routers[l.dst]
	src.ctq[l.srcPort].clear()
	src.td[l.srcPort] = 0
	src.crossTd[l.srcPort] = 0
	for vc := 0; vc < src.vcs; vc++ {
		src.credits[src.pv(l.srcPort, vc)] = int32(src.depth) - dst.inOcc[dst.pv(l.dstPort, vc)]
	}
}

// rescueRouter re-resolves every packet queued at a live router
// towards a dead output. Wait-queue packets keep their input slots and
// re-enter the wait queue of their new hop; output-buffer packets have
// already paid their input slot and move between output buffers (the
// bounded depth may transiently overshoot — the ring grows, and the
// bound re-establishes as the channel drains). Unroutable packets are
// dropped: with full input-slot accounting from the wait queue, without
// it from the output buffer.
func (n *Network) rescueRouter(r *Router) error {
	sh := n.shardForRouter(r.ID)
	for out := 0; out < r.radix; out++ {
		lid := r.outLink[out]
		if lid == nilLink || !n.links[lid].dead {
			continue
		}
		base := out * r.vcs
		for vc := 0; vc < r.vcs; vc++ {
			w := &r.waitQ[base+vc]
			for w.len() > 0 {
				n.rescueBuf = append(n.rescueBuf, w.pop())
			}
			for _, ref := range n.rescueBuf {
				if err := n.nextHop(sh, r, ref); err != nil {
					if errors.Is(err, ErrUnroutable) {
						n.drop(sh, r, ref)
						continue
					}
					n.rescueBuf = n.rescueBuf[:0]
					return err
				}
				p := &sh.ar.p[ref]
				r.waitQ[r.pv(int(p.nextPort), int(p.nextVC))].push(ref)
				n.rerouted++
				if n.mcFault != nil {
					n.mcFault.Reroute(r.ID)
				}
			}
			n.rescueBuf = n.rescueBuf[:0]

			q := &r.outQ[base+vc]
			for q.len() > 0 {
				n.rescueBuf = append(n.rescueBuf, q.pop())
			}
			for _, ref := range n.rescueBuf {
				if err := n.nextHop(sh, r, ref); err != nil {
					if errors.Is(err, ErrUnroutable) {
						n.dropDeparted(sh, r.ID, ref)
						continue
					}
					n.rescueBuf = n.rescueBuf[:0]
					return err
				}
				p := &sh.ar.p[ref]
				r.outQ[r.pv(int(p.nextPort), int(p.nextVC))].push(ref)
				n.rerouted++
				if n.mcFault != nil {
					n.mcFault.Reroute(r.ID)
				}
			}
			n.rescueBuf = n.rescueBuf[:0]
		}
	}
	return nil
}

// dropDeparted abandons an unroutable packet that already crossed the
// crossbar: its input slot was freed (and the credit returned) at
// transfer time, so only the global accounting updates.
func (n *Network) dropDeparted(sh *shard, router int, ref int32) {
	if sh.ar.p[ref].flags&pfMeasured != 0 {
		sh.outstanding--
	}
	sh.inFlight--
	sh.dropped++
	sh.lastMove = n.now
	n.emitDrop(sh, router)
	sh.ar.release(ref)
}

// CheckFlowInvariants verifies the per-(link, VC) credit conservation
// law on every live link: the sender's free credits, the receiver's
// input occupancy, the flits in flight and the credits in flight must
// sum to the buffer depth. Between sharded Steps, flits and credits
// posted to a mailbox but not yet drained are in flight too and are
// counted from the outboxes. Epoch swaps re-establish the law by
// construction; this check (run automatically after every swap under
// the dflydebug build tag, and callable from tests in any build)
// proves it. It also checks that every occupancy counter the cycle
// pipeline skips on equals the length of the queues it counts (which
// dflydebug builds check after every Step as well).
func (n *Network) CheckFlowInvariants() error {
	if err := n.checkCounters(); err != nil {
		return err
	}
	// In-transit mailbox entries per (link, vc). Keyed link<<8|vc; VCs
	// are far below 256.
	var transit map[int64]int
	if len(n.shards) > 1 {
		transit = make(map[int64]int)
		for s := range n.shards {
			sh := &n.shards[s]
			for p := range sh.flitOut {
				for _, out := range sh.flitOut[p] {
					for i := range out {
						transit[int64(out[i].link)<<8|int64(out[i].vc)]++
					}
				}
				for _, out := range sh.credOut[p] {
					for i := range out {
						transit[int64(out[i].link)<<8|int64(out[i].vc)]++
					}
				}
			}
		}
	}
	for i := range n.links {
		l := &n.links[i]
		if l.dead {
			continue
		}
		src := &n.routers[l.src]
		dst := &n.routers[l.dst]
		for vc := 0; vc < src.vcs; vc++ {
			sum := int(src.credits[src.pv(l.srcPort, vc)]) +
				int(dst.inOcc[dst.pv(l.dstPort, vc)]) +
				l.flits.countVC(uint8(vc)) +
				l.credits.countVC(uint8(vc)) +
				transit[int64(i)<<8|int64(vc)]
			if sum != src.depth {
				return &InvariantError{Kind: "credit conservation", Router: l.src, Port: l.srcPort, VC: vc, Cycle: n.now}
			}
		}
	}
	return nil
}
