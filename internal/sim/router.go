package sim

import "dragonfly/internal/topology"

// link is one direction of a bidirectional channel: flits flow from
// (src, srcPort) to (dst, dstPort) with a fixed latency, and the credits
// for those flits flow back along the same wires.
type link struct {
	id           int
	src, srcPort int
	dst, dstPort int
	latency      int64
	global       bool
	// dead marks a channel severed by a fault plan: the allocator never
	// forwards a flit onto it, so it carries nothing for the whole run.
	dead bool
	// flitSlot and credSlot are the link's positions in the linkOrder
	// of the shards owning its flit side (l.dst) and its credit side
	// (l.src): the index of the shard's queued-entry counter (see
	// shard.linkPend) that pushes onto each delay line bump.
	flitSlot, credSlot int32
	flits              flitQueue
	credits            creditQueue
}

// nilLink is the "no channel on this port" link id.
const nilLink int32 = -1

// Router holds the per-router simulation state.
//
// The modelled router is two-stage buffered, like the YARC router the
// paper builds on (footnote 10), with "sufficient speedup" so the
// crossbar is never the bottleneck (Section 4.2):
//
//   - Arriving flits occupy a credit-managed input-buffer slot per
//     (input port, VC) and queue in waitQ, the virtual output queue of
//     their next hop.
//   - The crossbar moves any number of flits per cycle from waitQ into
//     the bounded output buffer outQ (depth outDepth per VC); the move
//     frees the input slot and returns its credit upstream.
//   - Each output channel sends at most one flit per cycle from outQ —
//     channel bandwidth is the real constraint.
//
// When an output is congested its outQ fills, flits back up in waitQ
// still holding input slots, the input buffers fill, and upstream
// credits dry up — the backpressure chain of the paper's Figure 13 —
// while traffic crossing the same router toward uncongested outputs is
// unaffected.
//
// All per-(port, VC) state lives in flat slices indexed port*vcs+vc
// (the pv helper), so a router's working set is a handful of
// contiguous arrays rather than a tree of small allocations.
type Router struct {
	// ID is the router's index in the topology.
	ID    int
	radix int
	vcs   int
	depth int
	// outDepth is the output-buffer depth per VC.
	outDepth int

	// Occupancy counters: the packets queued in srcQ, waitQ and outQ
	// over the whole router, and in waitQ and outQ per output port.
	// They change with every push and pop, so the cycle pipeline skips
	// routers and ports with nothing to do in O(1). They are derived
	// state: written only by the shard owning the router, rebuilt by
	// recount after any bulk rewrite of the queues, never serialized.
	srcN, waitN, outN int32
	waitPort          []int32
	outPort           []int32

	// srcQ[port] is the unbounded source (injection) queue of the
	// terminal attached at `port`; unused for non-terminal ports.
	srcQ []pktQueue

	// waitQ[pv(port,vc)] holds flits routed to output `port`, VC `vc`,
	// that have not crossed the crossbar yet; these flits still occupy
	// their input-buffer slots. Terminal outputs (ejection) drain
	// directly from waitQ.
	waitQ []pktQueue

	// outQ[pv(port,vc)] is the bounded output buffer feeding the channel.
	outQ []pktQueue

	// inOcc[pv(port,vc)] counts flits delivered on (port, vc) that have
	// not crossed the crossbar (or ejected) yet; bounded by depth via
	// upstream credits. Terminal ports use vc 0: the slot a packet
	// admitted from the source queue occupies.
	inOcc []int32

	// credits[pv(port,vc)] counts free downstream buffer slots for
	// output `port`, VC `vc`. Terminal (ejection) ports have no credits.
	credits []int32

	// outRR[port] round-robins over the VCs of an output.
	outRR []int32

	// stallCyc[pv(port,vc)] accumulates credit-stall cycles (flits
	// waiting, no downstream credit) on an output VC since its last
	// departure. Maintained only while a hop tracer is attached; the
	// count rides out on the next metrics.Hop and resets.
	stallCyc []int64

	// Credit round-trip state (Section 4.3.2): ctq holds the send
	// timestamp of every outstanding flit per output port; td is the
	// smoothed downstream congestion estimate t_crt - t_crt0; crossTd is
	// the smoothed crossing wait (arrival to crossbar transfer) towards
	// each output — the component of the credit round-trip an upstream
	// router would attribute to this router. Their sum is the congestion
	// estimate the delayed-credit mechanism uses.
	ctq     []creditQueue // send cycles, VC 0; no ring on terminal ports
	td      []int64
	crossTd []int64
	tcrt0   []int64

	// outLink[port] is the id of the channel carrying flits out of this
	// router (nilLink for terminal ports); inLink[port] the reverse
	// direction feeding the input. Ids index Network.links.
	outLink []int32
	inLink  []int32

	// isTerm marks terminal ports.
	isTerm []bool
}

// pv maps (port, vc) to the index of the flat per-(port, VC) slices.
func (r *Router) pv(port, vc int) int { return port*r.vcs + vc }

// init builds router id's state; counts (2*radix long) backs its
// per-port occupancy counters.
func (r *Router) init(id int, topo Topology, cfg Config, counts []int32) {
	radix := topo.Radix(id)
	out := cfg.OutDepth
	if out == 0 {
		out = 4
	}
	r.ID = id
	r.radix = radix
	r.vcs = cfg.VCs
	r.depth = cfg.BufDepth
	r.outDepth = out
	r.srcQ = make([]pktQueue, radix)
	r.waitQ = make([]pktQueue, radix*cfg.VCs)
	r.outQ = make([]pktQueue, radix*cfg.VCs)
	r.waitPort = counts[:radix:radix]
	r.outPort = counts[radix : 2*radix : 2*radix]
	r.inOcc = make([]int32, radix*cfg.VCs)
	r.credits = make([]int32, radix*cfg.VCs)
	r.outRR = make([]int32, radix)
	r.stallCyc = make([]int64, radix*cfg.VCs)
	r.ctq = make([]creditQueue, radix)
	r.td = make([]int64, radix)
	r.crossTd = make([]int64, radix)
	r.tcrt0 = make([]int64, radix)
	r.outLink = make([]int32, radix)
	r.inLink = make([]int32, radix)
	r.isTerm = make([]bool, radix)
	for p := 0; p < radix; p++ {
		r.outLink[p] = nilLink
		r.inLink[p] = nilLink
		r.isTerm[p] = topo.Port(id, p).Class == topology.ClassTerminal
	}
	// Pre-size the rings so the hot loop rarely allocates: outQ is
	// bounded by outDepth. A port's timestamp FIFO holds one entry per
	// flit in flight to the downstream buffer, at most VCs × depth, but
	// at short channel latencies only a few; like the link's credit
	// line it starts at one cache line and doubles on demand. Terminal
	// ports send no flits over a channel and get no FIFO at all; only
	// they inject, so only they get a source-queue ring. waitQ is not
	// bounded by the buffer depth — it collects flits from every input
	// port, up to radix × VCs × depth (TestVOQGrowsPastBufDepth) — so,
	// like the unbounded source queues, it starts at the buffer depth
	// and amortizes from there.
	for p := 0; p < radix; p++ {
		if r.isTerm[p] {
			r.srcQ[p].reserve(cfg.BufDepth)
		} else {
			r.ctq[p].reserve()
		}
		for vc := 0; vc < cfg.VCs; vc++ {
			r.waitQ[r.pv(p, vc)].reserve(cfg.BufDepth)
			r.outQ[r.pv(p, vc)].reserve(out)
		}
	}
}

// pushWait queues ref in the virtual output queue of (port, vc).
func (r *Router) pushWait(port, vc int, ref int32) {
	r.waitQ[r.pv(port, vc)].push(ref)
	r.waitPort[port]++
	r.waitN++
}

// recount rebuilds the occupancy counters from the queues.
func (r *Router) recount() {
	r.srcN, r.waitN, r.outN = 0, 0, 0
	for p := 0; p < r.radix; p++ {
		r.srcN += int32(r.srcQ[p].len())
		r.waitPort[p], r.outPort[p] = r.queued(p)
		r.waitN += r.waitPort[p]
		r.outN += r.outPort[p]
	}
}

// queued counts the packets in waitQ and in outQ over port's VCs.
func (r *Router) queued(port int) (wait, out int32) {
	base := port * r.vcs
	for vc := 0; vc < r.vcs; vc++ {
		wait += int32(r.waitQ[base+vc].len())
		out += int32(r.outQ[base+vc].len())
	}
	return wait, out
}

// DownstreamQueueVC estimates the occupancy of the downstream buffer fed
// by output `port`, VC `vc`: buffer depth minus available credits. It
// counts flits buffered downstream plus flits and credits in flight.
func (r *Router) DownstreamQueueVC(port, vc int) int {
	return r.depth - int(r.credits[r.pv(port, vc)])
}

// DownstreamQueue sums DownstreamQueueVC over all VCs of `port`.
func (r *Router) DownstreamQueue(port int) int {
	q := 0
	base := port * r.vcs
	for vc := 0; vc < r.vcs; vc++ {
		q += r.depth - int(r.credits[base+vc])
	}
	return q
}

// PendingOut returns the number of packets queued at this router for
// output `port`, in the output buffer or still waiting to cross. It
// reads the per-port occupancy counters, which are exact wherever
// routing runs: every push and pop keeps them current, and the bulk
// queue rewrites (epoch swaps, snapshot restore) recount them before
// the next routing decision.
func (r *Router) PendingOut(port int) int {
	return int(r.waitPort[port] + r.outPort[port])
}

// PendingOutVC returns the queued count for (port, vc).
func (r *Router) PendingOutVC(port, vc int) int {
	i := r.pv(port, vc)
	return r.waitQ[i].len() + r.outQ[i].len()
}

// OutputQueue is the congestion estimate UGAL uses for an output port:
// packets waiting here for the port plus the estimated downstream
// occupancy. It is the simulator's analogue of the paper's q.
func (r *Router) OutputQueue(port int) int {
	return r.PendingOut(port) + r.DownstreamQueue(port)
}

// OutputQueueVC is the per-VC congestion estimate (the paper's q_vc),
// used by the UGAL-L_VC variants to discriminate minimal from
// non-minimal occupancy on a shared output port.
func (r *Router) OutputQueueVC(port, vc int) int {
	return r.PendingOutVC(port, vc) + r.DownstreamQueueVC(port, vc)
}

// minTD returns min over non-terminal outputs of t_d, the baseline the
// credit-delay mechanism subtracts so the least-congested output sees no
// delay and uniformly congested routers delay nothing (the paper's
// variance estimate).
func (r *Router) minTD() int64 {
	min := int64(-1)
	for p := 0; p < r.radix; p++ {
		if r.isTerm[p] {
			continue
		}
		if td := r.crossTd[p] + r.td[p]; min < 0 || td < min {
			min = td
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// baseCrossTD returns the second-largest smoothed crossing wait over
// the non-terminal outputs, the congestion baseline of the router. A
// genuine hot spot is an outlier: one output far above every other.
// When several outputs are congested together the router is simply
// busy, the baseline rises with the load, and no output qualifies —
// the robust form of the paper's variance estimate, which exists
// precisely so that uniformly loaded routers delay nothing.
func (r *Router) baseCrossTD() int64 {
	var max1, max2 int64 = -1, -1
	for p := 0; p < r.radix; p++ {
		if r.isTerm[p] {
			continue
		}
		td := r.crossTd[p]
		switch {
		case td > max1:
			max2 = max1
			max1 = td
		case td > max2:
			max2 = td
		}
	}
	if max2 < 0 {
		return 0
	}
	return max2
}

// ewma folds a new sample into a 1/4-gain exponentially weighted moving
// average, the smoothing applied to the credit round-trip sensor.
func ewma(old, sample int64) int64 { return (3*old + sample) / 4 }

// asymEwma filters the crossing-wait sensor with a slow attack and a
// fast decay: a hot spot must persist (tens of crossings) before it
// registers, and the estimate collapses as soon as the waits drop. This
// keeps the short-lived queueing transients of a busy balanced network
// from triggering credit delays, while a persistently oversubscribed
// channel — whose waits stay high for as long as the adversarial
// traffic lasts — registers fully.
func asymEwma(old, sample int64) int64 {
	if sample > old {
		return old + (sample-old+31)/32
	}
	return old - (old-sample+31)/32
}
