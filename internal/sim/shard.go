package sim

import (
	"fmt"

	"dragonfly/internal/metrics"
	"dragonfly/internal/topology"
)

// The sharded engine partitions the network into contiguous ranges of
// groups (or of routers, when the topology has no group structure) and
// advances the ranges in parallel: shard 0 on the stepping goroutine,
// every other shard on a persistent worker of the network's crew
// (crew.go). Every shard owns the full per-cycle pipeline — deliver,
// inject, admit, eject, transfer, allocate — for its routers, its
// terminals and its packet arena, so the hot loop stays
// allocation-free and lock-free within a shard.
//
// The only state crossing a shard boundary is what crosses a link whose
// endpoints live in different shards: flits leaving the sender's last
// router and credits returning upstream. Those are posted into
// per-(sender, receiver) mailboxes during the cycle and drained by the
// receiving shard at the start of its next cycle's phase, before
// delivery — the same cycle the serial engine would pop them off the
// wire, because every channel latency is at least one cycle. A cycle is
// therefore one parallel phase behind one barrier. The outboxes are
// double-buffered by cycle parity: cycle t appends to parity t&1 and
// drains parity (t-1)&1, so no shard reads a slice another shard is
// appending to. Per link there is a
// single producer (flits: the shard of the link's source router;
// credits: the shard of its destination router) and a single consumer,
// and at most one flit enters a link per cycle, so queue order — and
// therefore every routing decision, credit clamp and ejection — is
// bit-identical to the serial engine for any shard count.
//
// Determinism of aggregation: every event the pipeline raises —
// collector events and the ejections a run's accumulators fold — is
// appended to its shard's event buffer and replayed on the coordinator,
// in shard order, at the end of the Step. The serial engine is the
// one-shard case of the same replay. (An epoch swap runs on the
// coordinator before the pipeline and reports its kills and reroutes
// to the collector directly.) Shards cover ascending router ranges, so the
// replayed ejection order equals the serial router-major order exactly,
// which keeps the floating-point accumulation order (and hence golden
// hashes) stable. Within one cycle the *event stream* a collector sees
// is grouped by shard rather than interleaved per router; all counts,
// and the order of ejections, are identical.
//
// Fault timelines compose with sharding because epoch swaps land on
// the barrier: on a cycle where an epoch is due, the coordinator drains
// every shard's mailboxes serially and then runs advanceEpochs before
// the parallel phase, when every mailbox is empty and no shard is
// running; the phase's own drain then finds nothing.

// shardLink is one entry of a shard's per-cycle link walk. A shard
// handles the flit side of the links it owns the destination router of
// and the credit side of the links it owns the source router of; the
// two flags let a single ascending-id walk process both sides in the
// serial engine's exact per-link order.
type shardLink struct {
	id   int32
	flit bool // this shard pops delivered flits (owns l.dst)
	cred bool // this shard pops returned credits (owns l.src)
}

// flitXfer carries one flit across a shard boundary: the link it rides
// plus the packet's record. The sender releases its arena slot when it
// posts the flit; the receiver copies the record into a fresh slot of
// its own arena when it drains the mailbox.
type flitXfer struct {
	at   int64
	p    pkt
	link int32
	vc   uint8
}

// credXfer carries one upstream credit across a shard boundary.
type credXfer struct {
	at   int64
	link int32
	vc   uint8
}

// Buffered-event kinds (evRec.kind).
const (
	evFlit uint8 = iota
	evVCOcc
	evDrop
	evHop
	evEject
)

// evRec is one buffered engine event, replayed at the end of its Step
// (endCycle), which supplies the cycle. Each kind fills the fields its
// event carries: a flit its link; a VC occupancy its router, port, vc
// and val (the occupancy); a drop its router; a hop every field, with
// flag for Phase1 and val for the credit stall; an ejection packet,
// router, minimal, flag for Measured and val for the latency. 32 bytes
// keep the buffer traffic of busy cycles small.
type evRec struct {
	kind    uint8
	vc      uint8
	minimal bool
	flag    bool
	router  int32
	port    int32
	link    int32
	packet  uint64
	val     int64
}

// shard is the per-goroutine slice of the network: a contiguous router
// range with its own arena, scratch, counters and outboxes.
type shard struct {
	idx    int
	r0, r1 int     // owned routers: [r0, r1)
	terms  []int32 // owned terminals, ascending

	linkOrder []shardLink
	// linkPend[i] counts the flits and credits queued on the sides of
	// link linkOrder[i] this shard owns — the only writer of both — so
	// deliver skips idle links on a dense array. Derived state, like
	// the router occupancy counters (see Network.recount).
	linkPend []int32

	ar arena
	hs HopState

	// Movement and measurement counters; Network-level totals sum these
	// plus the in-transit mailbox entries.
	outstanding    int
	inFlight       int
	lastMove       int64
	dropped        int64
	injectedWindow int64
	ejectedWindow  int64

	// Outboxes, indexed by cycle parity and then by receiving shard
	// (the self slot stays nil): cycle t's phase appends to parity t&1;
	// the receiver drains — and resets — them at the start of its phase
	// in cycle t+1.
	flitOut [2][][]flitXfer
	credOut [2][][]credXfer

	// Buffered engine events, replayed in shard order (endCycle).
	ev []evRec

	// err carries a phase failure to the coordinator.
	err error
}

// Shards returns the number of engine shards (1 = serial engine).
func (n *Network) Shards() int { return len(n.shards) }

// SetShards repartitions the network across k engine shards. It must be
// called before the first Step; k is clamped to the group count (or the
// router count for ungrouped topologies), and 0 or 1 selects the serial
// engine. Results are bit-identical for every k.
func (n *Network) SetShards(k int) error {
	if k < 0 {
		return &ConfigError{Param: "Shards", Value: fmt.Sprint(k), Reason: "shard count must be >= 0 (0 runs the serial engine)"}
	}
	if n.now != 0 {
		return fmt.Errorf("sim: SetShards after the simulation started (cycle %d)", n.now)
	}
	n.buildShards(k)
	return nil
}

// groupCount returns the topology's group count: a topology.Machine's
// own, or one group per router for a topology without group structure.
func (n *Network) groupCount() int {
	if m, ok := n.topo.(topology.Machine); ok {
		return m.Paths().Groups()
	}
	return len(n.routers)
}

// buildShards computes the partition and the per-shard state for k
// shards (clamped; minimum 1).
func (n *Network) buildShards(k int) {
	nR := len(n.routers)
	if k < 1 {
		k = 1
	}
	// A topology.Machine (pristine, Degraded or Switched) numbers its
	// routers group-major, so shard s takes whole groups: the routers
	// of groups [s*g/k, (s+1)*g/k). Group alignment matters for UGAL-G,
	// whose congestion oracle reads sibling routers of the packet's
	// source group. Other topologies split into contiguous router
	// ranges.
	groups := n.groupCount()
	k = min(k, groups)
	perGroup := nR / groups
	n.routerShard = make([]int32, nR)
	n.shards = make([]shard, k)
	for s := range n.shards {
		sh := &n.shards[s]
		sh.idx = s
		sh.r0, sh.r1 = s*groups/k*perGroup, (s+1)*groups/k*perGroup
		for r := sh.r0; r < sh.r1; r++ {
			n.routerShard[r] = int32(s)
		}
		for p := range sh.flitOut {
			sh.flitOut[p] = make([][]flitXfer, k)
			sh.credOut[p] = make([][]credXfer, k)
		}
	}
	for t := 0; t < n.topo.Terminals(); t++ {
		sh := &n.shards[n.routerShard[n.topo.TerminalRouter(t)]]
		sh.terms = append(sh.terms, int32(t))
	}
	for li := range n.links {
		l := &n.links[li]
		fs := n.routerShard[l.dst]
		cs := n.routerShard[l.src]
		for _, s := range [2]int32{fs, cs} {
			sh := &n.shards[s]
			e := shardLink{id: int32(li)}
			if len(sh.linkOrder) > 0 && sh.linkOrder[len(sh.linkOrder)-1].id == int32(li) {
				e = sh.linkOrder[len(sh.linkOrder)-1]
				sh.linkOrder = sh.linkOrder[:len(sh.linkOrder)-1]
			}
			e.flit = e.flit || s == fs
			e.cred = e.cred || s == cs
			if s == fs {
				l.flitSlot = int32(len(sh.linkOrder))
			}
			if s == cs {
				l.credSlot = int32(len(sh.linkOrder))
			}
			sh.linkOrder = append(sh.linkOrder, e)
			if fs == cs {
				break // one entry with both sides
			}
		}
	}
	for s := range n.shards {
		sh := &n.shards[s]
		sh.linkPend = make([]int32, len(sh.linkOrder))
	}
	n.recountLinks() // router counters do not depend on the partition
	// Prebuilt phase closures: Step runs these verbatim every cycle
	// (shard 0's on the coordinator, the rest on the crew's workers),
	// so the steady state allocates nothing. Each drains the mailboxes
	// the previous cycle posted to its shard, then runs the pipeline.
	n.phaseFns = make([]func(), k)
	for s := range n.shards {
		sh := &n.shards[s]
		n.phaseFns[s] = func() {
			n.drainShard(sh, (n.now-1)&1)
			sh.err = n.mainShard(sh)
		}
	}
	// The crew follows the partition: the one a re-partition replaces
	// is stopped, and the serial engine has none.
	if n.crew != nil {
		n.crew.c.stop()
		n.crew = nil
	}
	if k > 1 {
		n.crew = newCrewHandle(k)
	}
}

// recount rebuilds every occupancy counter — the routers' queue
// counts and the shards' per-link queued-entry counts — from the queues
// they shadow. The hot path keeps the counters in step push by push;
// the bulk rewrites (Restore's decode, an epoch swap's kill, rescue and
// retrain passes) end with a recount instead, and partitioning with
// recountLinks.
func (n *Network) recount() {
	for i := range n.routers {
		n.routers[i].recount()
	}
	n.recountLinks()
}

// recountLinks rebuilds the shards' per-link queued-entry counts.
func (n *Network) recountLinks() {
	for s := range n.shards {
		sh := &n.shards[s]
		for i, sl := range sh.linkOrder {
			sh.linkPend[i] = n.linkQueued(sl)
		}
	}
}

// linkQueued counts the entries queued on the sides of a link that
// linkOrder entry sl covers.
func (n *Network) linkQueued(sl shardLink) int32 {
	l := &n.links[sl.id]
	c := 0
	if sl.flit {
		c += l.flits.len()
	}
	if sl.cred {
		c += l.credits.len()
	}
	return int32(c)
}

// checkCounters verifies every occupancy counter against its queues.
func (n *Network) checkCounters() error {
	for i := range n.routers {
		r := &n.routers[i]
		var src, wait, out int32
		for p := 0; p < r.radix; p++ {
			src += int32(r.srcQ[p].len())
			w, o := r.queued(p)
			if w != r.waitPort[p] || o != r.outPort[p] {
				return &InvariantError{Kind: "port occupancy counter", Router: i, Port: p, Cycle: n.now}
			}
			if r.PendingOut(p) != int(w+o) {
				return &InvariantError{Kind: "pending-out estimate", Router: i, Port: p, Cycle: n.now}
			}
			wait += w
			out += o
		}
		if src != r.srcN || wait != r.waitN || out != r.outN {
			return &InvariantError{Kind: "router occupancy counter", Router: i, Port: -1, Cycle: n.now}
		}
		// Send timestamps: one per flit still owed a credit, none on
		// terminal ports (which get no ring at all).
		for p := 0; p < r.radix; p++ {
			q := &r.ctq[p]
			if r.isTerm[p] {
				if q.len() != 0 || q.buf != nil {
					return &InvariantError{Kind: "terminal send-timestamp ring", Router: i, Port: p, Cycle: n.now}
				}
				continue
			}
			owed := 0
			for vc := 0; vc < r.vcs; vc++ {
				owed += r.depth - int(r.credits[r.pv(p, vc)])
			}
			if q.len() > owed || !q.wellFormed(r.vcs*r.depth) {
				return &InvariantError{Kind: "send-timestamp ring", Router: i, Port: p, Cycle: n.now}
			}
		}
	}
	for i := range n.links {
		l := &n.links[i]
		if !l.credits.wellFormed(n.cfg.VCs * n.cfg.BufDepth) {
			return &InvariantError{Kind: "credit line", Router: l.src, Port: l.srcPort, Cycle: n.now}
		}
	}
	drained := (n.now - 1) & 1
	for s := range n.shards {
		sh := &n.shards[s]
		for i, sl := range sh.linkOrder {
			if sh.linkPend[i] != n.linkQueued(sl) {
				l := &n.links[sl.id]
				return &InvariantError{Kind: "link occupancy counter", Router: l.src, Port: l.srcPort, Cycle: n.now}
			}
		}
		// The parity the last phase drained must be empty: a non-empty
		// one means a receiver read the wrong parity and its traffic
		// would be delivered a cycle late, or never.
		for d := range sh.flitOut[drained] {
			if len(sh.flitOut[drained][d]) != 0 || len(sh.credOut[drained][d]) != 0 {
				return &InvariantError{Kind: "undrained mailbox", Router: sh.r0, Port: -1, Cycle: n.now}
			}
		}
	}
	return nil
}

// shardForRouter returns the shard owning router r.
func (n *Network) shardForRouter(r int) *shard { return &n.shards[n.routerShard[r]] }

// cycle is Step's body: apply any epoch swap that is due (after
// draining every mailbox serially, so the swap sees them empty), run
// the pipeline — inline on the serial engine, as one parallel phase on
// a sharded one, each shard draining its inbound mailboxes first — and
// end the cycle.
func (n *Network) cycle() error {
	if n.epochDue() {
		for i := range n.shards {
			n.drainShard(&n.shards[i], (n.now-1)&1)
		}
		if err := n.advanceEpochs(); err != nil {
			return err
		}
	}
	if n.crew == nil {
		if err := n.mainShard(&n.shards[0]); err != nil {
			return err
		}
	} else {
		n.inPhase = true
		n.crew.c.run(n.phaseFns) // shard 0 here, the rest on the crew
		n.inPhase = false
		for i := range n.shards {
			if err := n.shards[i].err; err != nil {
				return err
			}
		}
	}
	n.endCycle()
	return nil
}

// drainShard moves the inbound mailbox traffic of one parity onto this
// shard's links: flits are re-homed into the shard's arena, credits
// pushed into the upstream delay lines. Every delivery time in a
// mailbox is at least the current cycle (channel latencies are >= 1),
// so draining before deliver reproduces the serial pop timing exactly.
// The phase, the epoch-swap cycle and Snapshot all drain through here.
func (n *Network) drainShard(sh *shard, parity int64) {
	for si := range n.shards {
		src := &n.shards[si]
		in := src.flitOut[parity][sh.idx]
		for i := range in {
			x := &in[i]
			ref := sh.ar.alloc()
			sh.ar.p[ref] = x.p
			sh.inFlight++
			if x.p.flags&pfMeasured != 0 {
				sh.outstanding++
			}
			l := &n.links[x.link]
			l.flits.push(flitEntry{at: x.at, ref: ref, vc: x.vc})
			sh.linkPend[l.flitSlot]++
		}
		src.flitOut[parity][sh.idx] = in[:0]
		cin := src.credOut[parity][sh.idx]
		for i := range cin {
			c := &cin[i]
			l := &n.links[c.link]
			l.credits.push(c.vc, c.at)
			sh.linkPend[l.credSlot]++
		}
		src.credOut[parity][sh.idx] = cin[:0]
	}
}

// mainShard runs the per-cycle pipeline over this shard's links,
// terminals and routers. A stage whose queues are empty is skipped on
// the router's occupancy counters: each stage body is a no-op on empty
// queues (its sensor and arbiter updates all happen on a pop, or on a
// non-empty queue), so skipping is exact. The counters are re-read
// after each stage, which may fill the next stage's queues.
func (n *Network) mainShard(sh *shard) error {
	if err := n.deliver(sh); err != nil {
		return err
	}
	n.inject(sh)
	for ri := sh.r0; ri < sh.r1; ri++ {
		r := &n.routers[ri]
		if r.srcN > 0 {
			if err := n.admitSources(sh, r); err != nil {
				return err
			}
		}
		if r.waitN > 0 {
			n.eject(sh, r)
		}
		if r.waitN > 0 {
			n.transfer(sh, r)
		}
		if r.outN > 0 {
			n.allocate(sh, r)
		}
	}
	return nil
}

// endCycle replays every shard's buffered events, in shard order,
// then reports the cycle boundary.
func (n *Network) endCycle() {
	for i := range n.shards {
		n.replayShard(&n.shards[i])
	}
	if n.mcCycle != nil {
		n.mcCycle.CycleEnd(n.now)
	}
}

// replayShard feeds one shard's buffered events to the run (ejections)
// and the collector, then resets the buffer.
func (n *Network) replayShard(sh *shard) {
	for i := range sh.ev {
		e := &sh.ev[i]
		switch e.kind {
		case evFlit:
			n.mc.ChannelFlit(int(e.link))
		case evVCOcc:
			n.mc.VCOccupancy(int(e.router), int(e.port), int(e.vc), int(e.val))
		case evDrop:
			n.mc.Drop(int(e.router))
		case evHop:
			n.mcHop.PacketHop(metrics.Hop{
				Packet:      e.packet,
				Cycle:       n.now,
				Router:      int(e.router),
				Port:        int(e.port),
				VC:          int(e.vc),
				Link:        int(e.link),
				Minimal:     e.minimal,
				Phase1:      e.flag,
				CreditStall: e.val,
			})
		case evEject:
			ej := metrics.Eject{
				Cycle:    n.now,
				Packet:   e.packet,
				Router:   int(e.router),
				Latency:  e.val,
				Minimal:  e.minimal,
				Measured: e.flag,
			}
			if n.run != nil {
				n.run.eject(ej)
			}
			if n.mcEject != nil {
				n.mcEject.PacketEjected(ej)
			}
		}
	}
	sh.ev = sh.ev[:0]
}

// pushCredit returns a credit upstream on link l, routing it through
// the mailbox when the link's source router lives in another shard.
// Called from phase code (drop, departed) with the acting shard, and
// from serial coordinator contexts (epoch rescue) where the mailboxes
// are empty and the direct push is always correct.
func (n *Network) pushCredit(sh *shard, l *link, vc uint8, at int64) {
	if ss := n.routerShard[l.src]; int(ss) != sh.idx {
		if n.inPhase {
			out := &sh.credOut[n.now&1][ss]
			*out = append(*out, credXfer{link: int32(l.id), at: at, vc: vc})
			return
		}
		sh = &n.shards[ss] // the credit side's counter lives with l.src
	}
	l.credits.push(vc, at)
	sh.linkPend[l.credSlot]++
}

// emitDrop buffers a routing-level drop for the collector.
func (n *Network) emitDrop(sh *shard, router int) {
	if n.mc != nil {
		sh.ev = append(sh.ev, evRec{kind: evDrop, router: int32(router)})
	}
}

// Totals: Network-level counters are the sum of the per-shard counters
// plus the packets sitting in mailboxes between the allocate that
// posted them and the drain that re-homes them. Both parities are
// counted; between Steps at most one is non-empty.

func (n *Network) totalInFlight() int {
	t := 0
	for i := range n.shards {
		sh := &n.shards[i]
		t += sh.inFlight
		for p := range sh.flitOut {
			for _, out := range sh.flitOut[p] {
				t += len(out)
			}
		}
	}
	return t
}

func (n *Network) totalOutstanding() int {
	t := 0
	for i := range n.shards {
		sh := &n.shards[i]
		t += sh.outstanding
		for p := range sh.flitOut {
			for _, out := range sh.flitOut[p] {
				for j := range out {
					if out[j].p.flags&pfMeasured != 0 {
						t++
					}
				}
			}
		}
	}
	return t
}

func (n *Network) totalDropped() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].dropped
	}
	return t
}

func (n *Network) totalEjectedWindow() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].ejectedWindow
	}
	return t
}

func (n *Network) totalInjectedWindow() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].injectedWindow
	}
	return t
}

func (n *Network) maxLastMove() int64 {
	var m int64
	for i := range n.shards {
		if lm := n.shards[i].lastMove; lm > m {
			m = lm
		}
	}
	return m
}

func (n *Network) resetWindowCounts() {
	for i := range n.shards {
		n.shards[i].injectedWindow = 0
		n.shards[i].ejectedWindow = 0
	}
}

func (n *Network) touchLastMove() {
	for i := range n.shards {
		n.shards[i].lastMove = n.now
	}
}
