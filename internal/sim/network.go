package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"dragonfly/internal/metrics"
	"dragonfly/internal/topology"
)

// Network is a running simulation instance: the routers, channels and
// terminals of one topology, plus injection and measurement state.
//
// The hot state is allocation-free by construction: packets live as
// one 64-byte record each in per-shard arenas and move through the
// queues as int32 refs, routers and links are value slices, and the
// per-query scratch (HopState) and the event buffers are owned by the
// engine shards and reused. Steady-state cycles allocate only when a
// queue, an arena or a mailbox has to grow past its high-water mark.
//
// The engine is partitioned into one or more shards (see shard.go);
// the single-shard partition is the serial engine and runs entirely on
// the calling goroutine. Results are bit-identical for any shard count.
type Network struct {
	topo    Topology
	cfg     Config
	routing Routing
	traffic Traffic
	// fp is the snapshot fingerprint, rehashed by New, SetSource and
	// SetTimeline, after which its inputs no longer change.
	fp uint64

	now     int64
	routers []Router
	links   []link

	termRNG []RNG
	// termSeq numbers each terminal's injections; packet ids are
	// terminal<<32 | seq, so id assignment is shard-local and identical
	// for every shard count.
	termSeq []uint64

	// source is the arrival process (never nil; Bernoulli by default).
	// srcGated caches the loadGated capability so the zero-load
	// injection fast path costs one bool test, not a type assertion.
	source   Source
	srcGated bool

	// Engine shards: the partition of routers/terminals/arena state
	// (always at least one), the router→shard map, the prebuilt phase
	// closures and the crew that runs them (nil on the serial engine).
	// inPhase is true only while the parallel phase runs, and gates
	// pushCredit's mailbox routing; it is written exclusively by the
	// coordinator between barriers.
	shards      []shard
	routerShard []int32
	phaseFns    []func()
	crew        *crewHandle
	inPhase     bool

	// Fault state, populated when the topology implements
	// DegradedTopology: terminals attached to dead ports or dead routers
	// neither inject nor count toward throughput normalisation, and
	// dropped (per shard) counts packets abandoned because routing found
	// no live path (errors wrapping ErrUnroutable).
	termAlive  []bool
	aliveTerms int

	// Timeline state (SetTimeline): the epoch schedule, the governing
	// epoch index, per-router down flags for transition detection, the
	// fault-kill and reroute counters, and the rescue scratch buffer.
	// Epoch swaps always run serially on the coordinator.
	epochs         []Epoch
	epochIdx       int
	routerDead     []bool
	killedInFlight int64
	rerouted       int64
	rescueBuf      []int32

	// Injection control.
	load float64

	// Cancellation (SetContext): Step polls ctxDone at cycle-batch
	// checkpoints (every ctxCheckInterval cycles, before the cycle body
	// runs) and returns a *CanceledError when it is closed. ctxDone is
	// nil when no cancelable context is installed — the common case pays
	// one untaken branch per cycle and nothing else.
	ctx     context.Context
	ctxDone <-chan struct{}

	// Measurement state (driven by Run). Both flags are written only
	// between Steps and read (never written) inside the phases.
	measuring   bool
	countWindow bool

	// mc receives instrumentation events when a collector is attached;
	// nil (the default) turns every emission site into one untaken
	// branch. The typed sinks below cache the collector's extension
	// interfaces (resolved once, at AttachMetrics) so the hot loop pays
	// a nil check per event site instead of a type assertion per event.
	// Phase events reach them through the shard event buffers, replayed
	// at the end of each Step (endCycle).
	mc      metrics.Collector
	mcFault metrics.FaultObserver
	mcCycle metrics.CycleObserver
	mcEject metrics.EjectObserver
	mcHop   metrics.HopObserver

	// run is the measurement state of the RunCtx or ResumeCtx in
	// progress, nil outside one. The replay hands it every measured
	// ejection, in serial router order, alongside the collector.
	run *runState
}

// New builds a network over topo with the given algorithm and traffic
// pattern. The topology is not copied; it must not be mutated afterwards.
func New(topo Topology, cfg Config, routing Routing, traffic Traffic) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if topo.Routers() == 0 || topo.Terminals() == 0 {
		return nil, fmt.Errorf("sim: topology has no routers or terminals")
	}
	n := &Network{
		topo:    topo,
		cfg:     cfg,
		routing: routing,
		traffic: traffic,
	}
	n.routers = make([]Router, topo.Routers())
	ports := 0
	for r := range n.routers {
		ports += topo.Radix(r)
	}
	counts := make([]int32, 2*ports) // every router's per-port counters, in one allocation
	for r := range n.routers {
		k := 2 * topo.Radix(r)
		n.routers[r].init(r, topo, cfg, counts[:k:k])
		counts = counts[k:]
	}
	// Build one directed link per non-terminal port direction, then
	// cross-wire the in/out ids (two passes so append can't invalidate
	// ids handed out earlier).
	for r := range n.routers {
		rt := &n.routers[r]
		for p := 0; p < rt.radix; p++ {
			pt := topo.Port(r, p)
			if pt.Class == topology.ClassTerminal {
				continue
			}
			lat := int64(cfg.LocalLatency)
			if pt.Class == topology.ClassGlobal {
				lat = int64(cfg.GlobalLatency)
			}
			id := len(n.links)
			n.links = append(n.links, link{
				id:      id,
				src:     r,
				srcPort: p,
				dst:     pt.PeerRouter,
				dstPort: pt.PeerPort,
				latency: lat,
				global:  pt.Class == topology.ClassGlobal,
			})
			l := &n.links[id]
			// One flit enters per cycle and rides for `latency` cycles,
			// so the delay line never holds more than latency+1 flits.
			// The credit line holds about as many unless the round-trip
			// mechanism delays credits; it starts at one cache line and
			// doubles on demand, up to one entry per downstream buffer
			// slot (VCs×BufDepth).
			l.flits.reserve(int(lat) + 1)
			l.credits.reserve()
			rt.outLink[p] = int32(id)
			rt.tcrt0[p] = 2 * lat
			// Credits for router-to-router outputs start full.
			for vc := 0; vc < cfg.VCs; vc++ {
				rt.credits[rt.pv(p, vc)] = int32(cfg.BufDepth)
			}
		}
	}
	for i := range n.links {
		l := &n.links[i]
		n.routers[l.dst].inLink[l.dstPort] = int32(i)
	}
	n.termRNG = make([]RNG, topo.Terminals())
	for t := range n.termRNG {
		n.termRNG[t] = NewRNG(cfg.Seed, uint64(t))
	}
	n.source = bernoulli{}
	n.srcGated = true
	n.termSeq = make([]uint64, topo.Terminals())
	n.termAlive = make([]bool, topo.Terminals())
	for t := range n.termAlive {
		n.termAlive[t] = true
	}
	n.aliveTerms = topo.Terminals()
	if deg, ok := topo.(DegradedTopology); ok {
		for i := range n.links {
			l := &n.links[i]
			l.dead = !deg.Alive(l.src, l.srcPort)
		}
		for t := 0; t < topo.Terminals(); t++ {
			if !deg.Alive(topo.TerminalRouter(t), topo.TerminalPort(t)) {
				n.termAlive[t] = false
				n.aliveTerms--
			}
		}
		if n.aliveTerms == 0 {
			return nil, fmt.Errorf("sim: fault plan leaves no live terminals")
		}
	}
	n.fp = n.fingerprint()
	n.buildShards(cfg.Shards)
	return n, nil
}

// ctxCheckInterval is the cycle-batch granularity of the cancellation
// checkpoint: Step polls the installed context's done channel once
// every this many cycles (a power of two). Cancellation latency is
// therefore at most ctxCheckInterval cycle bodies.
const ctxCheckInterval = 64

// SetContext installs ctx as the engine's cancellation signal: every
// subsequent Step observes it at cycle-batch checkpoints (both the
// serial and the sharded engine — the checkpoint sits before the
// per-cycle pipeline dispatch) and returns a *CanceledError wrapping
// ErrCanceled once it is done. A nil ctx, or one that can never be
// canceled (context.Background), uninstalls the check entirely and
// restores the zero-cost path. RunCtx installs and removes the run's
// context automatically; SetContext is for callers driving Step by
// hand.
func (n *Network) SetContext(ctx context.Context) {
	if ctx == nil {
		n.ctx, n.ctxDone = nil, nil
		return
	}
	n.ctx, n.ctxDone = ctx, ctx.Done()
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// RouterAt returns the simulation state of router id. Routing algorithms
// use it for remote (UGAL-G) or local congestion queries.
func (n *Network) RouterAt(id int) *Router { return &n.routers[id] }

// SetLoad sets the offered load scalar per terminal per cycle, in
// flits (load 1.0 = every terminal injects every cycle). The installed
// Source interprets it: the default Bernoulli source injects with this
// probability each cycle, bursty sources modulate it, trace replay
// ignores it.
func (n *Network) SetLoad(load float64) { n.load = load }

// Source returns the installed arrival process (never nil).
func (n *Network) Source() Source { return n.source }

// SetSource installs s as the arrival process for every terminal. It
// must be called before the first Step — source state is part of the
// snapshot fingerprint, and swapping processes mid-run would make the
// run irreproducible. A nil s restores the default Bernoulli source.
func (n *Network) SetSource(s Source) error {
	if n.now != 0 {
		return fmt.Errorf("sim: SetSource after the simulation started (cycle %d)", n.now)
	}
	if s == nil {
		s = bernoulli{}
	}
	if w := s.StateWords(); w < 0 || w > maxSourceStateWords {
		return &ConfigError{Param: "Source", Value: s.Name(),
			Reason: fmt.Sprintf("StateWords %d outside [0, %d]", w, maxSourceStateWords)}
	}
	n.source = s
	g, ok := s.(loadGated)
	n.srcGated = ok && g.LoadGated()
	n.fp = n.fingerprint()
	return nil
}

// AttachMetrics installs c as the instrumentation sink; nil detaches it
// and restores the zero-cost path.
//
// The extension interfaces (metrics.FaultObserver and friends) are
// resolved here, once: a collector subscribes to an event family by
// implementing its interface.
func (n *Network) AttachMetrics(c metrics.Collector) {
	n.mc = c
	n.mcFault, _ = c.(metrics.FaultObserver)
	n.mcCycle, _ = c.(metrics.CycleObserver)
	n.mcEject, _ = c.(metrics.EjectObserver)
	n.mcHop, _ = c.(metrics.HopObserver)
	if n.mcHop != nil {
		// Fresh tracer: discard credit-stall cycles accrued while no
		// tracer was listening (or destined for a previous tracer).
		for i := range n.routers {
			s := n.routers[i].stallCyc
			for j := range s {
				s[j] = 0
			}
		}
	}
}

// NumLinks returns the number of directed router-to-router channels.
func (n *Network) NumLinks() int { return len(n.links) }

// LinkID maps (router, output port) to the id metrics events carry, -1
// when the port has no channel (terminal ports).
func (n *Network) LinkID(router, port int) int {
	l := n.routers[router].outLink[port]
	if l == nilLink {
		return -1
	}
	return int(l)
}

// LinkClasses returns the class of every channel New builds over topo,
// indexed by link id: true for a global (inter-group) channel. New
// numbers one link per non-terminal port, router by router and port by
// port, and so does this walk, so collectors can split utilization by
// channel class without a network.
func LinkClasses(topo Topology) []bool {
	var global []bool
	for r := 0; r < topo.Routers(); r++ {
		for p := 0; p < topo.Radix(r); p++ {
			if c := topo.Port(r, p).Class; c != topology.ClassTerminal {
				global = append(global, c == topology.ClassGlobal)
			}
		}
	}
	return global
}

// InFlight returns the number of packets buffered or on channels
// (shard mailboxes included).
func (n *Network) InFlight() int { return n.totalInFlight() }

// Dropped returns the number of packets abandoned because routing found
// no live path (fault plans only; always 0 on a pristine topology).
func (n *Network) Dropped() int64 { return n.totalDropped() }

// loadHop fills the shard's routing scratch from arena slot ref.
func (n *Network) loadHop(sh *shard, ref int32) {
	p := &sh.ar.p[ref]
	sh.hs.ID = p.id
	sh.hs.Seed = p.seed
	sh.hs.Src = int(p.src)
	sh.hs.Dst = int(p.dst)
	sh.hs.Minimal = p.flags&pfMinimal != 0
	sh.hs.InterGroup = int(p.interGrp)
	sh.hs.Phase1 = p.flags&pfPhase1 != 0
	sh.hs.Port = int(p.nextPort)
	sh.hs.VC = int(p.nextVC)
}

// storeHop writes the scratch's writable fields back to arena slot ref.
func (n *Network) storeHop(sh *shard, ref int32) {
	p := &sh.ar.p[ref]
	f := p.flags &^ (pfMinimal | pfPhase1)
	if sh.hs.Minimal {
		f |= pfMinimal
	}
	if sh.hs.Phase1 {
		f |= pfPhase1
	}
	p.flags = f
	p.interGrp = int32(sh.hs.InterGroup)
	p.nextPort = int16(sh.hs.Port)
	p.nextVC = int8(sh.hs.VC)
}

// decide runs the source-router routing decision for slot ref at r.
func (n *Network) decide(sh *shard, r *Router, ref int32) error {
	n.loadHop(sh, ref)
	if err := n.routing.Decide(n, r, &sh.hs); err != nil {
		return err
	}
	n.storeHop(sh, ref)
	return nil
}

// nextHop computes the switch request for slot ref buffered at r.
func (n *Network) nextHop(sh *shard, r *Router, ref int32) error {
	n.loadHop(sh, ref)
	if err := n.routing.NextHop(n, r, &sh.hs); err != nil {
		return err
	}
	n.storeHop(sh, ref)
	return nil
}

// Step advances the simulation one cycle: deliver flits and credits that
// completed their channel latency, inject new packets, make the
// source-queue routing decisions, eject arrived packets, and forward one
// flit per output channel on every router. It returns a non-nil error —
// an *InvariantError or an aborting routing error — only when the
// network state can no longer be trusted; unroutable packets are dropped
// and counted, not errors.
//
// The cycle runs as epoch swap (if due) → the pipeline → event replay
// (see shard.go): with one shard inline on the calling goroutine, with
// more as one parallel phase in which each shard drains its inbound
// mailboxes and then runs the pipeline. Either way the cycle's events
// reach the run and the collector at its end, in serial router order.
func (n *Network) Step() error {
	// Cancellation checkpoint: observed between cycles, before anything
	// mutates, so an interrupted network is a valid partial simulation.
	// The batch interval bounds polling cost on tiny networks; one cycle
	// of a large network already dwarfs the non-blocking channel check.
	if n.ctxDone != nil && n.now&(ctxCheckInterval-1) == 0 {
		select {
		case <-n.ctxDone:
			return &CanceledError{Cycle: n.now, InFlight: n.totalInFlight(), Cause: context.Cause(n.ctx)}
		default:
		}
	}
	n.now++
	err := n.cycle()
	if arenaDebug && err == nil {
		err = n.checkCounters()
	}
	return err
}

// deliver moves flits and credits whose latency elapsed into their
// destination routers, walking the shard's links in ascending id order
// (single-shard: all links, both sides — the serial order). Links with
// nothing queued on the sides this shard owns are skipped on the dense
// linkPend counter without touching the link. Delivered flits are
// routed immediately and placed in the virtual output queue of their
// next hop.
func (n *Network) deliver(sh *shard) error {
	for i, pend := range sh.linkPend {
		if pend == 0 {
			continue
		}
		sl := sh.linkOrder[i]
		l := &n.links[sl.id]
		if l.dead {
			// A dead channel delivers nothing in either direction: its
			// queues are frozen until a revival retrains them. (Static
			// fault plans never queue anything on a dead link, so this
			// skip changes nothing for them.)
			continue
		}
		if sl.flit {
			for {
				f := l.flits.peek()
				if f == nil || f.at > n.now {
					break
				}
				e := l.flits.pop()
				sh.linkPend[i]--
				rt := &n.routers[l.dst]
				occ := &rt.inOcc[rt.pv(l.dstPort, int(e.vc))]
				if *occ >= int32(rt.depth) {
					return &InvariantError{Kind: "buffer overflow", Router: l.dst, Port: l.dstPort, VC: int(e.vc), Cycle: n.now}
				}
				*occ++
				if n.mc != nil {
					sh.ev = append(sh.ev, evRec{kind: evVCOcc,
						router: int32(l.dst), port: int32(l.dstPort), vc: e.vc, val: int64(*occ)})
				}
				ref := e.ref
				p := &sh.ar.p[ref]
				p.inPort = int16(l.dstPort)
				p.bufVC = int8(e.vc)
				p.hops++
				p.arrive = n.now
				if err := n.nextHop(sh, rt, ref); err != nil {
					if errors.Is(err, ErrUnroutable) {
						n.drop(sh, rt, ref)
						continue
					}
					return err
				}
				rt.pushWait(int(p.nextPort), int(p.nextVC), ref)
			}
		}
		if sl.cred {
			for {
				if at, ok := l.credits.peekAt(); !ok || at > n.now {
					break
				}
				vc, _ := l.credits.pop()
				sh.linkPend[i]--
				rt := &n.routers[l.src]
				cr := &rt.credits[rt.pv(l.srcPort, int(vc))]
				*cr++
				if *cr > int32(rt.depth) {
					return &InvariantError{Kind: "credit overflow", Router: l.src, Port: l.srcPort, VC: int(vc), Cycle: n.now}
				}
				// Credit round-trip measurement (Figure 17(b)): pop the send
				// timestamp and refresh t_d for this output.
				if rt.ctq[l.srcPort].len() > 0 {
					_, sent := rt.ctq[l.srcPort].pop()
					td := n.now - sent - rt.tcrt0[l.srcPort]
					if td < 0 {
						td = 0
					}
					rt.td[l.srcPort] = ewma(rt.td[l.srcPort], td)
				}
			}
		}
	}
	return nil
}

// drop abandons a packet that routing declared unroutable at router r:
// its input-buffer slot is freed, the credit returned upstream (plain,
// without the congestion delay — the next port is not meaningful for an
// unrouted packet), and the packet is counted in Dropped. Dropping is
// forward progress: it resets the stall detector like any flit movement.
func (n *Network) drop(sh *shard, r *Router, ref int32) {
	p := &sh.ar.p[ref]
	inP := int(p.inPort)
	bvc := int(p.bufVC)
	r.inOcc[r.pv(inP, bvc)]--
	if up := r.inLink[inP]; up != nilLink {
		ul := &n.links[up]
		n.pushCredit(sh, ul, uint8(bvc), n.now+ul.latency)
	}
	if p.flags&pfMeasured != 0 {
		sh.outstanding--
	}
	sh.inFlight--
	sh.dropped++
	sh.lastMove = n.now
	n.emitDrop(sh, r.ID)
	sh.ar.release(ref)
}

// inject runs the arrival process at the shard's terminals: the Source
// decides whether a packet is offered (one gate decision per terminal
// per cycle, drawing from the terminal's own RNG stream), and either
// forces the destination or defers it to the traffic pattern. With the
// default Bernoulli source the draw sequence — gate, per-packet seed,
// destination — is exactly the pre-Source engine's, which is what keeps
// the legacy golden hashes pinned.
func (n *Network) inject(sh *shard) {
	if n.load <= 0 && n.srcGated {
		return
	}
	for _, t32 := range sh.terms {
		t := int(t32)
		r := &n.termRNG[t]
		fire, fdst := n.source.Arrive(t, n.now, n.load, r)
		if !fire {
			continue
		}
		if !n.termAlive[t] {
			continue // dead terminal: draws consumed, nothing injected
		}
		ref := sh.ar.alloc()
		p := &sh.ar.p[ref]
		p.id = uint64(t)<<32 | n.termSeq[t]
		n.termSeq[t]++
		p.seed = r.Next()
		p.src = int32(t)
		if fdst >= 0 {
			p.dst = int32(fdst)
		} else {
			p.dst = int32(n.traffic.Dest(t, r.Next()))
		}
		p.create = n.now
		p.interGrp = -1
		p.inPort = -1
		if n.measuring {
			p.flags |= pfMeasured
			sh.outstanding++
		}
		sh.inFlight++
		if n.countWindow {
			sh.injectedWindow++
		}
		rt := &n.routers[n.topo.TerminalRouter(t)]
		rt.srcQ[n.topo.TerminalPort(t)].push(ref)
		rt.srcN++
	}
}

// admitSources moves at most one packet per terminal per cycle from its
// source queue into the router's terminal input buffer (the terminal
// channel bandwidth), making the source-router routing decision at that
// moment. Admission requires a free input slot, so source queues feel
// the router's backpressure like any upstream channel.
func (n *Network) admitSources(sh *shard, r *Router) error {
	for p := 0; p < r.radix; p++ {
		if !r.isTerm[p] {
			continue
		}
		head := r.srcQ[p].peek()
		if head == nilRef || r.inOcc[r.pv(p, 0)] >= int32(r.depth) {
			continue
		}
		r.srcQ[p].pop()
		r.srcN--
		r.inOcc[r.pv(p, 0)]++
		hp := &sh.ar.p[head]
		hp.inPort = int16(p)
		hp.bufVC = 0
		hp.inject = n.now
		hp.arrive = n.now
		hp.flags |= pfDecided
		if err := n.decide(sh, r, head); err != nil {
			if errors.Is(err, ErrUnroutable) {
				n.drop(sh, r, head)
				continue
			}
			return err
		}
		if hp.flags&pfMinimal != 0 {
			hp.flags |= pfPhase1
		}
		if err := n.nextHop(sh, r, head); err != nil {
			if errors.Is(err, ErrUnroutable) {
				n.drop(sh, r, head)
				continue
			}
			return err
		}
		r.pushWait(int(hp.nextPort), int(hp.nextVC), head)
	}
	return nil
}

// eject drains every flit queued for a terminal output. Ejection
// bandwidth is unconstrained, modelling the paper's assumption of
// sufficient router speedup so that ejection is never the bottleneck.
// The ejection is buffered as an event when an EjectObserver or, for a
// measured packet, the run is listening; the arena slot is recycled at
// once.
func (n *Network) eject(sh *shard, r *Router) {
	for p := 0; p < r.radix; p++ {
		if !r.isTerm[p] || r.waitPort[p] == 0 {
			continue
		}
		// The loop below empties every VC of the port.
		r.waitN -= r.waitPort[p]
		r.waitPort[p] = 0
		for vc := 0; vc < r.vcs; vc++ {
			q := &r.waitQ[r.pv(p, vc)]
			for q.len() > 0 {
				ref := q.pop()
				n.departed(sh, r, ref)
				p := &sh.ar.p[ref]
				if p.flags&pfMeasured != 0 {
					sh.outstanding--
				}
				sh.inFlight--
				if n.countWindow {
					sh.ejectedWindow++
				}
				sh.lastMove = n.now
				measured := p.flags&pfMeasured != 0
				if n.mcEject != nil || (n.run != nil && measured) {
					sh.ev = append(sh.ev, evRec{kind: evEject, packet: p.id, router: int32(r.ID),
						val: n.now - p.create, minimal: p.flags&pfMinimal != 0, flag: measured})
				}
				sh.ar.release(ref)
			}
		}
	}
}

// departed frees arena slot ref's input-buffer slot and returns the
// credit upstream when it crosses the crossbar (or ejects) at router r.
func (n *Network) departed(sh *shard, r *Router, ref int32) {
	p := &sh.ar.p[ref]
	inP := int(p.inPort)
	bvc := int(p.bufVC)
	r.inOcc[r.pv(inP, bvc)]--
	upID := r.inLink[inP]
	if upID == nilLink {
		return // terminal input: the freed slot is visible directly
	}
	up := &n.links[upID]
	var delay int64
	// Credit round-trip congestion signalling: delay the credit by the
	// congestion estimate of the output the packet went to, relative to
	// the router's least-congested output. Credits crossing global
	// channels are never delayed (Section 4.3.2), which both bounds the
	// mechanism and keeps the expensive channels fully utilisable.
	nextPort := int(p.nextPort)
	if n.cfg.DelayCredits && !up.global && !r.isTerm[nextPort] {
		// The delay uses only the locally measured crossing wait; folding
		// the downstream round-trip excess back in would compound the
		// delays recursively hop-by-hop and throttle uniformly loaded
		// networks. The baseline subtracted is the router's second most
		// congested output (the robust form of the paper's variance
		// trick): only an outlier output — a genuine hot spot — delays
		// credits, never the queueing jitter of a busy balanced router.
		slack := int64(n.cfg.DelaySlack)
		if slack == 0 {
			slack = 8
		}
		if out := r.outLink[nextPort]; out != nilLink && n.links[out].global {
			base := r.baseCrossTD()
			if td := r.crossTd[nextPort]; td > 2*base+slack {
				delay = td - base - slack
			}
		}
	}
	n.pushCredit(sh, up, uint8(bvc), n.now+up.latency+delay)
}

// transfer crosses the crossbar: flits move from waitQ into the bounded
// output buffers at unlimited rate (the "sufficient speedup" of Section
// 4.2), freeing their input slots and returning credits upstream.
func (n *Network) transfer(sh *shard, r *Router) {
	for out := 0; out < r.radix; out++ {
		if r.waitPort[out] == 0 || r.outLink[out] == nilLink {
			continue // nothing waiting; terminal outputs eject straight from waitQ
		}
		base := out * r.vcs
		moved := int32(0)
		for vc := 0; vc < r.vcs; vc++ {
			w := &r.waitQ[base+vc]
			q := &r.outQ[base+vc]
			for w.len() > 0 && q.len() < r.outDepth {
				ref := w.pop()
				if n.cfg.DelayCredits {
					r.crossTd[out] = asymEwma(r.crossTd[out], n.now-sh.ar.p[ref].arrive)
				}
				n.departed(sh, r, ref)
				q.push(ref)
				moved++
			}
		}
		r.waitPort[out] -= moved
		r.waitN -= moved
		r.outPort[out] += moved
		r.outN += moved
	}
}

// allocate forwards at most one flit per output channel per cycle from
// the output buffer, round-robin over the output's VCs. A flit leaving
// for a router owned by another shard is posted into that shard's
// mailbox (with its packet record) instead of onto the link; the
// receiver re-homes it at the start of the next cycle, before any
// delivery can be due.
func (n *Network) allocate(sh *shard, r *Router) {
	for out := 0; out < r.radix; out++ {
		if r.outPort[out] == 0 {
			continue // empty output buffer
		}
		lid := r.outLink[out]
		if lid == nilLink {
			continue // terminal outputs are handled by eject
		}
		l := &n.links[lid]
		if l.dead {
			continue // failed channel: carries no flits
		}
		base := out * r.vcs
		start := int(r.outRR[out])
		for i := 0; i < r.vcs; i++ {
			vc := start + i
			if vc >= r.vcs {
				vc -= r.vcs
			}
			q := &r.outQ[base+vc]
			if q.len() == 0 || r.credits[base+vc] <= 0 {
				// Credit-stall accounting, only while a hop tracer is
				// attached: flits are waiting but the downstream buffer has
				// no free slot.
				if n.mcHop != nil && q.len() > 0 {
					r.stallCyc[base+vc]++
				}
				continue
			}
			ref := q.pop()
			r.outPort[out]--
			r.outN--
			r.credits[base+vc]--
			r.ctq[out].push(0, n.now)
			if n.mc != nil {
				sh.ev = append(sh.ev, evRec{kind: evFlit, link: int32(l.id)})
			}
			p := &sh.ar.p[ref]
			if n.mcHop != nil {
				sh.ev = append(sh.ev, evRec{
					kind:    evHop,
					packet:  p.id,
					router:  int32(r.ID),
					port:    int32(out),
					vc:      uint8(vc),
					link:    int32(l.id),
					minimal: p.flags&pfMinimal != 0,
					flag:    p.flags&pfPhase1 != 0,
					val:     r.stallCyc[base+vc],
				})
				r.stallCyc[base+vc] = 0
			}
			if ds := n.routerShard[l.dst]; int(ds) != sh.idx {
				out := &sh.flitOut[n.now&1][ds]
				*out = append(*out, flitXfer{at: n.now + l.latency, p: *p, link: int32(l.id), vc: uint8(vc)})
				if p.flags&pfMeasured != 0 {
					sh.outstanding--
				}
				sh.inFlight--
				sh.ar.release(ref)
			} else {
				l.flits.push(flitEntry{ref: ref, vc: uint8(vc), at: n.now + l.latency})
				sh.linkPend[l.flitSlot]++
			}
			rr := vc + 1
			if rr >= r.vcs {
				rr -= r.vcs
			}
			r.outRR[out] = int32(rr)
			sh.lastMove = n.now
			break
		}
	}
}

// stallError builds the deadlock-detector diagnostic: which phase
// tripped it, how many packets are wedged, and the most occupied
// input-buffer VCs (the likely deadlock participants).
func (n *Network) stallError(phase Phase, limit int64) *StallError {
	e := &StallError{
		Phase:      phase,
		Cycle:      n.now,
		StallLimit: limit,
		InFlight:   n.totalInFlight(),
		Epoch:      n.epochIdx,
	}
	// Attach the fault context: a stall right after an epoch swap is
	// usually livelock against the dead channels, and the per-class dead
	// counts say which.
	if n.epochs != nil {
		e.DeadRouters, e.DeadGlobal, e.DeadLocal, e.DeadTerminal = n.epochs[n.epochIdx].View.FaultCounts()
	} else if fc, ok := n.topo.(interface{ FaultCounts() (int, int, int, int) }); ok {
		e.DeadRouters, e.DeadGlobal, e.DeadLocal, e.DeadTerminal = fc.FaultCounts()
	}
	for i := range n.routers {
		r := &n.routers[i]
		for p := 0; p < r.radix; p++ {
			for vc := 0; vc < r.vcs; vc++ {
				occ := int(r.inOcc[r.pv(p, vc)])
				if occ == 0 {
					continue
				}
				waiting := 0
				for wvc := 0; wvc < r.vcs; wvc++ {
					waiting += r.waitQ[r.pv(p, wvc)].len()
					if r.outLink[p] != nilLink {
						waiting += r.outQ[r.pv(p, wvc)].len()
					}
				}
				e.Hot = append(e.Hot, HotVC{Router: r.ID, Port: p, VC: vc, Occupancy: occ, Waiting: waiting})
			}
		}
	}
	sort.Slice(e.Hot, func(i, j int) bool {
		if e.Hot[i].Occupancy != e.Hot[j].Occupancy {
			return e.Hot[i].Occupancy > e.Hot[j].Occupancy
		}
		if e.Hot[i].Router != e.Hot[j].Router {
			return e.Hot[i].Router < e.Hot[j].Router
		}
		if e.Hot[i].Port != e.Hot[j].Port {
			return e.Hot[i].Port < e.Hot[j].Port
		}
		return e.Hot[i].VC < e.Hot[j].VC
	})
	const keep = 5
	if len(e.Hot) > keep {
		e.Hot = e.Hot[:keep:keep]
	}
	return e
}
