package main

import (
	"time"

	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
)

// The wrappers below count and time the engine's calls into routing,
// traffic and the arrival source. Counters are kept per router or per
// terminal: the sharded engine calls in from one goroutine per shard,
// and each router and terminal belongs to exactly one shard, so no two
// goroutines write the same counter. Timing is sampled (one call in
// sampleEvery) to keep the clock reads off most calls.

const sampleEvery = 16

// callStats counts one kind of call at one router or terminal. The
// padding keeps neighbours owned by different shards off one cache
// line.
type callStats struct {
	calls, fired, sampled, ns int64
	tick                      int64 // sampling phase, staggered by index
	_                         [24]byte
}

// newStats returns n counters whose sampling phases are staggered, so
// that even routers or terminals making fewer than sampleEvery calls
// contribute timing samples.
func newStats(n int) []callStats {
	s := make([]callStats, n)
	for i := range s {
		s[i].tick = int64(i % sampleEvery)
	}
	return s
}

// timed runs f, timing it when this is a sampled call.
func (s *callStats) timed(f func()) {
	s.calls++
	s.tick++
	if s.tick%sampleEvery != 0 {
		f()
		return
	}
	t := time.Now()
	f()
	s.ns += time.Since(t).Nanoseconds()
	s.sampled++
}

// total adds up per-router or per-terminal counters.
func total(per []callStats) callStats {
	var t callStats
	for i := range per {
		t.add(per[i])
	}
	return t
}

func (s *callStats) add(o callStats) {
	s.calls += o.calls
	s.fired += o.fired
	s.sampled += o.sampled
	s.ns += o.ns
}

// nsPerCall is the mean time of the sampled calls.
func (s callStats) nsPerCall() float64 {
	if s.sampled == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.sampled)
}

// countedRouting wraps the sim.Routing handed to sim.New.
type countedRouting struct {
	inner           sim.Routing
	decide, nexthop []callStats // by router id
}

func (c *countedRouting) Name() string { return c.inner.Name() }

func (c *countedRouting) Decide(net *sim.Network, r *sim.Router, hs *sim.HopState) (err error) {
	c.decide[r.ID].timed(func() { err = c.inner.Decide(net, r, hs) })
	return err
}

func (c *countedRouting) NextHop(net *sim.Network, r *sim.Router, hs *sim.HopState) (err error) {
	c.nexthop[r.ID].timed(func() { err = c.inner.NextHop(net, r, hs) })
	return err
}

// countedTraffic wraps the sim.Traffic handed to sim.New.
type countedTraffic struct {
	inner sim.Traffic
	dest  []callStats // by source terminal
}

func (c *countedTraffic) Name() string { return c.inner.Name() }

func (c *countedTraffic) Dest(src int, rand uint64) (d int) {
	c.dest[src].timed(func() { d = c.inner.Dest(src, rand) })
	return d
}

// countedSource wraps the network's sim.Source (installed by SetSource).
type countedSource struct {
	inner  sim.Source
	arrive []callStats // by terminal
}

func (c *countedSource) Name() string        { return c.inner.Name() }
func (c *countedSource) Fingerprint() string { return c.inner.Fingerprint() }
func (c *countedSource) StateWords() int     { return c.inner.StateWords() }

func (c *countedSource) SaveState(t int, out []uint64) { c.inner.SaveState(t, out) }

func (c *countedSource) LoadState(t int, in []uint64) error { return c.inner.LoadState(t, in) }

// LoadGated forwards the optional capability the engine looks for, so
// the wrapped source is gated exactly when the inner one is.
func (c *countedSource) LoadGated() bool {
	g, ok := c.inner.(interface{ LoadGated() bool })
	return ok && g.LoadGated()
}

func (c *countedSource) Arrive(t int, now int64, load float64, r *sim.RNG) (fire bool, dst int) {
	s := &c.arrive[t]
	s.timed(func() { fire, dst = c.inner.Arrive(t, now, load, r) })
	if fire {
		s.fired++
	}
	return fire, dst
}

// events is the metrics.Collector an instrumented network carries: it
// counts flit-hops (flits forwarded onto a channel) and ejected
// packets, and records the host time between successive cycle ends,
// the per-Step cost of runs driven by sim.RunCtx. The engine delivers
// collector events on one goroutine.
type events struct {
	metrics.Nop
	flitHops, ejected int64
	last              time.Time
	steps             []float64 // microseconds
}

func (c *events) ChannelFlit(int)             { c.flitHops++ }
func (c *events) PacketEjected(metrics.Eject) { c.ejected++ }

func (c *events) CycleEnd(int64) {
	now := time.Now()
	if !c.last.IsZero() {
		c.steps = append(c.steps, float64(now.Sub(c.last).Nanoseconds())/1e3)
	}
	c.last = now
}

// probes bundles the wrappers and collector of one instrumented
// network.
type probes struct {
	routing *countedRouting
	traffic *countedTraffic
	source  *countedSource
	events  *events
}

// layerTotals accumulates the probe counts of every instrumented
// network of a traced run.
type layerTotals struct {
	decide, nexthop, dest, arrive callStats
	flitHops, ejected             int64
}

func (l *layerTotals) add(p *probes) {
	l.decide.add(total(p.routing.decide))
	l.nexthop.add(total(p.routing.nexthop))
	l.dest.add(total(p.traffic.dest))
	l.arrive.add(total(p.source.arrive))
	l.flitHops += p.events.flitHops
	l.ejected += p.events.ejected
}

// report sets the routing, traffic, workload and flit metrics;
// untracedNs is the untraced host time of the same simulated work.
func (l *layerTotals) report(e *env, untracedNs float64) {
	e.set("routing.decide_calls", float64(l.decide.calls), "count")
	e.set("routing.nexthop_calls", float64(l.nexthop.calls), "count")
	e.set("routing.decide_ns", l.decide.nsPerCall(), "ns")
	e.set("routing.nexthop_ns", l.nexthop.nsPerCall(), "ns")
	e.set("traffic.dest_calls", float64(l.dest.calls), "count")
	e.set("traffic.dest_ns", l.dest.nsPerCall(), "ns")
	e.set("workload.arrive_calls", float64(l.arrive.calls), "count")
	fire := 0.0
	if l.arrive.calls > 0 {
		fire = float64(l.arrive.fired) / float64(l.arrive.calls)
	}
	e.set("workload.fire_ratio", fire, "ratio")
	e.set("workload.arrive_ns", l.arrive.nsPerCall(), "ns")
	e.set("sim.flit_hops", float64(l.flitHops), "count")
	e.set("sim.packets_ejected", float64(l.ejected), "count")
	perHop := 0.0
	if l.flitHops > 0 {
		perHop = untracedNs / float64(l.flitHops)
	}
	e.set("sim.ns_per_flit_hop", perHop, "ns")
}
