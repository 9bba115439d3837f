package obs

import (
	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
)

// Tracer records the per-hop history of a deterministic sample of
// packets into a bounded ring. It subscribes only to the hop event
// (metrics.HopObserver), so attaching one enables the engine's per-hop
// instrumentation — including the credit-stall cycle counters that
// ride on each record — and nothing else.
//
// Sampling is a pure function of the packet id and the tracer seed:
// packet p is sampled iff Mix(p ^ seed) % every == 0, so reruns of a
// deterministic simulation sample the same packets, and two tracers
// with the same parameters agree across hosts.
type Tracer struct {
	metrics.Nop
	every uint64
	seed  uint64
	ring  []metrics.Hop
	next  int
}

// NewTracer builds a tracer sampling ~1/every packets (every >= 1;
// 1 traces everything) into a ring of at most capHops records; once
// full, the oldest records are overwritten.
func NewTracer(every int, seed uint64, capHops int) *Tracer {
	if every < 1 {
		every = 1
	}
	if capHops < 1 {
		capHops = 4096
	}
	return &Tracer{
		every: uint64(every),
		seed:  seed,
		ring:  make([]metrics.Hop, 0, capHops),
	}
}

// Sampled reports whether the tracer records the given packet id.
func (t *Tracer) Sampled(packet uint64) bool {
	return t.every == 1 || sim.Mix(packet^t.seed)%t.every == 0
}

// PacketHop implements metrics.HopObserver.
func (t *Tracer) PacketHop(h metrics.Hop) {
	if !t.Sampled(h.Packet) {
		return
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, h)
		return
	}
	t.ring[t.next] = h
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
}

// Records returns every retained hop record, oldest first. The result
// is freshly allocated.
func (t *Tracer) Records() []metrics.Hop {
	out := make([]metrics.Hop, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
		return out
	}
	return append(out, t.ring...)
}
