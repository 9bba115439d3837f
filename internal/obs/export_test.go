package obs

import "dragonfly/internal/metrics"

// Trace returns the retained hop records of one packet, in hop order
// (records are emitted in cycle order and never reordered by the ring).
func (t *Tracer) Trace(packet uint64) []metrics.Hop {
	var out []metrics.Hop
	for _, h := range t.Records() {
		if h.Packet == packet {
			out = append(out, h)
		}
	}
	return out
}

// PacketIDs returns the distinct sampled packet ids retained in the
// ring, in first-seen order.
func (t *Tracer) PacketIDs() []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, h := range t.Records() {
		if !seen[h.Packet] {
			seen[h.Packet] = true
			out = append(out, h.Packet)
		}
	}
	return out
}
