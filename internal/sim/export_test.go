package sim

// SnapshotSizeHint exposes the snapshot encoder's preallocation bound
// to the external tests.
func (n *Network) SnapshotSizeHint() int { return n.snapshotSizeHint() }

// Fingerprints returns the snapshot fingerprint the network stores and
// a fresh hash of its inputs.
func (n *Network) Fingerprints() (stored, fresh uint64) { return n.fp, n.fingerprint() }

// SnapshotSized encodes a drained network into a first buffer of size
// bytes, for tests of a size hint that falls short.
func (n *Network) SnapshotSized(size int) []byte { return n.encode(nil, size) }

// Crew exposes the sharded engine's phase dispatcher to the external
// tests, which drive it with phase functions of their own.
type Crew = crew

// NewCrew starts a crew for k-function phases.
func NewCrew(k int) *Crew { return newCrew(k) }

// Run runs one phase: fns[0] on the caller, the rest on the workers.
func (c *crew) Run(fns []func()) { c.run(fns) }

// Stop ends the crew's workers.
func (c *crew) Stop() { c.stop() }

// LinkGlobal reports whether New built link id as a global channel.
func (n *Network) LinkGlobal(id int) bool { return n.links[id].global }

// PacketWire is the encoded size of one packet, for tests that patch
// entries of a snapshot.
const PacketWire = packetWire

// LinkLines returns each link's queued flit and credit counts, in the
// snapshot's link order.
func (n *Network) LinkLines() (flits, credits []int) {
	for i := range n.links {
		flits = append(flits, n.links[i].flits.len())
		credits = append(credits, n.links[i].credits.len())
	}
	return flits, credits
}

// CreditRingCaps returns the largest ring capacity among the links'
// credit lines and among the routers' send-timestamp FIFOs.
func (n *Network) CreditRingCaps() (link, ctq int) {
	for i := range n.links {
		link = max(link, len(n.links[i].credits.buf))
	}
	for i := range n.routers {
		for p := range n.routers[i].ctq {
			ctq = max(ctq, len(n.routers[i].ctq[p].buf))
		}
	}
	return link, ctq
}

// QueuedRoute is the routing state of a queued packet that
// QueuedPacket's matcher selects on.
type QueuedRoute struct {
	// Minimal is the source decision; Phase1 that the packet heads for
	// its final destination group.
	Minimal, Phase1 bool
}

// QueuedPacket returns the snapshot encoding of the first packet, in
// snapshot order, that sits in a source queue ("src"), a crossbar wait
// queue ("wait"), an output buffer ("out") or on a link ("wire") and
// satisfies match; nil when there is none. Tests use it to find a
// packet's record in a snapshot and patch it.
func (n *Network) QueuedPacket(where string, match func(QueuedRoute) bool) []byte {
	enc := func(sh *shard, ref int32, wire bool) []byte {
		p := sh.ar.p[ref]
		if !match(QueuedRoute{Minimal: p.flags&pfMinimal != 0, Phase1: p.flags&pfPhase1 != 0}) {
			return nil
		}
		if wire {
			p = p.onWire()
		}
		c := &snapCodec{b: make([]byte, packetWire)}
		c.packet(0, &p)
		return c.b
	}
	if where == "wire" {
		for i := range n.links {
			l := &n.links[i]
			for k := 0; k < l.flits.n; k++ {
				if b := enc(n.shardForRouter(l.dst), l.flits.buf[(l.flits.head+k)&(len(l.flits.buf)-1)].ref, true); b != nil {
					return b
				}
			}
		}
		return nil
	}
	for ri := range n.routers {
		r := &n.routers[ri]
		qs := map[string][]pktQueue{"src": r.srcQ, "wait": r.waitQ, "out": r.outQ}[where]
		for i := range qs {
			q := &qs[i]
			for k := 0; k < q.n; k++ {
				if b := enc(n.shardForRouter(ri), q.buf[(q.head+k)&(len(q.buf)-1)], false); b != nil {
					return b
				}
			}
		}
	}
	return nil
}

// Packet flag bits, for tests that patch packet records in a snapshot.
const (
	FlagMinimal = pfMinimal
	FlagPhase1  = pfPhase1
	FlagDecided = pfDecided
)

// TD returns the current congestion estimate t_d of output port: the
// smoothed local crossing wait plus the downstream credit round-trip
// excess.
func (r *Router) TD(port int) int64 { return r.crossTd[port] + r.td[port] }

// IsTerminalPort reports whether port p attaches a terminal.
func (r *Router) IsTerminalPort(p int) bool { return r.isTerm[p] }

// Credits returns the free downstream slots for (port, vc).
func (r *Router) Credits(port, vc int) int { return int(r.credits[r.pv(port, vc)]) }

// TotalSourceBacklog sums the source-queue lengths across all terminals.
func (n *Network) TotalSourceBacklog() int {
	total := 0
	for i := range n.routers {
		r := &n.routers[i]
		for p := 0; p < r.radix; p++ {
			if r.isTerm[p] {
				total += r.srcQ[p].len()
			}
		}
	}
	return total
}
