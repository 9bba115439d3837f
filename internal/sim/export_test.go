package sim

// SnapshotSizeHint exposes the snapshot encoder's preallocation bound
// to the external tests.
func (n *Network) SnapshotSizeHint() int { return n.snapshotSizeHint() }

// Crew exposes the sharded engine's phase dispatcher to the external
// tests, which drive it with phase functions of their own.
type Crew = crew

// NewCrew starts a crew for k-function phases.
func NewCrew(k int) *Crew { return newCrew(k) }

// Run runs one phase: fns[0] on the caller, the rest on the workers.
func (c *crew) Run(fns []func()) { c.run(fns) }

// Stop ends the crew's workers.
func (c *crew) Stop() { c.stop() }

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
