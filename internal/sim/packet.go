package sim

// The simulator stores packet state in per-shard arenas: one 64-byte
// pkt record per slot, indexed by an int32 ref and recycled through a
// free list. The queues move refs; a hop reads and writes one record,
// and there is no per-packet heap object. The same record crosses the
// shard mailboxes and is the unit of the snapshot codec; Packet (below)
// is the observer view of one, materialised only for the OnEject hook
// and diagnostics.

// nilRef is the "no packet" ref.
const nilRef int32 = -1

// Packet flag bits (pkt.flags).
const (
	pfMinimal  uint8 = 1 << iota // source decision was minimal
	pfPhase1                     // heading for the final destination group
	pfDecided                    // source-router decision made
	pfMeasured                   // injected inside the measurement window
)

// pkt is the state of one single-flit packet (Section 4.2 of the paper
// evaluates with single-flit packets, so the packet is the unit of all
// state). The fields are ordered widest first: 61 bytes, padded to 64.
type pkt struct {
	id     uint64
	seed   uint64
	arrive int64 // cycle of arrival at the current router
	create int64 // cycle the packet entered its source queue
	inject int64 // cycle it was admitted into its source router

	dst      int32 // destination terminal
	src      int32 // source terminal
	interGrp int32 // Valiant intermediate group, -1 for minimal

	nextPort int16 // current switch request
	inPort   int16 // occupied input-buffer slot (-1 from source queue)
	hops     int16

	nextVC int8
	bufVC  int8
	flags  uint8
}

// view materialises the observer Packet for the record. EjectTime is
// not packet state (the slot is released at ejection); the caller
// stamps it.
func (q *pkt) view(p *Packet) {
	p.ID = q.id
	p.Seed = q.seed
	p.Src = int(q.src)
	p.Dst = int(q.dst)
	p.CreateTime = q.create
	p.InjectTime = q.inject
	p.EjectTime = 0
	p.Minimal = q.flags&pfMinimal != 0
	p.InterGroup = int(q.interGrp)
	p.phase1 = q.flags&pfPhase1 != 0
	p.Decided = q.flags&pfDecided != 0
	p.NextPort = int(q.nextPort)
	p.NextVC = int(q.nextVC)
	p.InPort = int(q.inPort)
	p.BufVC = int(q.bufVC)
	p.Measured = q.flags&pfMeasured != 0
	p.hops = int(q.hops)
}

// arena is the packet store: one record per slot. free holds the
// recyclable refs, LIFO so a just-freed slot is reused while still
// cache-hot.
type arena struct {
	free []int32
	p    []pkt

	// live tracks in-flight slots for the dflydebug build-tag checks;
	// nil (and never touched) in normal builds.
	live []bool
}

// capacity returns the arena capacity in slots.
func (a *arena) capacity() int { return len(a.p) }

// inUse returns the number of slots currently allocated.
func (a *arena) inUse() int { return len(a.p) - len(a.free) }

// grow doubles the arena (minimum 256 slots), appending the new refs to
// the free list in descending order so allocation hands out ascending
// refs from a fresh chunk.
func (a *arena) grow() {
	old := len(a.p)
	next := old * 2
	if next == 0 {
		next = 256
	}
	a.p = append(a.p, make([]pkt, next-old)...)
	if arenaDebug {
		a.live = append(a.live, make([]bool, next-old)...)
	}
	if cap(a.free) < next {
		free := make([]int32, len(a.free), next)
		copy(free, a.free)
		a.free = free
	}
	for ref := next - 1; ref >= old; ref-- {
		a.free = append(a.free, int32(ref))
	}
}

// alloc takes a slot off the free list (growing if empty) and resets it
// to the zero packet.
func (a *arena) alloc() int32 {
	if len(a.free) == 0 {
		a.grow()
	}
	ref := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	if arenaDebug {
		if a.live[ref] {
			panic("sim: arena handed out a ref that is still in flight")
		}
		a.live[ref] = true
	}
	a.p[ref] = pkt{}
	return ref
}

// release returns a slot to the free list.
func (a *arena) release(ref int32) {
	if arenaDebug {
		if !a.live[ref] {
			panic("sim: arena double-free")
		}
		a.live[ref] = false
	}
	a.free = append(a.free, ref)
}

// Packet is the observer view of a single-flit packet (Section 4.2 of
// the paper evaluates with single-flit packets to separate routing from
// flow-control effects; the simulator follows suit). The engine stores
// packet state in its arena; a Packet is materialised from it for the
// OnEject hook and must not be retained past the call.
type Packet struct {
	// ID is unique over the lifetime of a Network.
	ID uint64
	// Seed drives the packet's deterministic random choices (intermediate
	// group, slot selection among parallel global channels).
	Seed uint64
	// Src and Dst are terminal ids.
	Src, Dst int

	// CreateTime is the cycle the packet entered its source queue;
	// InjectTime the cycle it was admitted into its source router;
	// EjectTime the cycle it reached its destination terminal. Latency is
	// Eject-Create, which includes source queueing, as in the paper.
	CreateTime, InjectTime, EjectTime int64

	// Minimal reports the routing decision made at the source router.
	Minimal bool
	// InterGroup is the Valiant intermediate group for non-minimal
	// packets, -1 for minimal ones.
	InterGroup int
	// phase1 reports that the packet was heading for its final
	// destination group (minimal packets always are).
	phase1 bool

	// Decided marks that the source-router routing decision has been
	// made (it happens once, when the packet first reaches the head of
	// its source queue).
	Decided bool

	// NextPort and NextVC are the current hop's switch request, set by
	// the routing algorithm when the packet is buffered at a router.
	NextPort, NextVC int

	// InPort and BufVC identify the input buffer slot the packet
	// occupies at its current router: the port it was delivered on and
	// the virtual channel it travelled in (the NextVC of the previous
	// hop). InPort is -1 for packets injected from a source queue.
	InPort, BufVC int

	// Measured marks packets created inside the measurement window.
	Measured bool

	hops int
}

// Hops counts the router-to-router channels the packet traversed.
func (p *Packet) Hops() int { return p.hops }
