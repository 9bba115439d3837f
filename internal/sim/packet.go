package sim

// The simulator stores packet state in a per-network arena: parallel
// slices (struct of arrays) indexed by a packet ref, recycled through a
// free list. The hot loop moves int32 refs through the queues and
// touches only the columns a phase needs — no per-packet heap object,
// no pointer chasing, and growth allocates whole columns at a time
// instead of one packet per injection.
//
// Packet (below) is the observer view of one slot, materialised only
// for the OnEject hook and diagnostics.

// nilRef is the "no packet" ref.
const nilRef int32 = -1

// Packet flag bits (arena.flags column).
const (
	pfMinimal  uint8 = 1 << iota // source decision was minimal
	pfPhase1                     // heading for the final destination group
	pfDecided                    // source-router decision made
	pfMeasured                   // injected inside the measurement window
)

// arena is the struct-of-arrays packet store. Every column has the same
// length (the arena capacity); free holds the recyclable refs, LIFO so
// a just-freed slot is reused while still cache-hot. Single-flit
// packets (Section 4.2) make the slot the unit of everything.
type arena struct {
	free []int32

	// Hot columns, read/written every hop.
	dst      []int32 // destination terminal
	seed     []uint64
	flags    []uint8
	interGrp []int32 // Valiant intermediate group, -1 for minimal
	nextPort []int16 // current switch request
	nextVC   []int8
	inPort   []int16 // occupied input-buffer slot (-1 from source queue)
	bufVC    []int8
	arrive   []int64 // cycle of arrival at the current router
	create   []int64 // cycle the packet entered its source queue

	// Cold columns, touched at injection/ejection only.
	id     []uint64
	src    []int32
	inject []int64
	hops   []int16

	// live tracks in-flight slots for the dflydebug build-tag checks;
	// nil (and never touched) in normal builds.
	live []bool
}

// cap returns the arena capacity in slots.
func (a *arena) capacity() int { return len(a.dst) }

// inUse returns the number of slots currently allocated.
func (a *arena) inUse() int { return len(a.dst) - len(a.free) }

// grow doubles the arena (minimum 256 slots), appending the new refs to
// the free list in descending order so allocation hands out ascending
// refs from a fresh chunk.
func (a *arena) grow() {
	old := len(a.dst)
	next := old * 2
	if next == 0 {
		next = 256
	}
	add := next - old
	a.dst = append(a.dst, make([]int32, add)...)
	a.seed = append(a.seed, make([]uint64, add)...)
	a.flags = append(a.flags, make([]uint8, add)...)
	a.interGrp = append(a.interGrp, make([]int32, add)...)
	a.nextPort = append(a.nextPort, make([]int16, add)...)
	a.nextVC = append(a.nextVC, make([]int8, add)...)
	a.inPort = append(a.inPort, make([]int16, add)...)
	a.bufVC = append(a.bufVC, make([]int8, add)...)
	a.arrive = append(a.arrive, make([]int64, add)...)
	a.create = append(a.create, make([]int64, add)...)
	a.id = append(a.id, make([]uint64, add)...)
	a.src = append(a.src, make([]int32, add)...)
	a.inject = append(a.inject, make([]int64, add)...)
	a.hops = append(a.hops, make([]int16, add)...)
	if arenaDebug {
		a.live = append(a.live, make([]bool, add)...)
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

// alloc takes a slot off the free list (growing if empty) and resets
// its columns to the zero packet.
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
	a.dst[ref] = 0
	a.seed[ref] = 0
	a.flags[ref] = 0
	a.interGrp[ref] = 0
	a.nextPort[ref] = 0
	a.nextVC[ref] = 0
	a.inPort[ref] = 0
	a.bufVC[ref] = 0
	a.arrive[ref] = 0
	a.create[ref] = 0
	a.id[ref] = 0
	a.src[ref] = 0
	a.inject[ref] = 0
	a.hops[ref] = 0
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

// view materialises the observer Packet for a slot. EjectTime is not
// arena state (the slot is released at ejection); the caller stamps it.
func (a *arena) view(ref int32, p *Packet) {
	f := a.flags[ref]
	p.ID = a.id[ref]
	p.Seed = a.seed[ref]
	p.Src = int(a.src[ref])
	p.Dst = int(a.dst[ref])
	p.CreateTime = a.create[ref]
	p.InjectTime = a.inject[ref]
	p.EjectTime = 0
	p.Minimal = f&pfMinimal != 0
	p.InterGroup = int(a.interGrp[ref])
	p.phase1 = f&pfPhase1 != 0
	p.Decided = f&pfDecided != 0
	p.NextPort = int(a.nextPort[ref])
	p.NextVC = int(a.nextVC[ref])
	p.InPort = int(a.inPort[ref])
	p.BufVC = int(a.bufVC[ref])
	p.Measured = f&pfMeasured != 0
	p.hops = int(a.hops[ref])
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

// Phase1 reports whether the packet was heading for its final
// destination group (true) or still for its Valiant intermediate group.
func (p *Packet) Phase1() bool { return p.phase1 }

// Hops counts the router-to-router channels the packet traversed.
func (p *Packet) Hops() int { return p.hops }
