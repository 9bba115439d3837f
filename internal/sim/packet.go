package sim

// The simulator stores packet state in per-shard arenas: one 64-byte
// pkt record per slot, indexed by an int32 ref and recycled through a
// free list. The queues move refs; a hop reads and writes one record,
// and there is no per-packet heap object. The same record crosses the
// shard mailboxes and is the unit of the snapshot codec. Nothing outside
// the engine sees a record: an ejection leaves as a metrics.Eject (see
// eject), and the slot is recycled at once.

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
