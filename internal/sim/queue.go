package sim

// The simulator's FIFOs are power-of-two ring buffers: the wrap is a
// single mask (`& (len-1)`) instead of a modulo, and the payloads are
// arena refs and small structs, so a queue never holds pointers for the
// garbage collector to trace.

// pow2 rounds n up to the next power of two (minimum 8).
func pow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// pktQueue is a growable FIFO of packet refs. Input-buffer queues are
// bounded by credits, source queues are unbounded; both use the same
// structure.
type pktQueue struct {
	buf  []int32
	head int
	n    int
}

func (q *pktQueue) len() int { return q.n }

// peek returns the head ref, nilRef when empty.
func (q *pktQueue) peek() int32 {
	if q.n == 0 {
		return nilRef
	}
	return q.buf[q.head]
}

func (q *pktQueue) push(ref int32) {
	if q.n == len(q.buf) {
		q.grow(len(q.buf) * 2)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = ref
	q.n++
}

// pop removes and returns the head ref, nilRef when empty.
func (q *pktQueue) pop() int32 {
	if q.n == 0 {
		return nilRef
	}
	ref := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return ref
}

func (q *pktQueue) grow(want int) {
	nb := make([]int32, pow2(want))
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = nb
	q.head = 0
}

// reserve pre-sizes an empty ring so steady-state pushes never allocate.
func (q *pktQueue) reserve(n int) {
	if len(q.buf) == 0 {
		q.buf = make([]int32, pow2(n))
	}
}

// flitEntry is a packet in flight on a link.
type flitEntry struct {
	at  int64
	ref int32
	vc  uint8
}

// flitQueue is a FIFO delay line for flits on a channel. Entries are
// enqueued with non-decreasing delivery times because every flit on a
// given channel has the same latency.
type flitQueue struct {
	buf  []flitEntry
	head int
	n    int
}

func (q *flitQueue) len() int { return q.n }

func (q *flitQueue) push(e flitEntry) {
	if q.n == len(q.buf) {
		q.grow(len(q.buf) * 2)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *flitQueue) peek() *flitEntry {
	if q.n == 0 {
		return nil
	}
	return &q.buf[q.head]
}

func (q *flitQueue) pop() flitEntry {
	e := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return e
}

func (q *flitQueue) grow(want int) {
	nb := make([]flitEntry, pow2(want))
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = nb
	q.head = 0
}

// reserve pre-sizes an empty ring so steady-state pushes never allocate.
func (q *flitQueue) reserve(n int) {
	if len(q.buf) == 0 {
		q.buf = make([]flitEntry, pow2(n))
	}
}

// clear empties the queue, keeping its storage.
func (q *flitQueue) clear() {
	q.head = 0
	q.n = 0
}

// countVC counts the queued flits travelling on vc (invariant checks).
func (q *flitQueue) countVC(vc uint8) int {
	c := 0
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)&mask].vc == vc {
			c++
		}
	}
	return c
}

// creditQueue is the upstream delay line for credits, and the
// per-output send-timestamp FIFO of the credit round-trip sensor
// (Router.ctq, which leaves the VC at 0). The credit round-trip
// mechanism can delay individual credits, so delivery times are forced
// monotone on push: flits and credits are 1:1 and keep ordering
// (Section 4.3.2), meaning a delayed credit holds back the ones behind
// it.
//
// Each entry is one uint64: the delivery cycle in the high 56 bits, the
// VC in the low 8, so eight entries share a cache line. A ring's head
// walks its whole buffer, so its cache footprint is its capacity, not
// its occupancy; the rings therefore start at creditRing entries and
// double on demand. Credit conservation caps a line at VCs×BufDepth
// entries, so a ring grows at most a few times in its life.
type creditQueue struct {
	buf    []uint64
	head   int
	n      int
	lastAt int64
}

// creditRing is the starting capacity of a credit line: one 64-byte
// cache line of packed entries.
const creditRing = 8

// maxCreditAt bounds the delivery cycles a packed entry can hold
// (exclusive): 56 bits, with the sign bit clear.
const maxCreditAt = int64(1) << 55

func (q *creditQueue) len() int { return q.n }

func (q *creditQueue) push(vc uint8, at int64) {
	if at < q.lastAt {
		at = q.lastAt
	}
	q.lastAt = at
	if q.n == len(q.buf) {
		q.grow(len(q.buf) * 2)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = uint64(at)<<8 | uint64(vc)
	q.n++
}

// peekAt returns the head entry's delivery cycle; ok is false when the
// queue is empty.
func (q *creditQueue) peekAt() (at int64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	return int64(q.buf[q.head]) >> 8, true
}

func (q *creditQueue) pop() (vc uint8, at int64) {
	e := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return uint8(e), int64(e) >> 8
}

// entry returns the VC and delivery cycle of the i-th entry from the
// head.
func (q *creditQueue) entry(i int) (vc uint8, at int64) {
	e := q.buf[(q.head+i)&(len(q.buf)-1)]
	return uint8(e), int64(e) >> 8
}

func (q *creditQueue) grow(want int) {
	nb := make([]uint64, pow2(want))
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = nb
	q.head = 0
}

// reserve sizes an empty ring to its starting cache line.
func (q *creditQueue) reserve() {
	if len(q.buf) == 0 {
		q.buf = make([]uint64, creditRing)
	}
}

// clear empties the queue and resets the monotone-delivery clamp,
// keeping the storage (link retraining after a fault revival).
func (q *creditQueue) clear() {
	q.head = 0
	q.n = 0
	q.lastAt = 0
}

// wellFormed reports whether the line holds at most limit entries, in
// non-decreasing delivery order, none past the clamp, and the clamp
// inside the packed range (invariant checks).
func (q *creditQueue) wellFormed(limit int) bool {
	if q.n > limit || q.lastAt < 0 || q.lastAt >= maxCreditAt {
		return false
	}
	prev := int64(0)
	for i := 0; i < q.n; i++ {
		_, at := q.entry(i)
		if at < prev || at > q.lastAt {
			return false
		}
		prev = at
	}
	return true
}

// countVC counts the queued credits for vc (invariant checks).
func (q *creditQueue) countVC(vc uint8) int {
	c := 0
	for i := 0; i < q.n; i++ {
		if v, _ := q.entry(i); v == vc {
			c++
		}
	}
	return c
}
