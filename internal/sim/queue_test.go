package sim

import (
	"testing"
	"testing/quick"
)

func TestPktQueueFIFO(t *testing.T) {
	var q pktQueue
	if q.pop() != nilRef || q.peek() != nilRef || q.len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	for i := int32(0); i < 20; i++ {
		q.push(i)
	}
	if q.len() != 20 {
		t.Fatalf("len = %d", q.len())
	}
	for i := int32(0); i < 20; i++ {
		if q.peek() != i {
			t.Fatalf("peek out of order at %d", i)
		}
		if q.pop() != i {
			t.Fatalf("pop out of order at %d", i)
		}
	}
	if q.len() != 0 {
		t.Fatal("queue not empty after draining")
	}
}

func TestPktQueueWrapAround(t *testing.T) {
	// Interleave pushes and pops so head wraps around the ring multiple
	// times, including across growth.
	var q pktQueue
	next := int32(0)
	want := int32(0)
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			ref := q.pop()
			if ref != want {
				t.Fatalf("round %d: popped %d, want %d", round, ref, want)
			}
			want++
		}
	}
	for q.len() > 0 {
		ref := q.pop()
		if ref != want {
			t.Fatalf("drain: popped %d, want %d", ref, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("lost packets: %d of %d", want, next)
	}
}

func TestQueueCapacityStaysPowerOfTwo(t *testing.T) {
	// The masked wrap is only correct on power-of-two rings; growth must
	// preserve the invariant from every starting size.
	var q pktQueue
	for i := int32(0); i < 1000; i++ {
		q.push(i)
		if c := len(q.buf); c&(c-1) != 0 {
			t.Fatalf("capacity %d not a power of two after %d pushes", c, i+1)
		}
	}
	for i := int32(0); i < 1000; i++ {
		if q.pop() != i {
			t.Fatalf("order lost at %d", i)
		}
	}
}

func TestFlitQueueOrderAndGrowth(t *testing.T) {
	var q flitQueue
	for i := 0; i < 100; i++ {
		q.push(flitEntry{ref: int32(i), vc: uint8(i % 3), at: int64(i)})
	}
	for i := 0; i < 100; i++ {
		e := q.peek()
		if e == nil || e.ref != int32(i) || e.at != int64(i) {
			t.Fatalf("entry %d out of order", i)
		}
		q.pop()
	}
	if q.len() != 0 {
		t.Fatal("not drained")
	}
}

func TestCreditQueueMonotoneDelivery(t *testing.T) {
	// The credit-delay mechanism can compute earlier delivery times for
	// later credits; the queue must clamp them monotone (credits keep
	// their wire order).
	var q creditQueue
	q.push(0, 100)
	q.push(1, 50) // would overtake; must clamp to 100
	q.push(2, 150)
	wants := []int64{100, 100, 150}
	for i, want := range wants {
		at, ok := q.peekAt()
		if !ok || at != want {
			t.Fatalf("credit %d: at=%d ok=%v, want %d", i, at, ok, want)
		}
		if vc, got := q.pop(); int(vc) != i || got != want {
			t.Fatalf("credit %d: popped (vc %d, at %d), want (%d, %d)", i, vc, got, i, want)
		}
	}
	if _, ok := q.peekAt(); ok {
		t.Fatal("drained queue still peeks an entry")
	}
}

func TestCreditQueuePackedRoundTrip(t *testing.T) {
	// The extremes of both packed fields survive the 56/8-bit split.
	top := maxCreditAt - 1
	in := []struct {
		vc uint8
		at int64
	}{{0, 0}, {255, 0}, {0, top}, {255, top}}
	var q creditQueue
	q.reserve()
	for _, e := range in {
		q.push(e.vc, e.at)
	}
	for i, e := range in {
		if vc, at := q.entry(i); vc != e.vc || at != e.at {
			t.Errorf("entry %d = (vc %d, at %d), want (%d, %d)", i, vc, at, e.vc, e.at)
		}
	}
	for i, e := range in {
		if at, _ := q.peekAt(); at != e.at {
			t.Errorf("peek %d = %d, want %d", i, at, e.at)
		}
		if vc, at := q.pop(); vc != e.vc || at != e.at {
			t.Errorf("pop %d = (vc %d, at %d), want (%d, %d)", i, vc, at, e.vc, e.at)
		}
	}
}

func TestCreditQueueGrowsMidRing(t *testing.T) {
	// A ring starts at one cache line; growing it with the head in the
	// middle of the buffer must keep FIFO order across the wrap.
	var q creditQueue
	q.reserve()
	if len(q.buf) != creditRing {
		t.Fatalf("reserved %d entries, want %d", len(q.buf), creditRing)
	}
	for i := 0; i < 5; i++ {
		q.push(uint8(i), int64(i))
		q.pop()
	}
	const n = 21
	for i := 0; i < n; i++ {
		q.push(uint8(i%7), int64(10+i))
	}
	if len(q.buf) != 32 {
		t.Fatalf("ring holds %d entries after %d pushes, want 32", len(q.buf), n)
	}
	for i := 0; i < n; i++ {
		if vc, at := q.pop(); int(vc) != i%7 || at != int64(10+i) {
			t.Fatalf("pop %d = (vc %d, at %d), want (%d, %d)", i, vc, at, i%7, 10+i)
		}
	}
	if q.len() != 0 {
		t.Fatal("not drained")
	}
}

func TestCreditQueuePropertyFIFOCount(t *testing.T) {
	f := func(ats []int16) bool {
		var q creditQueue
		for i, at := range ats {
			q.push(uint8(i%3), int64(at))
		}
		n := 0
		last := int64(-1 << 62)
		for q.len() > 0 {
			vc, at := q.pop()
			if at < last || int(vc) != n%3 {
				return false
			}
			last = at
			n++
		}
		return n == len(ats)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAsymEwmaAttackAndDecay(t *testing.T) {
	// Slow attack: a single high sample barely moves the estimate.
	if got := asymEwma(0, 320); got > 10 {
		t.Errorf("attack too fast: %d", got)
	}
	// Repeated high samples converge upward.
	v := int64(0)
	for i := 0; i < 400; i++ {
		v = asymEwma(v, 320)
	}
	if v < 300 {
		t.Errorf("attack did not converge: %d", v)
	}
	// Decay is symmetric (1/32 gain down).
	v2 := asymEwma(v, 0)
	if v2 >= v || v-v2 > v/16+1 {
		t.Errorf("decay rate wrong: %d -> %d", v, v2)
	}
}

func TestEwma(t *testing.T) {
	if got := ewma(0, 40); got != 10 {
		t.Errorf("ewma(0,40) = %d, want 10", got)
	}
	if got := ewma(100, 100); got != 100 {
		t.Errorf("ewma fixed point broken: %d", got)
	}
}

func TestRNGStreamsDiffer(t *testing.T) {
	// Neighbouring streams must not replay each other's sequences with a
	// fixed shift — the bug class that synchronised the whole network.
	a := NewRNG(1, 10)
	b := NewRNG(1, 11)
	aVals := make([]uint64, 32)
	bVals := make([]uint64, 32)
	for i := range aVals {
		aVals[i] = a.Next()
		bVals[i] = b.Next()
	}
	for shift := 0; shift < 8; shift++ {
		same := 0
		for i := 0; i+shift < len(aVals); i++ {
			if aVals[i+shift] == bVals[i] || bVals[i+shift] == aVals[i] {
				same++
			}
		}
		if same > 0 {
			t.Fatalf("streams overlap at shift %d", shift)
		}
	}
}

func TestRNGIntnAndFloat64Ranges(t *testing.T) {
	r := NewRNG(7, 3)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}
