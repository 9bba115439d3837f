package sim

import (
	"testing"
	"unsafe"
)

// TestPacketRecordLayout pins the record to one 64-byte cache line and
// the codec to the wire size the snapshot format declares.
func TestPacketRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(pkt{}); got != 64 {
		t.Errorf("pkt is %d bytes, want 64", got)
	}
	if got := (&snapCodec{}).packet(0, &pkt{}); got != packetWire {
		t.Errorf("the packet coder walks %d bytes, want packetWire = %d", got, packetWire)
	}
}

func TestArenaAllocResetsSlot(t *testing.T) {
	var a arena
	ref := a.alloc()
	a.p[ref] = pkt{dst: 7, flags: pfMinimal | pfMeasured, interGrp: 3, hops: 5}
	a.release(ref)
	got := a.alloc()
	if got != ref {
		t.Fatalf("LIFO free list did not hand back the hot slot: got %d, want %d", got, ref)
	}
	if a.p[got] != (pkt{}) {
		t.Errorf("alloc did not reset the recycled slot: %+v", a.p[got])
	}
}

func TestArenaRecyclingKeepsInUseBounded(t *testing.T) {
	// The drop and eject paths both release into the same free list; a
	// workload that frees as much as it allocates must not grow the
	// arena past its first high-water mark.
	var a arena
	live := make([]int32, 0, 64)
	for i := 0; i < 64; i++ {
		live = append(live, a.alloc())
	}
	capAfterWarmup := a.capacity()
	for round := 0; round < 10000; round++ {
		// Free one (alternating "eject" from the front and "drop" from the
		// back of the live set) and allocate one.
		var ref int32
		if round%2 == 0 {
			ref = live[0]
			live = live[1:]
		} else {
			ref = live[len(live)-1]
			live = live[:len(live)-1]
		}
		a.release(ref)
		live = append(live, a.alloc())
	}
	if a.capacity() != capAfterWarmup {
		t.Errorf("arena grew from %d to %d slots under a recycling workload", capAfterWarmup, a.capacity())
	}
	if got := a.inUse(); got != len(live) {
		t.Errorf("inUse = %d, want %d", got, len(live))
	}
}

func TestArenaNoRefHandedOutTwice(t *testing.T) {
	// Until released, a ref must never be handed out again, across
	// growth included.
	var a arena
	seen := make(map[int32]bool)
	for i := 0; i < 1000; i++ {
		ref := a.alloc()
		if seen[ref] {
			t.Fatalf("ref %d handed out while in flight", ref)
		}
		seen[ref] = true
	}
}

func TestArenaGrowDoubles(t *testing.T) {
	var a arena
	a.alloc()
	if a.capacity() != 256 {
		t.Fatalf("first chunk = %d slots, want 256", a.capacity())
	}
	for i := 1; i < 257; i++ {
		a.alloc()
	}
	if a.capacity() != 512 {
		t.Fatalf("after 257 allocs capacity = %d, want 512", a.capacity())
	}
	if a.inUse() != 257 {
		t.Fatalf("inUse = %d, want 257", a.inUse())
	}
}
