package metrics

import "testing"

// The core interface and the extension set are part of the package's
// API contract; pin who implements what at compile time.
var (
	_ Collector = Nop{}
	_ Collector = (*ChannelUtil)(nil)
	_ Collector = Multi(nil)

	_ FaultObserver = (*faultCounter)(nil)

	_ FaultObserver = Multi(nil)
	_ CycleObserver = Multi(nil)
	_ EjectObserver = Multi(nil)
	_ HopObserver   = Multi(nil)
)

func TestChannelUtil(t *testing.T) {
	u := NewChannelUtil(4)
	if len(u.busy) != 4 {
		t.Fatalf("tracking %d links, want 4", len(u.busy))
	}
	u.ChannelFlit(1)
	u.ChannelFlit(1)
	u.ChannelFlit(3)
	if u.Busy(1) != 2 || u.Busy(3) != 1 || u.Busy(0) != 0 {
		t.Errorf("busy counts wrong: %d %d %d", u.Busy(0), u.Busy(1), u.Busy(3))
	}
	// The narrow collector ignores every other core event (via Nop).
	u.VCOccupancy(0, 0, 0, 5)
	u.Drop(0)
	if u.Busy(0) != 0 || u.Busy(1) != 2 {
		t.Error("unrelated events perturbed channel counters")
	}
}

// TestChannelUtilSubscribesNarrowly pins the extension subscriptions:
// the flit counter consumes no extension event — fault-packet, cycle,
// eject and hop events must stay free for sweeps that only count flits.
func TestChannelUtilSubscribesNarrowly(t *testing.T) {
	var c Collector = NewChannelUtil(2)
	if _, ok := c.(FaultObserver); ok {
		t.Error("ChannelUtil should not subscribe to fault-packet events")
	}
	if _, ok := c.(CycleObserver); ok {
		t.Error("ChannelUtil should not subscribe to cycle boundaries")
	}
	if _, ok := c.(EjectObserver); ok {
		t.Error("ChannelUtil should not subscribe to ejection events")
	}
	if _, ok := c.(HopObserver); ok {
		t.Error("ChannelUtil should not subscribe to hop events")
	}
}

// recorder implements every core and extension event and counts them.
type recorder struct {
	Nop
	flits, occs, drops   int
	kills, reroutes      int
	cycles, ejects, hops int
	lastEject            Eject
	lastHop              Hop
}

func (r *recorder) ChannelFlit(int)                { r.flits++ }
func (r *recorder) VCOccupancy(int, int, int, int) { r.occs++ }
func (r *recorder) Drop(int)                       { r.drops++ }
func (r *recorder) Kill(int)                       { r.kills++ }
func (r *recorder) Reroute(int)                    { r.reroutes++ }
func (r *recorder) CycleEnd(int64)                 { r.cycles++ }
func (r *recorder) PacketEjected(e Eject)          { r.ejects++; r.lastEject = e }
func (r *recorder) PacketHop(h Hop)                { r.hops++; r.lastHop = h }

// TestMultiFansOut drives every event — core and extension — through a
// Multi and verifies each child that subscribes receives it exactly
// once, while the Nop-based child that subscribes to nothing beyond
// the core neither receives extension events nor breaks the fan-out.
func TestMultiFansOut(t *testing.T) {
	a := &recorder{}
	b := &recorder{}
	narrow := NewChannelUtil(2) // subscribes to no extension event
	m := Multi{a, narrow, b}

	m.ChannelFlit(1)
	m.VCOccupancy(0, 1, 2, 3)
	m.Drop(1)
	m.Kill(2)
	m.Reroute(2)
	m.CycleEnd(101)
	m.PacketEjected(Eject{Cycle: 101, Packet: 42, Router: 3, Latency: 17, Minimal: true, Measured: true})
	m.PacketHop(Hop{Packet: 42, Cycle: 99, Router: 3, Port: 1, VC: 0, Link: 5, Minimal: true, CreditStall: 2})

	for i, r := range []*recorder{a, b} {
		if r.flits != 1 || r.occs != 1 || r.drops != 1 {
			t.Errorf("recorder %d missed core events: %+v", i, r)
		}
		if r.kills != 1 || r.reroutes != 1 {
			t.Errorf("recorder %d missed fault events: %+v", i, r)
		}
		if r.cycles != 1 || r.ejects != 1 || r.hops != 1 {
			t.Errorf("recorder %d missed cycle/eject/hop events: %+v", i, r)
		}
		if r.lastEject.Packet != 42 || r.lastEject.Latency != 17 || !r.lastEject.Minimal {
			t.Errorf("recorder %d got wrong Eject payload: %+v", i, r.lastEject)
		}
		if r.lastHop.Link != 5 || r.lastHop.CreditStall != 2 {
			t.Errorf("recorder %d got wrong Hop payload: %+v", i, r.lastHop)
		}
	}
	// The narrow child saw the core flit event.
	if narrow.Busy(1) != 1 {
		t.Error("narrow child missed the core flit event")
	}
}

// faultCounter subscribes to the fault extension and nothing else.
type faultCounter struct {
	Nop
	kills int
}

func (f *faultCounter) Kill(int)    { f.kills++ }
func (f *faultCounter) Reroute(int) {}

// TestMultiSelectiveDispatch: extension events reach only the children
// that implement the matching interface, in order.
func TestMultiSelectiveDispatch(t *testing.T) {
	fc := &faultCounter{}
	r := &recorder{}
	m := Multi{fc, Nop{}, r}
	m.Kill(0)
	m.PacketHop(Hop{Packet: 1})
	if fc.kills != 1 {
		t.Error("fault observer missed the Kill dispatch")
	}
	if r.kills != 1 || r.hops != 1 {
		t.Error("recorder missed extension dispatch")
	}
}
