package metrics

import "testing"

// The core interface and the extension set are part of the package's
// API contract; pin who implements what at compile time.
var (
	_ Collector = Nop{}
	_ Collector = (*ChannelUtil)(nil)
	_ Collector = Multi(nil)

	_ LinkStateObserver = (*ChannelUtil)(nil)
	_ CycleObserver     = (*ChannelUtil)(nil)

	_ FaultObserver = (*faultCounter)(nil)

	_ FaultObserver     = Multi(nil)
	_ EpochObserver     = Multi(nil)
	_ CycleObserver     = Multi(nil)
	_ EjectObserver     = Multi(nil)
	_ HopObserver       = Multi(nil)
	_ LinkStateObserver = Multi(nil)
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
	u.SetWindow(4)
	if got := u.Utilization(1); got != 0.5 {
		t.Errorf("Utilization(1) = %v, want 0.5", got)
	}
	u.Reset()
	if u.Busy(1) != 0 || u.Utilization(1) != 0 {
		t.Error("Reset did not clear counters and window")
	}
	// The narrow collector ignores every other core event (via Nop).
	u.VCOccupancy(0, 0, 0, 5)
	u.CreditRTT(0, 0, 10)
	u.Drop(0)
	u.Stall(1)
	if u.Busy(0) != 0 {
		t.Error("unrelated events perturbed channel counters")
	}
}

// TestChannelUtilSubscribesNarrowly pins the extension subscriptions:
// the flit counter consumes link liveness and cycle boundaries (for
// dead-time accounting) and nothing else — fault-packet, epoch, eject
// and hop events must stay free for sweeps that only count flits.
func TestChannelUtilSubscribesNarrowly(t *testing.T) {
	var c Collector = NewChannelUtil(2)
	if _, ok := c.(FaultObserver); ok {
		t.Error("ChannelUtil should not subscribe to fault-packet events")
	}
	if _, ok := c.(EpochObserver); ok {
		t.Error("ChannelUtil should not subscribe to epoch events")
	}
	if _, ok := c.(EjectObserver); ok {
		t.Error("ChannelUtil should not subscribe to ejection events")
	}
	if _, ok := c.(HopObserver); ok {
		t.Error("ChannelUtil should not subscribe to hop events")
	}
}

// TestChannelUtilDeadWindow exercises the dead-time accounting across
// simulated epoch swaps: utilization must be normalised by the cycles
// a link was alive, not the raw window.
func TestChannelUtilDeadWindow(t *testing.T) {
	u := NewChannelUtil(2)
	// Link 1 dies at cycle 0 and revives after 4 of the 10 cycles.
	u.LinkState(1, false, 0)
	for c := int64(1); c <= 10; c++ {
		if c == 5 {
			u.LinkState(1, true, c)
		}
		u.CycleEnd(c)
		if c > 4 { // alive cycles: one flit each on both links
			u.ChannelFlit(0)
			u.ChannelFlit(1)
		}
	}
	u.SetWindow(10)
	if got := u.DeadCycles(1); got != 4 {
		t.Fatalf("DeadCycles(1) = %d, want 4", got)
	}
	if got := u.Utilization(0); got != 0.6 {
		t.Errorf("Utilization(0) = %v, want 0.6 (6 flits / 10 alive cycles)", got)
	}
	if got := u.Utilization(1); got != 1.0 {
		t.Errorf("Utilization(1) = %v, want 1.0 (6 flits / 6 alive cycles)", got)
	}
}

// TestChannelUtilDeadWholeWindow: a link dead for the entire window
// reports utilization 0, not a division-by-zero artefact.
func TestChannelUtilDeadWholeWindow(t *testing.T) {
	u := NewChannelUtil(1)
	u.LinkState(0, false, 0)
	for c := int64(1); c <= 5; c++ {
		u.CycleEnd(c)
	}
	u.SetWindow(5)
	if got := u.Utilization(0); got != 0 {
		t.Errorf("Utilization of fully-dead link = %v, want 0", got)
	}
}

// TestChannelUtilResetKeepsLiveness: Reset opens a fresh measurement
// window (counters, window, dead time cleared) but a link that is dead
// at the boundary stays dead — its next interval starts accruing in
// the new window immediately.
func TestChannelUtilResetKeepsLiveness(t *testing.T) {
	u := NewChannelUtil(1)
	u.LinkState(0, false, 0)
	u.CycleEnd(1)
	u.CycleEnd(2)
	u.Reset()
	if got := u.DeadCycles(0); got != 0 {
		t.Fatalf("DeadCycles after Reset = %d, want 0", got)
	}
	u.CycleEnd(3)
	if got := u.DeadCycles(0); got != 1 {
		t.Errorf("DeadCycles in new window = %d, want 1 (link still dead across Reset)", got)
	}
	// Idempotent re-report (re-attachment) must not double-count.
	u.LinkState(0, false, 3)
	u.CycleEnd(4)
	if got := u.DeadCycles(0); got != 2 {
		t.Errorf("DeadCycles after redundant LinkState = %d, want 2", got)
	}
}

// recorder implements every core and extension event and counts them.
type recorder struct {
	Nop
	flits, occs, rtts, drops, stalls int
	kills, reroutes, epochs          int
	cycles, ejects, hops, linkStates int
	lastEject                        Eject
	lastHop                          Hop
}

func (r *recorder) ChannelFlit(int)                { r.flits++ }
func (r *recorder) VCOccupancy(int, int, int, int) { r.occs++ }
func (r *recorder) CreditRTT(int, int, int64)      { r.rtts++ }
func (r *recorder) Drop(int)                       { r.drops++ }
func (r *recorder) Stall(int64)                    { r.stalls++ }
func (r *recorder) Kill(int)                       { r.kills++ }
func (r *recorder) Reroute(int)                    { r.reroutes++ }
func (r *recorder) EpochSwitch(int64, int)         { r.epochs++ }
func (r *recorder) CycleEnd(int64)                 { r.cycles++ }
func (r *recorder) PacketEjected(e Eject)          { r.ejects++; r.lastEject = e }
func (r *recorder) PacketHop(h Hop)                { r.hops++; r.lastHop = h }
func (r *recorder) LinkState(int, bool, int64)     { r.linkStates++ }

// TestMultiFansOut drives every event — core and extension — through a
// Multi and verifies each child that subscribes receives it exactly
// once, while the Nop-based child that subscribes to nothing beyond
// the core neither receives extension events nor breaks the fan-out.
func TestMultiFansOut(t *testing.T) {
	a := &recorder{}
	b := &recorder{}
	narrow := NewChannelUtil(2) // subscribes to LinkState+CycleEnd only
	m := Multi{a, narrow, b}

	m.ChannelFlit(1)
	m.VCOccupancy(0, 1, 2, 3)
	m.CreditRTT(0, 0, 7)
	m.Drop(1)
	m.Stall(9)
	m.Kill(2)
	m.Reroute(2)
	m.EpochSwitch(100, 1)
	m.LinkState(1, false, 100)
	m.CycleEnd(101)
	m.PacketEjected(Eject{Cycle: 101, Packet: 42, Router: 3, Latency: 17, Minimal: true, Measured: true})
	m.PacketHop(Hop{Packet: 42, Cycle: 99, Router: 3, Port: 1, VC: 0, Link: 5, Minimal: true, CreditStall: 2})

	for i, r := range []*recorder{a, b} {
		if r.flits != 1 || r.occs != 1 || r.rtts != 1 || r.drops != 1 || r.stalls != 1 {
			t.Errorf("recorder %d missed core events: %+v", i, r)
		}
		if r.kills != 1 || r.reroutes != 1 || r.epochs != 1 {
			t.Errorf("recorder %d missed fault/epoch events: %+v", i, r)
		}
		if r.cycles != 1 || r.ejects != 1 || r.hops != 1 || r.linkStates != 1 {
			t.Errorf("recorder %d missed cycle/eject/hop/link events: %+v", i, r)
		}
		if r.lastEject.Packet != 42 || r.lastEject.Latency != 17 || !r.lastEject.Minimal {
			t.Errorf("recorder %d got wrong Eject payload: %+v", i, r.lastEject)
		}
		if r.lastHop.Link != 5 || r.lastHop.CreditStall != 2 {
			t.Errorf("recorder %d got wrong Hop payload: %+v", i, r.lastHop)
		}
	}
	// The narrow child saw the core flit plus its two extension events.
	if narrow.Busy(1) != 1 {
		t.Error("narrow child missed the core flit event")
	}
	if narrow.DeadCycles(1) != 1 {
		t.Error("narrow child missed LinkState/CycleEnd dispatch")
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
