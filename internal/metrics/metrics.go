// Package metrics is the simulator's instrumentation layer: a small
// event interface the cycle engine emits into, with implementations
// that count flits per channel (Figure 9) or fold events into
// measurement windows and per-hop traces (internal/obs).
//
// The layer is designed to cost nothing when unused. The simulator
// holds a Collector interface value that is nil in the common case, and
// every emission site in the hot loop is guarded by a single nil check
// — a plain simulation pays one untaken branch per event site and no
// interface call, no allocation, no counter write. Attaching a
// collector (Network.AttachMetrics) switches the events on for exactly
// as long as it stays attached.
//
// # Core interface and extension interfaces
//
// Collector is deliberately small: the three events every run can emit.
// Everything else — fault-timeline packet events, per-ejection and
// per-hop records, cycle boundaries — lives in optional extension
// interfaces (FaultObserver, EjectObserver, CycleObserver, HopObserver)
// that the engine discovers once, by type assertion, when the collector
// is attached. A collector subscribes to an event family by
// implementing its interface; adding a new extension interface never
// breaks existing implementations. Embed Nop to satisfy the core
// interface with no-ops and override only the events you consume.
package metrics

// Collector receives the core instrumentation events from the cycle
// engine. Implementations must not retain references into simulator
// state and must be cheap: events fire from the hot loop, once per
// flit. A nil Collector is the zero-cost "off" state; use
// Multi to fan events out to several collectors, and embed Nop so
// only the events you consume need methods.
type Collector interface {
	// ChannelFlit records one flit forwarded onto the channel with the
	// given link id (Network.LinkID maps (router, port) to link ids).
	ChannelFlit(link int)
	// VCOccupancy records the occupancy of input buffer (router, port,
	// vc) right after a flit was delivered into it.
	VCOccupancy(router, port, vc, occupancy int)
	// Drop records a packet dropped as unroutable at the given router.
	Drop(router int)
}

// FaultObserver is the extension interface for fault-timeline packet
// events. Collectors that implement it alongside Collector receive
// them; everyone else never sees them.
type FaultObserver interface {
	// Kill records a packet destroyed in flight by a fault-timeline
	// epoch swap (its channel failed or its router went down) at the
	// given router. Distinct from Drop: a killed packet was routable,
	// the fault simply destroyed it.
	Kill(router int)
	// Reroute records a queued packet re-pointed at a new output after
	// an epoch swap killed its chosen channel, at the given router.
	Reroute(router int)
}

// CycleObserver is the extension interface for cycle boundaries: the
// engine calls CycleEnd exactly once per simulated cycle, after every
// router has been serviced. Windowed collectors (internal/obs) use it
// to close measurement windows deterministically.
type CycleObserver interface {
	CycleEnd(cycle int64)
}

// Eject is the payload of an ejection event: one packet leaving the
// network at its destination terminal.
type Eject struct {
	// Cycle is the ejection cycle; Packet the network-unique packet id.
	Cycle  int64
	Packet uint64
	// Router is the destination router the packet ejected at.
	Router int
	// Latency is ejection minus creation time, source queueing included
	// (the paper's latency definition).
	Latency int64
	// Minimal reports the source-router routing decision; Measured that
	// the packet was injected inside a measurement window.
	Minimal, Measured bool
}

// EjectObserver is the extension interface for per-ejection records.
// It fires for every ejected packet, measured or not, which is what
// windowed throughput/latency series need.
type EjectObserver interface {
	PacketEjected(e Eject)
}

// Hop is the payload of a per-hop trace event: one flit departing a
// router onto a channel. The JSON tags are part of the versioned
// report schema (internal/obs).
type Hop struct {
	// Packet is the network-unique packet id; Cycle the departure cycle.
	Packet uint64 `json:"packet"`
	Cycle  int64  `json:"cycle"`
	// Router, Port and VC locate the traversed output; Link is the
	// channel id (Network.LinkID).
	Router int `json:"router"`
	Port   int `json:"port"`
	VC     int `json:"vc"`
	Link   int `json:"link"`
	// Minimal and Phase1 snapshot the routing state: the source decision
	// and whether the packet is heading for its final destination group.
	Minimal bool `json:"minimal"`
	Phase1  bool `json:"phase1"`
	// CreditStall counts the cycles this output VC spent with flits
	// waiting but no downstream credits since its previous departure —
	// the credit-backpressure component of the hop's queueing delay.
	CreditStall int64 `json:"credit_stall"`
}

// HopObserver is the extension interface for per-hop trace records.
// It fires once per flit per traversed channel, so implementations
// (internal/obs.Tracer samples and bounds them) must be cheap.
type HopObserver interface {
	PacketHop(h Hop)
}

// Nop implements every core Collector event as a no-op. Embed it to
// build collectors that only consume some events — added core events
// then never break implementors.
type Nop struct{}

// ChannelFlit implements Collector (no-op).
func (Nop) ChannelFlit(int) {}

// VCOccupancy implements Collector (no-op).
func (Nop) VCOccupancy(int, int, int, int) {}

// Drop implements Collector (no-op).
func (Nop) Drop(int) {}

// ChannelUtil counts flits per channel, the measurement behind the
// paper's Figure 9 (per-channel utilization). Only ChannelFlit is
// active; every other event is a Nop.
type ChannelUtil struct {
	Nop
	busy []int64
}

// NewChannelUtil returns a counter set for a network with the given
// number of links (Network.NumLinks).
func NewChannelUtil(links int) *ChannelUtil {
	return &ChannelUtil{busy: make([]int64, links)}
}

// ChannelFlit implements Collector.
func (u *ChannelUtil) ChannelFlit(link int) { u.busy[link]++ }

// Busy returns the flit count recorded on link id while attached.
func (u *ChannelUtil) Busy(link int) int64 { return u.busy[link] }

// Multi fans every event out to all collectors in order. Core events
// reach every element; extension events reach the elements that
// implement the matching extension interface. Multi itself implements
// every extension interface, so the engine always discovers the full
// event set and per-element subscription is resolved inside the
// fan-out.
type Multi []Collector

// ChannelFlit implements Collector.
func (m Multi) ChannelFlit(link int) {
	for _, c := range m {
		c.ChannelFlit(link)
	}
}

// VCOccupancy implements Collector.
func (m Multi) VCOccupancy(router, port, vc, occupancy int) {
	for _, c := range m {
		c.VCOccupancy(router, port, vc, occupancy)
	}
}

// Drop implements Collector.
func (m Multi) Drop(router int) {
	for _, c := range m {
		c.Drop(router)
	}
}

// Kill implements FaultObserver.
func (m Multi) Kill(router int) {
	for _, c := range m {
		if o, ok := c.(FaultObserver); ok {
			o.Kill(router)
		}
	}
}

// Reroute implements FaultObserver.
func (m Multi) Reroute(router int) {
	for _, c := range m {
		if o, ok := c.(FaultObserver); ok {
			o.Reroute(router)
		}
	}
}

// CycleEnd implements CycleObserver.
func (m Multi) CycleEnd(cycle int64) {
	for _, c := range m {
		if o, ok := c.(CycleObserver); ok {
			o.CycleEnd(cycle)
		}
	}
}

// PacketEjected implements EjectObserver.
func (m Multi) PacketEjected(e Eject) {
	for _, c := range m {
		if o, ok := c.(EjectObserver); ok {
			o.PacketEjected(e)
		}
	}
}

// PacketHop implements HopObserver.
func (m Multi) PacketHop(h Hop) {
	for _, c := range m {
		if o, ok := c.(HopObserver); ok {
			o.PacketHop(h)
		}
	}
}
