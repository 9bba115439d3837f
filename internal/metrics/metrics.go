// Package metrics is the simulator's instrumentation layer: a small
// event interface the cycle engine emits into, with implementations
// that aggregate per-channel utilization, input-buffer VC occupancy
// histograms, credit round-trip samples and drop/stall counters.
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
// Collector is deliberately small: the five events every run can emit.
// Everything else — fault-timeline events, per-ejection and per-hop
// records, cycle boundaries, link liveness — lives in optional
// extension interfaces (FaultObserver, EpochObserver, EjectObserver,
// CycleObserver, HopObserver, LinkStateObserver) that the engine
// discovers once, by type assertion, when the collector is attached.
// A collector subscribes to an event family by implementing its
// interface; adding a new extension interface never breaks existing
// implementations. Embed Nop to satisfy the core interface with
// no-ops and override only the events you consume.
package metrics

// Collector receives the core instrumentation events from the cycle
// engine. Implementations must not retain references into simulator
// state and must be cheap: events fire from the hot loop, once per
// flit or credit. A nil Collector is the zero-cost "off" state; use
// Multi to fan events out to several collectors, and embed Nop so
// only the events you consume need methods.
type Collector interface {
	// ChannelFlit records one flit forwarded onto the channel with the
	// given link id (Network.LinkID maps (router, port) to link ids).
	ChannelFlit(link int)
	// VCOccupancy records the occupancy of input buffer (router, port,
	// vc) right after a flit was delivered into it.
	VCOccupancy(router, port, vc, occupancy int)
	// CreditRTT records one measured credit round-trip time on output
	// (router, port): the cycles from flit departure to credit return.
	CreditRTT(router, port int, rtt int64)
	// Drop records a packet dropped as unroutable at the given router.
	Drop(router int)
	// Stall records a deadlock-detector trip at the given cycle.
	Stall(cycle int64)
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

// EpochObserver is the extension interface for fault-timeline epoch
// activations.
type EpochObserver interface {
	// EpochSwitch records a fault-timeline epoch becoming active at the
	// given cycle.
	EpochSwitch(cycle int64, epoch int)
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

// LinkStateObserver is the extension interface for channel liveness
// transitions. The engine reports every link that is dead at attach
// time (so collectors see standing fault plans), then every death and
// revival a fault-timeline epoch swap causes. Transitions are edges:
// a link is reported dead once, not once per cycle.
type LinkStateObserver interface {
	LinkState(link int, alive bool, cycle int64)
}

// Nop implements every core Collector event as a no-op. Embed it to
// build collectors that only consume some events — added core events
// then never break implementors.
type Nop struct{}

// ChannelFlit implements Collector (no-op).
func (Nop) ChannelFlit(int) {}

// VCOccupancy implements Collector (no-op).
func (Nop) VCOccupancy(int, int, int, int) {}

// CreditRTT implements Collector (no-op).
func (Nop) CreditRTT(int, int, int64) {}

// Drop implements Collector (no-op).
func (Nop) Drop(int) {}

// Stall implements Collector (no-op).
func (Nop) Stall(int64) {}

// ChannelUtil counts flits per channel, the measurement behind the
// paper's Figure 9 (per-channel utilization). Only ChannelFlit is
// active among the core events; it additionally subscribes to link
// liveness and cycle boundaries so Utilization can exclude the cycles
// a channel was dead under a fault plan or timeline.
type ChannelUtil struct {
	Nop
	busy   []int64
	window int64
	// Dead-time accounting: deadNow marks links currently dead (fed by
	// LinkState edges), deadCount is the number of true entries, and
	// deadTime accumulates one cycle per dead link per CycleEnd. All
	// three stay nil/zero on pristine networks, where CycleEnd is a
	// single compare.
	deadNow   []bool
	deadTime  []int64
	deadCount int
}

// NewChannelUtil returns a counter set for a network with the given
// number of links (Network.NumLinks).
func NewChannelUtil(links int) *ChannelUtil {
	return &ChannelUtil{busy: make([]int64, links)}
}

// ChannelFlit implements Collector.
func (u *ChannelUtil) ChannelFlit(link int) { u.busy[link]++ }

// LinkState implements LinkStateObserver: it opens and closes a link's
// dead interval. Idempotent per state (re-reporting a dead link dead
// changes nothing), so re-attachment is safe.
func (u *ChannelUtil) LinkState(link int, alive bool, _ int64) {
	if u.deadNow == nil {
		if alive {
			return
		}
		u.deadNow = make([]bool, len(u.busy))
		u.deadTime = make([]int64, len(u.busy))
	}
	if u.deadNow[link] == !alive {
		return
	}
	u.deadNow[link] = !alive
	if alive {
		u.deadCount--
	} else {
		u.deadCount++
	}
}

// CycleEnd implements CycleObserver: every currently-dead link accrues
// one dead cycle. A pristine network pays one compare per cycle.
func (u *ChannelUtil) CycleEnd(int64) {
	if u.deadCount == 0 {
		return
	}
	for l, dead := range u.deadNow {
		if dead {
			u.deadTime[l]++
		}
	}
}

// Busy returns the flit count recorded on link id since the last Reset.
func (u *ChannelUtil) Busy(link int) int64 { return u.busy[link] }

// DeadCycles returns the number of observed cycles link id spent dead
// since the last Reset (0 without LinkState/CycleEnd feeds).
func (u *ChannelUtil) DeadCycles(link int) int64 {
	if u.deadTime == nil {
		return 0
	}
	return u.deadTime[link]
}

// Reset clears the counters, the window and the accumulated dead time.
// Links currently dead stay marked dead (their next interval starts
// accruing immediately), so Reset at a measurement boundary starts a
// clean window without losing liveness state.
func (u *ChannelUtil) Reset() {
	for i := range u.busy {
		u.busy[i] = 0
	}
	for i := range u.deadTime {
		u.deadTime[i] = 0
	}
	u.window = 0
}

// SetWindow records the measurement window length used to normalise
// Utilization. The window is the number of cycles the collector was
// attached for (equivalently: the CycleEnd events it received) —
// sim.RunCtx sets MeasureCycles because it attaches the collector for
// exactly the measurement phase.
func (u *ChannelUtil) SetWindow(cycles int64) { u.window = cycles }

// Utilization returns the fraction of the recorded window the channel
// was busy, counting only the cycles the channel was alive: Busy(link)
// divided by window minus DeadCycles(link). A channel dead for the
// whole window (or an unset window) reports 0.
func (u *ChannelUtil) Utilization(link int) float64 {
	alive := u.window - u.DeadCycles(link)
	if alive <= 0 {
		return 0
	}
	return float64(u.busy[link]) / float64(alive)
}

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

// CreditRTT implements Collector.
func (m Multi) CreditRTT(router, port int, rtt int64) {
	for _, c := range m {
		c.CreditRTT(router, port, rtt)
	}
}

// Drop implements Collector.
func (m Multi) Drop(router int) {
	for _, c := range m {
		c.Drop(router)
	}
}

// Stall implements Collector.
func (m Multi) Stall(cycle int64) {
	for _, c := range m {
		c.Stall(cycle)
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

// EpochSwitch implements EpochObserver.
func (m Multi) EpochSwitch(cycle int64, epoch int) {
	for _, c := range m {
		if o, ok := c.(EpochObserver); ok {
			o.EpochSwitch(cycle, epoch)
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

// LinkState implements LinkStateObserver.
func (m Multi) LinkState(link int, alive bool, cycle int64) {
	for _, c := range m {
		if o, ok := c.(LinkStateObserver); ok {
			o.LinkState(link, alive, cycle)
		}
	}
}
