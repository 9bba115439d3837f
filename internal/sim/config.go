// Package sim is a cycle-accurate flit-level interconnection-network
// simulator in the style the paper evaluates with (Section 4.2):
// single-cycle input-queued routers with virtual channels and
// credit-based flow control, Bernoulli packet injection, and the
// warm-up → tagged-measurement → drain methodology of Dally & Towles.
//
// The simulator is topology-agnostic: it consumes the wiring table of a
// topology.Graph and delegates every path decision to a Routing
// implementation (internal/routing provides the paper's algorithms). It
// also implements the paper's credit round-trip latency mechanism
// (Section 4.3.2, Figure 17(b)): per-output credit-timestamp queues
// measure t_crt, and returned credits are delayed by the output's
// congestion estimate t_d relative to the least-congested output, which
// stiffens backpressure without shrinking buffers.
package sim

import (
	"fmt"

	"dragonfly/internal/topology"
)

// Config parameterises a simulation.
type Config struct {
	// BufDepth is the input-buffer depth per virtual channel, in flits.
	// The paper uses 16 by default and 256 to emulate a YARC-class
	// router's virtual cut-through buffers.
	BufDepth int
	// OutDepth is the output-buffer depth per virtual channel. The
	// modelled router is two-stage (input and output buffered, like the
	// YARC router the paper references): a flit frees its input slot
	// when it crosses the crossbar into the output buffer. The output
	// stage is a small decoupling FIFO — congestion must queue in the
	// credit-visible input buffers, or upstream routers could never
	// sense it (Section 4.3). 0 means the default of 4.
	OutDepth int
	// VCs is the number of virtual channels per port. The dragonfly
	// routing algorithms need 3 (two for minimal routing plus one more
	// for non-minimal, Figure 7).
	VCs int
	// LocalLatency and GlobalLatency are the cycle counts to traverse
	// local/terminal and global channels. Global channels are the long
	// optical cables, so they default higher.
	LocalLatency, GlobalLatency int
	// DelayCredits enables the credit round-trip latency mechanism
	// (UGAL-L_CR): returned credits are delayed by t_d(out)−min t_d so
	// upstream routers sense downstream congestion sooner. Credits
	// returning across global channels are never delayed.
	DelayCredits bool
	// DelaySlack tunes the credit-delay gate: an output's congestion
	// estimate must exceed twice the router's least-congested output
	// plus this slack before its credits are delayed, so the ordinary
	// queueing jitter of a loaded but balanced network does not trigger
	// the mechanism. 0 means the default of 8 cycles.
	DelaySlack int
	// Seed makes runs reproducible.
	Seed uint64
	// Shards is the number of parallel engine shards the network is
	// partitioned into (see shard.go). 0 or 1 runs the serial engine;
	// any value is clamped to the group count (grouped topologies) or
	// the router count. Results are bit-identical for every shard
	// count.
	Shards int
}

// Validate reports the first problem with the configuration as a
// *ConfigError.
func (c Config) Validate() error {
	switch {
	case c.BufDepth < 1:
		return &ConfigError{Param: "BufDepth", Value: fmt.Sprint(c.BufDepth), Reason: "input buffers need at least one slot"}
	case c.OutDepth < 0:
		return &ConfigError{Param: "OutDepth", Value: fmt.Sprint(c.OutDepth), Reason: "output depth must be >= 0 (0 takes the default)"}
	case c.VCs < 1:
		return &ConfigError{Param: "VCs", Value: fmt.Sprint(c.VCs), Reason: "at least one virtual channel is required"}
	case c.LocalLatency < 1:
		return &ConfigError{Param: "LocalLatency", Value: fmt.Sprint(c.LocalLatency), Reason: "channel latencies are at least one cycle"}
	case c.GlobalLatency < 1:
		return &ConfigError{Param: "GlobalLatency", Value: fmt.Sprint(c.GlobalLatency), Reason: "channel latencies are at least one cycle"}
	case c.Shards < 0:
		return &ConfigError{Param: "Shards", Value: fmt.Sprint(c.Shards), Reason: "shard count must be >= 0 (0 runs the serial engine)"}
	}
	return nil
}

// HopState is the caller-owned scratch a routing query operates on: the
// simulator copies the packet's routing-relevant state out of its arena
// into a HopState it owns, passes the pointer down, and copies the
// writable fields back afterwards. Routing implementations therefore
// never allocate and never see (or retain) simulator packet storage.
type HopState struct {
	// ID, Seed, Src and Dst identify the packet; read-only for routing.
	ID       uint64
	Seed     uint64
	Src, Dst int

	// Minimal and InterGroup are the source decision: set by Decide,
	// read by NextHop. InterGroup is -1 for minimal packets.
	Minimal    bool
	InterGroup int

	// Phase1 reports that the packet is heading for its final
	// destination group. NextHop sets it when the packet reaches its
	// Valiant intermediate group (the simulator sets it for minimal
	// packets right after Decide).
	Phase1 bool

	// Port and VC are NextHop's outputs: the switch request for the
	// current hop.
	Port, VC int
}

// Routing decides packet paths. Implementations live in internal/routing;
// the simulator calls Decide exactly once per packet — when it first
// reaches the head of its source queue at the source router — and
// NextHop every time a packet is buffered at a router (including right
// after Decide), to obtain the switch request for the current hop.
//
// Both methods read and write the caller-owned *HopState; neither may
// retain it past the call. NextHop must set hs.Port/hs.VC; a Port that
// is a terminal port of the current router ejects the packet.
//
// Both methods may return an error wrapping ErrUnroutable when the
// packet's destination cannot be reached (a fault plan severed every
// legal path); the simulator then drops the packet, counts it in
// Result.Dropped, and the run continues. Any other error aborts the run.
type Routing interface {
	// Name identifies the algorithm in results and logs.
	Name() string
	// Decide makes the source-router adaptive decision (minimal vs.
	// Valiant, intermediate group) for the packet described by hs, which
	// is at router r.
	Decide(net *Network, r *Router, hs *HopState) error
	// NextHop computes the current hop's output port and VC for the
	// packet described by hs, buffered at router r.
	NextHop(net *Network, r *Router, hs *HopState) error
}

// Traffic supplies each injected packet's destination terminal.
// Implementations live in internal/traffic.
type Traffic interface {
	// Name identifies the pattern.
	Name() string
	// Dest returns the destination terminal for a packet injected at
	// terminal src. rand is a fresh 64-bit random value the pattern may
	// use for randomized destinations.
	Dest(src int, rand uint64) int
}

// Topology is the wiring view the simulator needs; *topology.Graph and
// the concrete topologies embedding it satisfy it.
type Topology interface {
	Routers() int
	Terminals() int
	Radix(router int) int
	Port(router, port int) topology.Port
	TerminalRouter(terminal int) int
	TerminalPort(terminal int) int
}

// DegradedTopology is the fault-aware wiring view (topology.Degraded
// implements it): Alive reports whether the channel attached at
// (router, port) can carry flits. When the topology handed to New
// implements it, links whose either endpoint is dead carry no flits,
// and terminals attached to dead ports neither inject nor count in the
// throughput normalisation.
type DegradedTopology interface {
	Topology
	Alive(router, port int) bool
}
