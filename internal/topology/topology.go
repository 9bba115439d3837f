// Package topology models the static structure of interconnection
// networks: routers, ports, channels and the terminals (processing nodes)
// attached to them.
//
// The package provides the dragonfly topology of Kim, Dally, Scott and
// Abts (ISCA 2008) together with the baseline topologies the paper
// compares against — flattened butterflies, folded Clos (fat-tree)
// networks and 3-D tori — and the analytic scalability relations used by
// the paper's Figures 1, 4 and 18 and Table 2.
//
// A topology is described by a Graph: a flat, immutable wiring table that
// the cycle-accurate simulator (internal/sim) consumes directly. Concrete
// topologies such as Dragonfly embed a Graph, and their constructors
// derive a PathTable from it (group membership, in-group routes and hop
// counts, the global channels of every group pair) that the routing
// algorithms in internal/routing read on every hop.
package topology

import (
	"errors"
	"fmt"
)

// Class identifies the role of a channel (and of the port it attaches to).
// The distinction matters throughout the paper: global channels are the
// long, expensive, inter-cabinet cables whose count the dragonfly
// minimises, while local channels stay within a group (cabinet) and
// terminal channels connect processing nodes to their router.
type Class uint8

const (
	// ClassTerminal connects a router port to a processing node.
	ClassTerminal Class = iota
	// ClassLocal connects two routers in the same group (intra-cabinet).
	ClassLocal
	// ClassGlobal connects routers in different groups (inter-cabinet).
	ClassGlobal
)

// String returns the lower-case name of the class.
func (c Class) String() string {
	switch c {
	case ClassTerminal:
		return "terminal"
	case ClassLocal:
		return "local"
	case ClassGlobal:
		return "global"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Port describes one side of a bidirectional channel as seen from the
// router that owns the port.
type Port struct {
	// Class is the channel class of the attached link.
	Class Class
	// PeerRouter is the router on the other side of the link, or -1 for
	// a terminal port.
	PeerRouter int
	// PeerPort is the port index on PeerRouter that forms the reverse
	// direction of this link. Undefined for terminal ports.
	PeerPort int
	// Terminal is the terminal attached to this port when Class is
	// ClassTerminal, and -1 otherwise.
	Terminal int
}

// Graph is a flat description of a network: a set of routers, each with an
// ordered list of ports, plus the attachment point of every terminal.
// Graphs are immutable once built; all slices are owned by the Graph.
type Graph struct {
	ports      [][]Port
	termRouter []int
	termPort   []int
}

// NewGraph creates an empty graph with the given number of routers and
// terminals. Builders then write each router's port table and each
// terminal's attachment directly.
func NewGraph(routers, terminals int) *Graph {
	return &Graph{
		ports:      make([][]Port, routers),
		termRouter: make([]int, terminals),
		termPort:   make([]int, terminals),
	}
}

// Routers returns the number of routers in the graph.
func (g *Graph) Routers() int { return len(g.ports) }

// Terminals returns the number of terminals in the graph.
func (g *Graph) Terminals() int { return len(g.termRouter) }

// Radix returns the number of ports on router r, counting terminal ports.
func (g *Graph) Radix(r int) int { return len(g.ports[r]) }

// Port returns the description of port i on router r.
func (g *Graph) Port(r, i int) Port { return g.ports[r][i] }

// TerminalRouter returns the router that terminal t attaches to.
func (g *Graph) TerminalRouter(t int) int { return g.termRouter[t] }

// TerminalPort returns the port on TerminalRouter(t) that terminal t
// attaches to.
func (g *Graph) TerminalPort(t int) int { return g.termPort[t] }

// Validate checks the structural invariants of the graph: every non-
// terminal port must name a peer whose matching port points back, and
// every terminal must be attached to the port it claims. It returns a
// descriptive error for the first violation found.
func (g *Graph) Validate() error {
	for r := range g.ports {
		for i, p := range g.ports[r] {
			switch p.Class {
			case ClassTerminal:
				t := p.Terminal
				if t < 0 || t >= len(g.termRouter) {
					return fmt.Errorf("router %d port %d: terminal %d out of range", r, i, t)
				}
				if g.termRouter[t] != r || g.termPort[t] != i {
					return fmt.Errorf("terminal %d attachment mismatch at router %d port %d", t, r, i)
				}
			default:
				if p.PeerRouter < 0 || p.PeerRouter >= len(g.ports) {
					return fmt.Errorf("router %d port %d: peer router %d out of range", r, i, p.PeerRouter)
				}
				peer := g.ports[p.PeerRouter]
				if p.PeerPort < 0 || p.PeerPort >= len(peer) {
					return fmt.Errorf("router %d port %d: peer port %d out of range", r, i, p.PeerPort)
				}
				q := peer[p.PeerPort]
				if q.PeerRouter != r || q.PeerPort != i || q.Class != p.Class {
					return fmt.Errorf("router %d port %d: asymmetric link to router %d port %d", r, i, p.PeerRouter, p.PeerPort)
				}
			}
		}
	}
	for t := range g.termRouter {
		r, i := g.termRouter[t], g.termPort[t]
		if r < 0 || r >= len(g.ports) || i < 0 || i >= len(g.ports[r]) {
			return fmt.Errorf("terminal %d: attachment router %d port %d out of range", t, r, i)
		}
		if p := g.ports[r][i]; p.Class != ClassTerminal || p.Terminal != t {
			return fmt.Errorf("terminal %d: router %d port %d does not attach it", t, r, i)
		}
	}
	return nil
}

// CountChannels returns the number of bidirectional channels of each
// class. Terminal counts terminals, not ports.
func (g *Graph) CountChannels() (terminal, local, global int) {
	for r := range g.ports {
		for _, p := range g.ports[r] {
			switch p.Class {
			case ClassTerminal:
				terminal++
			case ClassLocal:
				local++
			case ClassGlobal:
				global++
			}
		}
	}
	// Router-to-router links were counted from both ends.
	return terminal, local / 2, global / 2
}

// Diameter returns the hop diameter of the router-to-router graph
// (terminal channels excluded) computed by breadth-first search, or an
// error if the graph is disconnected. It is intended for tests and small
// analytic studies, not for hot paths.
func (g *Graph) Diameter() (int, error) {
	n := len(g.ports)
	if n == 0 {
		return 0, errors.New("topology: empty graph")
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)
	diameter := 0
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		seen := 1
		for len(queue) > 0 {
			r := queue[0]
			queue = queue[1:]
			for _, p := range g.ports[r] {
				if p.Class == ClassTerminal {
					continue
				}
				if dist[p.PeerRouter] < 0 {
					dist[p.PeerRouter] = dist[r] + 1
					if dist[p.PeerRouter] > diameter {
						diameter = dist[p.PeerRouter]
					}
					queue = append(queue, p.PeerRouter)
					seen++
				}
			}
		}
		if seen != n {
			return 0, fmt.Errorf("topology: graph disconnected from router %d (%d of %d reachable)", src, seen, n)
		}
	}
	return diameter, nil
}

// AverageHops returns the mean router-to-router shortest-path hop count
// over all ordered router pairs, by BFS. Intended for tests and analytics.
func (g *Graph) AverageHops() (float64, error) {
	n := len(g.ports)
	if n < 2 {
		return 0, nil
	}
	total := 0
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			r := queue[0]
			queue = queue[1:]
			for _, p := range g.ports[r] {
				if p.Class == ClassTerminal || dist[p.PeerRouter] >= 0 {
					continue
				}
				dist[p.PeerRouter] = dist[r] + 1
				queue = append(queue, p.PeerRouter)
			}
		}
		for r, d := range dist {
			if d < 0 {
				return 0, fmt.Errorf("topology: router %d unreachable from %d", r, src)
			}
			total += d
		}
	}
	return float64(total) / float64(n*(n-1)), nil
}
