package topology

import "fmt"

// Swapped is the Swapped Dragonfly D3(K,M) of Draper (arXiv
// 2202.01843): M groups (M <= K) of K fully connected routers, with the
// OTIS "swapped" inter-group wiring — router i of group g carries a
// single global channel to router g of group i, for every i < M with
// i != g. The group-level graph is all-to-all with exactly one channel
// per pair, the diameter is 3, and the machine scales linearly in M at
// fixed router radix: trimming M below K removes groups (and the global
// ports of routers with index >= M) without rewiring anything else.
//
// Port layout on router (g, i):
//
//	ports [0, P)        terminal ports
//	ports [P, P+K-1)    local ports (fully connected group, Dragonfly
//	                    layout: port P+j reaches index j if j < i, else j+1)
//	port  P+K-1         the global port to router (i, g), present only
//	                    when i < M and i != g
//
// The channel from group g to group c (c < M, c != g) is owned by
// router index c at the constant port P+K-1. Router (g, g) has no
// global port — the swapped wiring pairs it with itself — so routers
// have non-uniform radix, which the Graph's per-router port lists
// carry naturally.
type Swapped struct {
	*Graph

	// P is the number of terminals per router.
	P int
	// K is the number of routers per group.
	K int
	// M is the number of groups, at most K.
	M int

	paths *PathTable
}

// NewSwapped builds a D3(K,M). m = 0 selects the maximal M = K.
func NewSwapped(p, k, m int) (*Swapped, error) {
	if p < 1 || k < 1 {
		return nil, fmt.Errorf("topology: swapped dragonfly parameters must be positive (p=%d k=%d)", p, k)
	}
	if m == 0 {
		m = k
	}
	if m < 1 || m > k {
		return nil, fmt.Errorf("topology: swapped dragonfly D3(K,M) needs 1 <= M <= K (got K=%d M=%d)", k, m)
	}
	d := &Swapped{P: p, K: k, M: m}

	routers := k * m
	g := NewGraph(routers, p*routers)
	for r := 0; r < routers; r++ {
		grp, idx := r/k, r%k
		radix := p + k - 1
		hasGlobal := idx < m && idx != grp
		if hasGlobal {
			radix++
		}
		ports := make([]Port, 0, radix)
		for t := 0; t < p; t++ {
			term := r*p + t
			ports = append(ports, Port{Class: ClassTerminal, PeerRouter: -1, PeerPort: -1, Terminal: term})
			g.termRouter[term] = r
			g.termPort[term] = t
		}
		for j := 0; j < k-1; j++ {
			peerIdx := j
			if j >= idx {
				peerIdx = j + 1
			}
			ports = append(ports, Port{
				Class:      ClassLocal,
				PeerRouter: grp*k + peerIdx,
				PeerPort:   d.LocalPort(peerIdx, idx),
				Terminal:   -1,
			})
		}
		if hasGlobal {
			// The swapped link: (grp, idx) <-> (idx, grp), both at the
			// constant global port.
			ports = append(ports, Port{
				Class:      ClassGlobal,
				PeerRouter: idx*k + grp,
				PeerPort:   p + k - 1,
				Terminal:   -1,
			})
		}
		g.ports[r] = ports
	}
	d.Graph = g
	var err error
	if d.paths, err = newPathTable(g, m, k, d.LocalRoute); err != nil {
		return nil, fmt.Errorf("topology: swapped dragonfly construction bug: %w", err)
	}
	return d, nil
}

// Nodes returns the terminal count N = K·M·p.
func (d *Swapped) Nodes() int { return d.K * d.M * d.P }

// RouterRadix returns the largest router radix, p+k (routers whose
// swapped peer would be themselves, and those with index >= M, lack the
// global port).
func (d *Swapped) RouterRadix() int {
	if d.M > 1 {
		return d.P + d.K
	}
	return d.P + d.K - 1
}

// LocalPort returns the port on in-group index from reaching in-group
// index to of the same (fully connected) group.
func (d *Swapped) LocalPort(from, to int) int {
	if to < from {
		return d.P + to
	}
	return d.P + to - 1
}

// LocalRoute returns the next-hop local port from in-group index from
// towards to: the direct port of the fully connected group.
func (d *Swapped) LocalRoute(from, to int) int {
	if from == to {
		return -1
	}
	return d.LocalPort(from, to)
}

// Paths returns the path table derived from the wiring.
func (d *Swapped) Paths() *PathTable { return d.paths }

// MinVCs returns the virtual channels the routing ladder needs: 3, as
// for the canonical dragonfly — the group is the same fully connected
// clique, and the swapped inter-group graph is all-to-all, so the
// Figure 7 ladder applies unchanged.
func (d *Swapped) MinVCs() int { return 3 }

// Describe returns the analytic structure descriptor.
func (d *Swapped) Describe() Descriptor {
	return Descriptor{
		Family:            "swapped",
		Params:            map[string]int{"p": d.P, "k": d.K, "m": d.M},
		Groups:            d.M,
		RoutersPerGroup:   d.K,
		TerminalsPerGroup: d.K * d.P,
		Routers:           d.K * d.M,
		Terminals:         d.Nodes(),
		RouterRadix:       d.RouterRadix(),
		TerminalChannels:  d.Nodes(),
		LocalChannels:     d.M * d.K * (d.K - 1) / 2,
		GlobalChannels:    d.M * (d.M - 1) / 2,
	}
}

// String describes the configuration.
func (d *Swapped) String() string {
	return fmt.Sprintf("swapped(p=%d k=%d m=%d N=%d kmax=%d)",
		d.P, d.K, d.M, d.Nodes(), d.RouterRadix())
}
