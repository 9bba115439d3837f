package topology

import "fmt"

// DragonflyFB is the dragonfly variant of Figure 6(b): the intra-group
// network is an n-dimensional flattened butterfly instead of a single
// fully connected dimension, multiplying the routers per group — and
// with them the effective radix k' = a(p+h) — without raising the
// router radix. The paper's example turns the k=7 router of Figure 5
// (k' = 16) into a 2×2×2 group with k' = 32.
//
// Port layout on every router:
//
//	ports [0, P)              terminal ports
//	ports [P, P+Σ(dims−1))    local ports, dimension 0 first
//	ports [P+Σ(dims−1), …+H)  global ports (slot layout as in Dragonfly)
//
// Intra-group routing is dimension order (lowest differing dimension
// first), which is acyclic, so the same virtual-channel ladder as the
// canonical dragonfly keeps the variant deadlock-free.
type DragonflyFB struct {
	*Graph

	// P and H are terminals and global channels per router.
	P, H int
	// Dims are the intra-group flattened-butterfly dimension sizes.
	Dims []int
	// A is the number of routers per group (the product of Dims).
	A int
	// G is the number of groups.
	G int

	localBase int // first local port
	gBase     int // first global port
	paths     *PathTable
}

// NewDragonflyFB builds the variant. groups as in NewDragonfly (0 means
// the maximal a*h+1).
func NewDragonflyFB(p int, dims []int, h, groups int) (*DragonflyFB, error) {
	if p < 1 || h < 1 {
		return nil, fmt.Errorf("topology: dragonflyFB parameters must be positive (p=%d h=%d)", p, h)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("topology: dragonflyFB needs at least one group dimension")
	}
	a := 1
	localPorts := 0
	for i, s := range dims {
		if s < 2 {
			return nil, fmt.Errorf("topology: dragonflyFB group dimension %d must have size >= 2 (got %d)", i, s)
		}
		a *= s
		localPorts += s - 1
	}
	maxGroups := a*h + 1
	if groups == 0 {
		groups = maxGroups
	}
	if groups < 2 || groups > maxGroups {
		return nil, fmt.Errorf("topology: dragonflyFB supports 2..%d groups (got %d)", maxGroups, groups)
	}
	wire, err := newGwire(groups, a*h)
	if err != nil {
		return nil, err
	}
	d := &DragonflyFB{
		P: p, H: h,
		Dims:      append([]int(nil), dims...),
		A:         a,
		G:         groups,
		localBase: p,
		gBase:     p + localPorts,
	}

	routers := a * groups
	g := NewGraph(routers, p*routers)
	radix := p + localPorts + h
	for r := 0; r < routers; r++ {
		grp, idx := r/a, r%a
		ports := make([]Port, 0, radix)
		for t := 0; t < p; t++ {
			term := r*p + t
			ports = append(ports, Port{Class: ClassTerminal, PeerRouter: -1, PeerPort: -1, Terminal: term})
			g.termRouter[term] = r
			g.termPort[term] = t
		}
		coord := d.coord(idx)
		for dim, size := range dims {
			own := coord[dim]
			for v := 0; v < size; v++ {
				if v == own {
					continue
				}
				peerIdx := d.withCoord(coord, dim, v)
				ports = append(ports, Port{
					Class:      ClassLocal,
					PeerRouter: grp*a + peerIdx,
					PeerPort:   d.dimPort(dim, own, v),
					Terminal:   -1,
				})
			}
		}
		for jg := 0; jg < h; jg++ {
			c := idx*h + jg
			dst, back := wire.peer(grp, c)
			ports = append(ports, Port{
				Class:      ClassGlobal,
				PeerRouter: dst*a + back/h,
				PeerPort:   d.gBase + back%h,
				Terminal:   -1,
			})
		}
		g.ports[r] = ports
	}
	d.Graph = g
	if d.paths, err = newPathTable(g, groups, a, d.LocalRoute); err != nil {
		return nil, fmt.Errorf("topology: dragonflyFB construction bug: %w", err)
	}
	return d, nil
}

// coord returns the per-dimension coordinates of in-group index idx.
func (d *DragonflyFB) coord(idx int) []int {
	c := make([]int, len(d.Dims))
	for i, s := range d.Dims {
		c[i] = idx % s
		idx /= s
	}
	return c
}

// withCoord replaces coordinate dim with v.
func (d *DragonflyFB) withCoord(coord []int, dim, v int) int {
	idx := 0
	stride := 1
	for i, s := range d.Dims {
		x := coord[i]
		if i == dim {
			x = v
		}
		idx += x * stride
		stride *= s
	}
	return idx
}

// dimPort returns the port index on the router at coordinate `to` of
// dimension dim for the channel back to coordinate `from`.
func (d *DragonflyFB) dimPort(dim, from, to int) int {
	base := d.localBase
	for i := 0; i < dim; i++ {
		base += d.Dims[i] - 1
	}
	if from < to {
		return base + from
	}
	return base + from - 1
}

// Nodes returns the terminal count.
func (d *DragonflyFB) Nodes() int { return d.A * d.P * d.G }

// RouterRadix returns the router radix.
func (d *DragonflyFB) RouterRadix() int { return d.gBase + d.H }

// EffectiveRadix returns the group's virtual-router radix k' = a(p+h).
func (d *DragonflyFB) EffectiveRadix() int { return d.A * (d.P + d.H) }

// LocalRoute returns the next-hop local port from in-group index `from`
// towards `to`: dimension-order routing over the intra-group flattened
// butterfly (fix the lowest differing dimension first).
func (d *DragonflyFB) LocalRoute(from, to int) int {
	cf, ct := d.coord(from), d.coord(to)
	for dim := range d.Dims {
		if cf[dim] != ct[dim] {
			return d.dimPort(dim, ct[dim], cf[dim])
		}
	}
	return -1 // from == to: no local hop needed
}

// Paths returns the path table derived from the wiring.
func (d *DragonflyFB) Paths() *PathTable { return d.paths }

// MinVCs returns the virtual channels the routing ladder needs: 3, as
// for the canonical dragonfly — dimension-order local routing is
// acyclic, so the flattened-butterfly group adds no VC demand.
func (d *DragonflyFB) MinVCs() int { return 3 }

// Describe returns the analytic structure descriptor.
func (d *DragonflyFB) Describe() Descriptor {
	localPorts := 0
	for _, s := range d.Dims {
		localPorts += s - 1
	}
	params := map[string]int{"p": d.P, "d1": d.Dims[0], "d2": 0, "d3": 0, "h": d.H, "g": d.G}
	if len(d.Dims) > 1 {
		params["d2"] = d.Dims[1]
	}
	if len(d.Dims) > 2 {
		params["d3"] = d.Dims[2]
	}
	return Descriptor{
		Family:            "dragonflyfb",
		Params:            params,
		Groups:            d.G,
		RoutersPerGroup:   d.A,
		TerminalsPerGroup: d.A * d.P,
		Routers:           d.A * d.G,
		Terminals:         d.Nodes(),
		RouterRadix:       d.RouterRadix(),
		TerminalChannels:  d.Nodes(),
		LocalChannels:     d.G * d.A * localPorts / 2,
		GlobalChannels:    d.G * d.A * d.H / 2,
	}
}

// String describes the configuration.
func (d *DragonflyFB) String() string {
	return fmt.Sprintf("dragonflyFB(p=%d dims=%v h=%d g=%d N=%d k=%d k'=%d)",
		d.P, d.Dims, d.H, d.G, d.Nodes(), d.RouterRadix(), d.EffectiveRadix())
}
