package topology

import "fmt"

// FoldedClos describes a folded-Clos (fat-tree) network analytically:
// the baseline the paper reports a 52% cost saving against (Sections 1,
// 5). Terminals hang off the bottom level; every level above doubles the
// path diversity. With radix-k routers, each router uses k/2 ports down
// and k/2 ports up (the top level uses all k ports down), so an n-level
// folded Clos supports N = 2*(k/2)^n terminals at full bisection
// bandwidth.
//
// Only the inventory needed by the cost model is computed: router count,
// channel count per level gap, and how many of those channels are
// inter-cabinet (levels above the first) versus intra-cabinet.
type FoldedClos struct {
	// Terminals is the number of nodes N.
	Terminals int
	// Radix is the router radix k.
	Radix int
	// Levels is the number of router levels.
	Levels int
}

// NewFoldedClos sizes a folded Clos with radix-k routers for at least n
// terminals, using the minimum number of levels.
func NewFoldedClos(n, k int) (*FoldedClos, error) {
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("topology: folded Clos needs an even radix >= 4 (got %d)", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: folded Clos needs at least one terminal (got %d)", n)
	}
	levels := 1
	for cap := k; cap < n; cap *= k / 2 {
		levels++
	}
	return &FoldedClos{Terminals: n, Radix: k, Levels: levels}, nil
}

// Routers returns the total router count: N/(k/2) routers at each of the
// lower levels and N/k at the top (which uses all ports downward).
func (c *FoldedClos) Routers() int {
	if c.Levels == 1 {
		return (c.Terminals + c.Radix - 1) / c.Radix
	}
	per := (c.Terminals + c.Radix/2 - 1) / (c.Radix / 2)
	return per*(c.Levels-1) + (c.Terminals+c.Radix-1)/c.Radix
}

// LevelChannels returns the number of router-to-router channels between
// level l and level l+1 (0-based; level 0 is the terminal-facing level).
// Full bisection requires N channels across every level gap.
func (c *FoldedClos) LevelChannels(l int) int {
	if l < 0 || l >= c.Levels-1 {
		return 0
	}
	return c.Terminals
}

// String describes the configuration.
func (c *FoldedClos) String() string {
	return fmt.Sprintf("folded-clos(N=%d k=%d levels=%d)", c.Terminals, c.Radix, c.Levels)
}

// Torus3D describes a 3-D torus analytically: the low-radix baseline of
// Figure 19. Each router has one terminal and six inter-router ports
// (±x, ±y, ±z); a folded layout keeps every cable short at the price of
// 3N cables and a large diameter.
type Torus3D struct {
	// X, Y, Z are the per-dimension router counts.
	X, Y, Z int
}

// NewTorus3D sizes a near-cubic 3-D torus for at least n nodes.
func NewTorus3D(n int) (*Torus3D, error) {
	if n < 8 {
		return nil, fmt.Errorf("topology: 3-D torus needs at least 8 nodes (got %d)", n)
	}
	// Near-cubic dimensions, each at least 2.
	x := 2
	for x*x*x < n {
		x++
	}
	t := &Torus3D{X: x, Y: x, Z: x}
	// Shrink trailing dimensions while capacity holds, for a tighter fit.
	for t.X > 2 && (t.X-1)*t.Y*t.Z >= n {
		t.X--
	}
	for t.Y > 2 && t.X*(t.Y-1)*t.Z >= n {
		t.Y--
	}
	for t.Z > 2 && t.X*t.Y*(t.Z-1) >= n {
		t.Z--
	}
	return t, nil
}

// Nodes returns the node (and router) count.
func (t *Torus3D) Nodes() int { return t.X * t.Y * t.Z }

// Channels returns the number of bidirectional inter-router channels, 3
// per node.
func (t *Torus3D) Channels() int { return 3 * t.Nodes() }
