// Package traffic provides the synthetic traffic patterns used by the
// paper's evaluation (Section 4.2) plus the standard patterns of Dally &
// Towles used for wider testing: uniform random, the dragonfly worst
// case (each node of group G_i sends to a random node of group G_i+1),
// bit complement, transpose, tornado, hot-spot and random permutation.
//
// A pattern maps a source terminal (plus a fresh random value for the
// randomized ones) to a destination terminal; it must never return the
// source itself unless the network has a single terminal.
package traffic

import (
	"fmt"

	"dragonfly/internal/topology"
)

// groups is the group structure the group-relative patterns read from
// a machine's path table: group g's terminals are the contiguous range
// [g*perGroup, (g+1)*perGroup).
type groups struct {
	tab      *topology.PathTable
	n        int
	perGroup int
}

// groupsOf reads m's group structure.
func groupsOf(m topology.Machine) groups {
	tab := m.Paths()
	return groups{tab: tab, n: tab.Groups(), perGroup: tab.TerminalsPerGroup()}
}

// pick returns a random terminal of the group offset groups after
// src's.
func (g *groups) pick(src, offset int, rand uint64) int {
	grp := (int(g.tab.Terminal(src).Grp) + offset) % g.n
	return grp*g.perGroup + int(rand%uint64(g.perGroup))
}

// UniformRandom sends each packet to a terminal chosen uniformly among
// all other terminals — the benign baseline (Figure 8(a)).
type UniformRandom struct {
	// N is the terminal count.
	N int
}

// NewUniformRandom returns uniform-random traffic over n terminals.
func NewUniformRandom(n int) *UniformRandom { return &UniformRandom{N: n} }

// Name implements sim.Traffic.
func (*UniformRandom) Name() string { return "UR" }

// Dest implements sim.Traffic.
func (u *UniformRandom) Dest(src int, rand uint64) int {
	if u.N <= 1 {
		return src
	}
	d := int(rand % uint64(u.N-1))
	if d >= src {
		d++
	}
	return d
}

// WorstCase is the adversarial pattern of Section 4.2 (Figure 8(b)):
// every node in group G_i sends to a random node in group G_i+1, so
// minimal routing funnels each group's entire load through the single
// global channel to the next group.
type WorstCase struct {
	g groups
}

// NewWorstCase returns the worst-case pattern for machine m.
func NewWorstCase(m topology.Machine) *WorstCase { return &WorstCase{g: groupsOf(m)} }

// Name implements sim.Traffic.
func (*WorstCase) Name() string { return "WC" }

// Dest implements sim.Traffic.
func (w *WorstCase) Dest(src int, rand uint64) int { return w.g.pick(src, 1, rand) }

// GroupOffset generalises WorstCase: group G_i sends to random nodes of
// group G_i+Offset. Offset 1 is the paper's worst case; g/2 is the
// group-level tornado.
type GroupOffset struct {
	g      groups
	Offset int
}

// NewGroupOffset returns the group-offset pattern for machine m.
func NewGroupOffset(m topology.Machine, offset int) (*GroupOffset, error) {
	g := groupsOf(m)
	if offset%g.n == 0 {
		return nil, fmt.Errorf("traffic: group offset %d maps groups to themselves (g=%d)", offset, g.n)
	}
	return &GroupOffset{g: g, Offset: offset}, nil
}

// Name implements sim.Traffic.
func (g *GroupOffset) Name() string { return fmt.Sprintf("GroupOffset(%d)", g.Offset) }

// Dest implements sim.Traffic.
func (g *GroupOffset) Dest(src int, rand uint64) int { return g.g.pick(src, g.Offset, rand) }

// BitComplement sends terminal i to terminal N-1-i, a classic
// permutation pattern.
type BitComplement struct {
	// N is the terminal count.
	N int
}

// NewBitComplement returns bit-complement traffic over n terminals.
func NewBitComplement(n int) *BitComplement { return &BitComplement{N: n} }

// Name implements sim.Traffic.
func (*BitComplement) Name() string { return "BitComplement" }

// Dest implements sim.Traffic.
func (b *BitComplement) Dest(src int, _ uint64) int { return b.N - 1 - src }

// Transpose views terminal ids as 2-digit base-sqrt(N) numbers and swaps
// the digits, the matrix-transpose permutation.
type Transpose struct {
	side int
	n    int
}

// NewTranspose returns transpose traffic over n terminals; n must be a
// perfect square.
func NewTranspose(n int) (*Transpose, error) {
	s := topology.Sqrt(n)
	if s*s != n {
		return nil, fmt.Errorf("traffic: transpose needs a square terminal count (got %d)", n)
	}
	return &Transpose{side: s, n: n}, nil
}

// Name implements sim.Traffic.
func (*Transpose) Name() string { return "Transpose" }

// Dest implements sim.Traffic.
func (t *Transpose) Dest(src int, _ uint64) int {
	r, c := src/t.side, src%t.side
	return c*t.side + r
}

// HotSpot sends a fraction of traffic to a small set of hot terminals
// and the rest uniformly, a common congestion stressor.
type HotSpot struct {
	// N is the terminal count.
	N int
	// Hot is the set of hot destinations.
	Hot []int
	// Fraction in [0,1] of packets targeting a hot terminal.
	Fraction float64
	uniform  *UniformRandom
}

// NewHotSpot returns hot-spot traffic.
func NewHotSpot(n int, hot []int, fraction float64) (*HotSpot, error) {
	if len(hot) == 0 {
		return nil, fmt.Errorf("traffic: hot-spot needs at least one hot terminal")
	}
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("traffic: hot fraction %v out of [0,1]", fraction)
	}
	for _, h := range hot {
		if h < 0 || h >= n {
			return nil, fmt.Errorf("traffic: hot terminal %d out of range [0,%d)", h, n)
		}
	}
	return &HotSpot{N: n, Hot: append([]int(nil), hot...), Fraction: fraction, uniform: NewUniformRandom(n)}, nil
}

// Name implements sim.Traffic.
func (*HotSpot) Name() string { return "HotSpot" }

// Dest implements sim.Traffic.
func (h *HotSpot) Dest(src int, rand uint64) int {
	// Two decisions need randomness but only one draw arrives, so split
	// it the way the engine's RNG discipline prescribes: the selection
	// uses the draw's full 53-bit float precision (a 16-bit slice biases
	// both decisions once N or len(Hot) stops dividing 2^16), and the
	// destination choice uses an independent value derived by the
	// SplitMix64 finalizer.
	sel := float64(rand>>11) / float64(1<<53)
	r := mix64(rand)
	if sel < h.Fraction {
		return h.Hot[int(r%uint64(len(h.Hot)))]
	}
	return h.uniform.Dest(src, r)
}

// mix64 is the SplitMix64 finalizer (the same hash sim.Mix exports),
// used to derive a second independent value from one draw without the
// traffic layer depending on the engine package.
func mix64(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// Permutation applies a fixed random permutation of terminals, drawn
// once from the given seed — every source has exactly one destination.
type Permutation struct {
	perm []int
}

// NewPermutation returns a random-permutation pattern over n terminals.
func NewPermutation(n int, seed uint64) *Permutation {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return &Permutation{perm: p}
}

// Name implements sim.Traffic.
func (*Permutation) Name() string { return "Permutation" }

// Dest implements sim.Traffic.
func (p *Permutation) Dest(src int, _ uint64) int { return p.perm[src] }
