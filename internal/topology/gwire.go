package topology

import "fmt"

// gwire is the inter-group (global-channel) wiring plan shared by the
// dragonfly variants: it assigns each group's S global-channel slots to
// peer groups so that every pair of groups is connected and the wiring
// is symmetric (the channel count from A to B equals B to A).
//
// Slots are assigned in two layers. Every ordered pair first receives
// base = ⌊S/(g-1)⌋ channels: slot c < base*(g-1) of group G targets
// group (G+1+c mod (g-1)) mod g, the classic palmtree arrangement. The
// remaining r = S mod (g-1) slots per group form a circulant graph with
// offsets ±1, ±2, … (plus the antipodal offset g/2 when r is odd and g
// even). A plan with r odd and g odd cannot be symmetric with every
// port used and is rejected.
type gwire struct {
	g    int // groups
	base int // channels per ordered pair from the palmtree layer
	rem  int // extra slots per group wired as a circulant
}

// newGwire validates and builds a wiring plan.
func newGwire(groups, slots int) (gwire, error) {
	if groups < 2 {
		return gwire{}, fmt.Errorf("topology: global wiring needs at least 2 groups (got %d)", groups)
	}
	base := slots / (groups - 1)
	rem := slots % (groups - 1)
	if rem%2 == 1 && groups%2 == 1 {
		return gwire{}, fmt.Errorf("topology: global wiring with %d slots per group and g=%d is asymmetric (slots mod (g-1) = %d is odd while g is odd); choose a group count with slots mod (g-1) even, or an even g", slots, groups, rem)
	}
	return gwire{g: groups, base: base, rem: rem}, nil
}

// extraOffset returns the circulant offset of remainder slot i
// (0 <= i < rem): +1, -1, +2, -2, …, and g/2 for the final slot when rem
// is odd.
func (w gwire) extraOffset(i int) int {
	if w.rem%2 == 1 && i == w.rem-1 {
		return w.g / 2
	}
	if i%2 == 0 {
		return i/2 + 1
	}
	return -(i/2 + 1)
}

// peer returns the peer (group, slot) of slot c of group grp: the group
// the slot leads to, and the slot there carrying the reverse direction
// of the channel.
func (w gwire) peer(grp, c int) (dst, back int) {
	nbase := w.base * (w.g - 1)
	if c < nbase {
		dst = (grp + 1 + c%(w.g-1)) % w.g
		m := c / (w.g - 1)
		// The reverse slot's palmtree offset lies in [0, g-2] because
		// grp != dst, so reducing mod g is exact.
		off := ((grp-dst-1)%w.g + w.g) % w.g
		return dst, off + m*(w.g-1)
	}
	i := c - nbase
	off := w.extraOffset(i)
	dst = ((grp+off)%w.g + w.g) % w.g
	if off == w.g/2 && w.rem%2 == 1 && i == w.rem-1 {
		// Antipodal matching pairs the same remainder index on both sides.
		return dst, c
	}
	var j int
	if off > 0 {
		j = 2*off - 1 // reverse offset -off lives at odd index 2*off-1
	} else {
		j = 2 * (-off - 1) // reverse offset +(-off) lives at even index
	}
	return dst, nbase + j
}
