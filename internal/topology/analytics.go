package topology

import "math"

// This file holds the closed-form scalability relations the paper plots
// in Figures 1 and 4 and quotes in Section 3.

// FlatNetworkRadix returns the router radix required to connect n
// terminals with a single global hop between every pair of routers when
// no virtual-router grouping is used (Figure 1). A fully connected
// network of R routers with c terminals each needs radix c + R - 1 and
// offers N = c·R terminals; balancing c ≈ R gives k ≈ 2·sqrt(N). The
// returned radix is the smallest k achieving at least n terminals with
// the balanced concentration c = ceil(k/2).
func FlatNetworkRadix(n int) int {
	if n <= 1 {
		return 1
	}
	for k := 2; ; k++ {
		c := (k + 1) / 2 // terminals per router
		r := k - c + 1   // routers reachable: k-c global ports + self
		if c*r >= n {
			return k
		}
	}
}

// FlatNetworkMaxNodes returns the number of terminals a fully connected
// (single global hop) network of radix-k routers supports with balanced
// concentration, the inverse view of FlatNetworkRadix.
func FlatNetworkMaxNodes(k int) int {
	c := (k + 1) / 2
	return c * (k - c + 1)
}

// BalancedParams returns the balanced dragonfly parameters a = 2p = 2h
// for a router radix of at most k (k = p + a + h - 1 = 4h - 1). It
// reports h = 0 when k is too small for any dragonfly (k < 3).
func BalancedParams(k int) (p, a, h int) {
	h = (k + 1) / 4
	if h == 0 {
		return 0, 0, 0
	}
	return h, 2 * h, h
}

// BalancedMaxNodes returns the number of terminals N = a·p·(a·h+1) of the
// maximum-size balanced dragonfly built from radix-k routers (Figure 4).
func BalancedMaxNodes(k int) int {
	p, a, h := BalancedParams(k)
	if h == 0 {
		return 0
	}
	return a * p * (a*h + 1)
}

// BalancedRadixForNodes returns the smallest router radix whose balanced
// dragonfly reaches at least n terminals.
func BalancedRadixForNodes(n int) int {
	for k := 3; ; k++ {
		if BalancedMaxNodes(k) >= n {
			return k
		}
	}
}

// Sqrt returns the integer square root helper used by layout models.
func Sqrt(n int) int {
	if n < 0 {
		return 0
	}
	return int(math.Sqrt(float64(n)))
}
