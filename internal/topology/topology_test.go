package topology

import "testing"

func TestFoldedClosSizing(t *testing.T) {
	cases := []struct {
		n, k       int
		wantLevels int
	}{
		{64, 64, 1},
		{1024, 64, 2},
		{2048, 64, 2},
		{2049, 64, 3},
		{65536, 64, 3},
	}
	for _, c := range cases {
		fc, err := NewFoldedClos(c.n, c.k)
		if err != nil {
			t.Fatalf("NewFoldedClos(%d,%d): %v", c.n, c.k, err)
		}
		if fc.Levels != c.wantLevels {
			t.Errorf("NewFoldedClos(%d,%d).Levels = %d, want %d", c.n, c.k, fc.Levels, c.wantLevels)
		}
		capacity := c.k
		for l := 1; l < fc.Levels; l++ {
			capacity *= c.k / 2
		}
		if capacity < c.n {
			t.Errorf("NewFoldedClos(%d,%d): %d levels hold %d < %d terminals", c.n, c.k, fc.Levels, capacity, c.n)
		}
		channels := 0
		for l := 0; l < fc.Levels; l++ {
			channels += fc.LevelChannels(l)
		}
		if channels != c.n*(c.wantLevels-1) {
			t.Errorf("router-to-router channels = %d, want %d", channels, c.n*(c.wantLevels-1))
		}
	}
	if _, err := NewFoldedClos(100, 3); err == nil {
		t.Error("odd radix accepted")
	}
	if _, err := NewFoldedClos(0, 64); err == nil {
		t.Error("zero terminals accepted")
	}
}

func TestTorus3DSizing(t *testing.T) {
	tor, err := NewTorus3D(4096)
	if err != nil {
		t.Fatalf("NewTorus3D: %v", err)
	}
	if tor.Nodes() < 4096 {
		t.Errorf("Nodes() = %d, want >= 4096", tor.Nodes())
	}
	if tor.Channels() != 3*tor.Nodes() {
		t.Errorf("Channels() = %d, want %d", tor.Channels(), 3*tor.Nodes())
	}
	if _, err := NewTorus3D(1); err == nil {
		t.Error("tiny torus accepted")
	}
}

func TestAnalyticsFigure1(t *testing.T) {
	// Figure 1: the radix needed for a one-global-hop flat network grows
	// as ~2*sqrt(N); for N = 1M it exceeds 1000.
	if k := FlatNetworkRadix(1000000); k < 1000 || k > 2100 {
		t.Errorf("FlatNetworkRadix(1e6) = %d, want ~2000", k)
	}
	// Round trip: radix for max nodes of k must not exceed k.
	for k := 4; k <= 256; k *= 2 {
		n := FlatNetworkMaxNodes(k)
		if got := FlatNetworkRadix(n); got > k {
			t.Errorf("FlatNetworkRadix(FlatNetworkMaxNodes(%d)) = %d > %d", k, got, k)
		}
	}
}

func TestAnalyticsFigure4(t *testing.T) {
	// Figure 4 / Section 3.1: with radix-64 routers, the balanced
	// dragonfly scales beyond 256K nodes with diameter three.
	if n := BalancedMaxNodes(64); n < 256*1024 {
		t.Errorf("BalancedMaxNodes(64) = %d, want > 256K", n)
	}
	// The paper's example: k = 7 gives h = 2, a = 4, p = 2, N = 72.
	p, a, h := BalancedParams(7)
	if p != 2 || a != 4 || h != 2 {
		t.Errorf("BalancedParams(7) = (%d,%d,%d), want (2,4,2)", p, a, h)
	}
	if n := BalancedMaxNodes(7); n != 72 {
		t.Errorf("BalancedMaxNodes(7) = %d, want 72", n)
	}
	// Monotone in k.
	prev := 0
	for k := 3; k <= 128; k++ {
		n := BalancedMaxNodes(k)
		if n < prev {
			t.Errorf("BalancedMaxNodes not monotone at k=%d: %d < %d", k, n, prev)
		}
		prev = n
	}
}

func TestBalancedRadixForNodes(t *testing.T) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		k := BalancedRadixForNodes(n)
		if BalancedMaxNodes(k) < n {
			t.Errorf("BalancedRadixForNodes(%d) = %d too small", n, k)
		}
		if k > 3 && BalancedMaxNodes(k-1) >= n {
			t.Errorf("BalancedRadixForNodes(%d) = %d not minimal", n, k)
		}
	}
}

func TestGraphValidateCatchesCorruption(t *testing.T) {
	// Two routers, one terminal each, joined by one local channel.
	g := NewGraph(2, 2)
	for r := 0; r < 2; r++ {
		g.ports[r] = []Port{
			{Class: ClassTerminal, PeerRouter: -1, PeerPort: -1, Terminal: r},
			{Class: ClassLocal, PeerRouter: 1 - r, PeerPort: 1, Terminal: -1},
		}
		g.termRouter[r], g.termPort[r] = r, 0
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	// Corrupt the peer pointer.
	g.ports[0][1].PeerPort = 7
	if err := g.Validate(); err == nil {
		t.Error("corrupted graph accepted")
	}
}

func TestGraphDiameterDisconnected(t *testing.T) {
	g := NewGraph(2, 0)
	if _, err := g.Diameter(); err == nil {
		t.Error("disconnected graph diameter computed without error")
	}
	if _, err := g.AverageHops(); err == nil {
		t.Error("disconnected graph average hops computed without error")
	}
}
