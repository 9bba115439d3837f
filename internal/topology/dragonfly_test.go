package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustDragonfly(t *testing.T, p, a, h, g int) *Dragonfly {
	t.Helper()
	d, err := NewDragonfly(p, a, h, g)
	if err != nil {
		t.Fatalf("NewDragonfly(%d,%d,%d,%d): %v", p, a, h, g, err)
	}
	return d
}

func TestDragonflyPaperExample(t *testing.T) {
	// Figure 5: p = h = 2, a = 4 scales to N = 72 with k = 7 routers and
	// an effective radix k' = 16.
	d := mustDragonfly(t, 2, 4, 2, 0)
	if got := d.Nodes(); got != 72 {
		t.Errorf("Nodes() = %d, want 72", got)
	}
	if got := d.RouterRadix(); got != 7 {
		t.Errorf("RouterRadix() = %d, want 7", got)
	}
	if got := d.EffectiveRadix(); got != 16 {
		t.Errorf("EffectiveRadix() = %d, want 16", got)
	}
	if got := d.G; got != 9 {
		t.Errorf("G = %d, want ah+1 = 9", got)
	}
	if got := d.Routers(); got != 36 {
		t.Errorf("Routers() = %d, want 36", got)
	}
}

func TestDragonflyEvaluationConfig(t *testing.T) {
	// Section 4.2: ~1K node network with p = h = 4, a = 8.
	d := mustDragonfly(t, 4, 8, 4, 0)
	if got := d.Nodes(); got != 1056 {
		t.Errorf("Nodes() = %d, want 1056", got)
	}
	if got := d.G; got != 33 {
		t.Errorf("G = %d, want 33", got)
	}
	if got := d.RouterRadix(); got != 15 {
		t.Errorf("RouterRadix() = %d, want 15", got)
	}
}

func TestDragonflySingleGroup(t *testing.T) {
	// groups = 1 is the degenerate machine: one fully connected group,
	// no global channels.
	d, err := NewDragonfly(2, 4, 2, 1)
	if err != nil {
		t.Fatalf("NewDragonfly(2,4,2,1): %v", err)
	}
	if d.Nodes() != 8 || d.Routers() != 4 {
		t.Errorf("single group: %d nodes, %d routers, want 8 and 4", d.Nodes(), d.Routers())
	}
	_, _, global := d.CountChannels()
	if global != 0 {
		t.Errorf("single group has %d global channels, want 0", global)
	}
	for r := 0; r < d.Routers(); r++ {
		if got, want := d.Radix(r), d.P+d.A-1; got != want {
			t.Errorf("router %d radix %d, want %d (no global ports)", r, got, want)
		}
	}
}

func TestDragonflyParameterValidation(t *testing.T) {
	cases := []struct{ p, a, h, g int }{
		{0, 4, 2, 0},
		{2, 0, 2, 0},
		{2, 4, 0, 0},
		{2, 4, 2, -1},
		{2, 4, 2, 10}, // > ah+1 = 9
		{1, 3, 1, 3},  // a*h=3, g=3: rem = 1 odd with g odd
	}
	for _, c := range cases {
		if _, err := NewDragonfly(c.p, c.a, c.h, c.g); err == nil {
			t.Errorf("NewDragonfly(%d,%d,%d,%d) succeeded, want error", c.p, c.a, c.h, c.g)
		}
	}
}

func TestDragonflyGraphInvariants(t *testing.T) {
	configs := []struct{ p, a, h, g int }{
		{2, 4, 2, 0}, {2, 4, 2, 9}, {2, 4, 2, 5}, {2, 4, 2, 3}, {2, 4, 2, 2},
		{4, 8, 4, 0}, {4, 8, 4, 17}, {4, 8, 4, 33},
		{1, 1, 1, 2}, {1, 2, 1, 0}, {3, 6, 3, 0},
		{2, 4, 2, 8}, // non-maximal with remainder: ah=8, g=8, rem=1 even g
	}
	for _, c := range configs {
		d := mustDragonfly(t, c.p, c.a, c.h, c.g)
		if err := d.Validate(); err != nil {
			t.Errorf("%v: Validate: %v", d, err)
			continue
		}
		term, local, global := d.CountChannels()
		if term != d.Nodes() {
			t.Errorf("%v: terminal channels = %d, want %d", d, term, d.Nodes())
		}
		wantLocal := d.G * d.A * (d.A - 1) / 2
		if local != wantLocal {
			t.Errorf("%v: local channels = %d, want %d", d, local, wantLocal)
		}
		wantGlobal := d.G * d.A * d.H / 2
		if global != wantGlobal {
			t.Errorf("%v: global channels = %d, want %d", d, global, wantGlobal)
		}
	}
}

func TestDragonflyDiameterIsThree(t *testing.T) {
	d := mustDragonfly(t, 2, 4, 2, 0)
	diam, err := d.Diameter()
	if err != nil {
		t.Fatalf("Diameter: %v", err)
	}
	if diam != 3 {
		t.Errorf("diameter = %d, want 3 (local+global+local)", diam)
	}
}

func TestDragonflyChannelsBetweenSymmetric(t *testing.T) {
	for _, g := range []int{2, 3, 5, 8, 9} {
		d := mustDragonfly(t, 2, 4, 2, g)
		for ga := 0; ga < d.G; ga++ {
			total := 0
			for gb := 0; gb < d.G; gb++ {
				ab := d.Paths().Pairs().Count(ga, gb)
				ba := d.Paths().Pairs().Count(gb, ga)
				if ab != ba {
					t.Fatalf("g=%d: %d channels %d->%d but %d back", g, ab, ga, gb, ba)
				}
				if ga != gb && ab == 0 {
					t.Fatalf("g=%d: groups %d and %d not connected", g, ga, gb)
				}
				total += ab
			}
			if total != d.A*d.H {
				t.Fatalf("g=%d: group %d has %d global channels, want %d", g, ga, total, d.A*d.H)
			}
		}
	}
}

func TestDragonflyMaximalHasOneChannelPerPair(t *testing.T) {
	d := mustDragonfly(t, 4, 8, 4, 0)
	for ga := 0; ga < d.G; ga++ {
		for gb := 0; gb < d.G; gb++ {
			if ga == gb {
				continue
			}
			if n := d.Paths().Pairs().Count(ga, gb); n != 1 {
				t.Fatalf("maximal dragonfly: %d channels between %d and %d, want 1", n, ga, gb)
			}
		}
	}
}

func TestDragonflyGlobalSlotRoundTrip(t *testing.T) {
	// Taking any slot's channel, then the slot that channel enters by,
	// leads back to the slot: the path table files both directions of
	// every global channel.
	for _, g := range []int{0, 5, 8} {
		d := mustDragonfly(t, 2, 4, 2, g)
		tb := d.Paths()
		for grp := 0; grp < d.G; grp++ {
			if tb.Pairs().Count(grp, grp) != 0 {
				t.Fatalf("group %d has slots to itself", grp)
			}
			for dst := 0; dst < d.G; dst++ {
				for _, c := range tb.Pairs().pair(grp, dst) {
					s := tb.Slot(grp, int(c))
					if c < 0 || int(c) >= d.A*d.H || s.Slot != c {
						t.Fatalf("slot %d of group %d out of range or misfiled (%+v)", c, grp, s)
					}
					pt := d.Port(grp*d.A+int(s.Owner), int(s.Port))
					back := -1
					for _, c2 := range tb.Pairs().pair(dst, grp) {
						if s2 := tb.Slot(dst, int(c2)); int(s2.Owner) == int(s.Entry) && int(s2.Port) == pt.PeerPort {
							back = int(s2.Entry)
						}
					}
					if back != int(s.Owner) {
						t.Fatalf("slot %d of group %d: reverse slot enters router index %d, want %d", c, grp, back, s.Owner)
					}
				}
			}
		}
	}
}

func TestDragonflyGlobalWiringMatchesGraph(t *testing.T) {
	// Every slot the path table files under a group pair is a global
	// port of the wiring leading into that pair's group, at the entry
	// router the table names.
	for _, cfg := range []struct{ p, a, h, g int }{{2, 4, 2, 0}, {2, 4, 2, 5}, {4, 8, 4, 0}, {2, 4, 2, 8}} {
		d := mustDragonfly(t, cfg.p, cfg.a, cfg.h, cfg.g)
		tb := d.Paths()
		for grp := 0; grp < d.G; grp++ {
			n := 0
			for dst := 0; dst < d.G; dst++ {
				for _, c := range tb.Pairs().pair(grp, dst) {
					s := tb.Slot(grp, int(c))
					r := grp*d.A + int(s.Owner)
					pt := d.Port(r, int(s.Port))
					if pt.Class != ClassGlobal {
						t.Fatalf("%v: router %d port %d class = %v", d, r, s.Port, pt.Class)
					}
					if want := dst*d.A + int(s.Entry); pt.PeerRouter != want {
						t.Fatalf("%v: slot %d of group %d lands on router %d, want %d", d, c, grp, pt.PeerRouter, want)
					}
					n++
				}
			}
			if n != d.A*d.H {
				t.Fatalf("%v: group %d files %d slots, want %d", d, grp, n, d.A*d.H)
			}
		}
	}
}

func TestDragonflyLocalPortLayout(t *testing.T) {
	d := mustDragonfly(t, 2, 4, 2, 0)
	for grp := 0; grp < d.G; grp++ {
		for i := 0; i < d.A; i++ {
			r := grp*d.A + i
			for j := 0; j < d.A; j++ {
				if i == j {
					continue
				}
				port := d.LocalPort(i, j)
				pt := d.Port(r, port)
				if pt.Class != ClassLocal {
					t.Fatalf("router %d port %d: class %v, want local", r, port, pt.Class)
				}
				if want := grp*d.A + j; pt.PeerRouter != want {
					t.Fatalf("router %d local port to %d reaches %d, want %d", r, j, pt.PeerRouter, want)
				}
				// Reverse port must point back.
				back := d.Port(pt.PeerRouter, pt.PeerPort)
				if back.PeerRouter != r || back.PeerPort != port {
					t.Fatalf("asymmetric local link %d:%d <-> %d:%d", r, port, pt.PeerRouter, pt.PeerPort)
				}
			}
		}
	}
}

// canonicalClass is the class of port i in the dragonfly's documented
// layout: p terminal ports, then a-1 local ports, then the global ports.
func canonicalClass(i, p, locals int) Class {
	switch {
	case i < p:
		return ClassTerminal
	case i < p+locals:
		return ClassLocal
	}
	return ClassGlobal
}

func TestDragonflyPortClassMatchesGraph(t *testing.T) {
	d := mustDragonfly(t, 4, 8, 4, 17)
	for r := 0; r < d.Routers(); r++ {
		for i := 0; i < d.Radix(r); i++ {
			if got, want := canonicalClass(i, d.P, d.A-1), d.Port(r, i).Class; got != want {
				t.Fatalf("router %d port %d: layout says %v, graph %v", r, i, got, want)
			}
		}
	}
}

func TestDragonflyMinimalHops(t *testing.T) {
	// The minimal path the path table describes — to the slot's owner,
	// across the global channel, to the destination router — takes 0
	// hops to the same router, 1 inside a group and 1 to 3 across groups.
	d := mustDragonfly(t, 2, 4, 2, 0)
	tb := d.Paths()
	for src := 0; src < d.Routers(); src++ {
		for dst := 0; dst < d.Routers(); dst++ {
			gs, gd := src/d.A, dst/d.A
			hops := tb.Hops(src%d.A, dst%d.A)
			if gs != gd {
				s := tb.Slot(gs, int(tb.Pairs().pair(gs, gd)[0]))
				hops = tb.Hops(src%d.A, int(s.Owner)) + 1 + tb.Hops(int(s.Entry), dst%d.A)
			}
			want := [2]int{1, 3}
			switch {
			case src == dst:
				want = [2]int{0, 0}
			case gs == gd:
				want = [2]int{1, 1}
			}
			if hops < want[0] || hops > want[1] {
				t.Fatalf("minimal hops %d -> %d = %d, want within %v", src, dst, hops, want)
			}
		}
	}
}

func TestDragonflyPropertySlotPairing(t *testing.T) {
	// Property: for every realizable random global wiring plan,
	// following a slot and then its reverse slot returns to the origin.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 1 + rng.Intn(6)
		h := 1 + rng.Intn(4)
		maxG := a*h + 1
		g := 2 + rng.Intn(maxG-1)
		rem := (a * h) % (g - 1)
		if rem%2 == 1 && g%2 == 1 {
			return true // unrealizable configuration, skipped
		}
		w, err := newGwire(g, a*h)
		if err != nil {
			return false
		}
		for grp := 0; grp < g; grp++ {
			for c := 0; c < a*h; c++ {
				dst, back := w.peer(grp, c)
				if dst == grp {
					return false
				}
				g2, c2 := w.peer(dst, back)
				if g2 != grp || c2 != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDragonflyPropertyChannelBalance(t *testing.T) {
	// Property: channel counts between pairs differ by at most one from
	// the base+1, and every group uses all its slots exactly once.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 1 + rng.Intn(5)
		h := 1 + rng.Intn(4)
		g := 2 + rng.Intn(a*h)
		if (a*h)%(g-1)%2 == 1 && g%2 == 1 {
			return true
		}
		d, err := NewDragonfly(1, a, h, g)
		if err != nil {
			return false
		}
		base := (a * h) / (g - 1)
		for ga := 0; ga < g; ga++ {
			sum := 0
			for gb := 0; gb < g; gb++ {
				n := d.Paths().Pairs().Count(ga, gb)
				if ga == gb {
					if n != 0 {
						return false
					}
					continue
				}
				if n < base || n > base+2 {
					return false
				}
				sum += n
			}
			if sum != a*h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSlotOfPortInvertsGlobalPort(t *testing.T) {
	// Slots follow the documented layout: router index i owns slots
	// [i*H, (i+1)*H), slot c on port P+A-1+c%H, and every global port
	// carries exactly that slot.
	d := mustDragonfly(t, 4, 8, 4, 0)
	tb := d.Paths()
	for c := 0; c < d.A*d.H; c++ {
		s := tb.Slot(0, c)
		if int(s.Owner) != c/d.H || int(s.Port) != d.P+d.A-1+c%d.H {
			t.Fatalf("slot %d on router index %d port %d, want %d and %d", c, s.Owner, s.Port, c/d.H, d.P+d.A-1+c%d.H)
		}
	}
}

// checkCanonicalWiring rebuilds a maximal dragonfly (g = a·h+1) from
// (p, a, h) alone and compares every port of d with it. Router i of
// group G (id G·a+i) carries terminals (G·a+i)·p+k on ports k < p, and
// reaches router j of its group on local port p+j for j < i and p+j-1
// for j > i. Its global port j reaches group (G+1+i·h+j) mod g, at the
// mirrored port: global port h-1-j of router a-1-i, the only port of
// that group whose channel leads back to G.
func checkCanonicalWiring(t *testing.T, d *Dragonfly) {
	t.Helper()
	p, a, h := d.P, d.A, d.H
	g := a*h + 1
	if d.G != g || d.Routers() != g*a || d.Terminals() != g*a*p {
		t.Fatalf("%v is not the maximal dragonfly of p=%d a=%d h=%d", d, p, a, h)
	}
	for grp := 0; grp < g; grp++ {
		for i := 0; i < a; i++ {
			r := grp*a + i
			want := make([]Port, 0, p+a-1+h)
			for k := 0; k < p; k++ {
				want = append(want, Port{Class: ClassTerminal, PeerRouter: -1, PeerPort: -1, Terminal: r*p + k})
			}
			for j := 0; j < a; j++ {
				if j == i {
					continue
				}
				back := p + i // port of router j leading to i
				if i > j {
					back = p + i - 1
				}
				want = append(want, Port{Class: ClassLocal, PeerRouter: grp*a + j, PeerPort: back, Terminal: -1})
			}
			for j := 0; j < h; j++ {
				dst := (grp + 1 + i*h + j) % g
				want = append(want, Port{Class: ClassGlobal, PeerRouter: dst*a + a - 1 - i, PeerPort: p + a - 1 + h - 1 - j, Terminal: -1})
			}
			if d.Radix(r) != len(want) {
				t.Fatalf("%v: router %d has %d ports, want %d", d, r, d.Radix(r), len(want))
			}
			for port, w := range want {
				if got := d.Port(r, port); got != w {
					t.Fatalf("%v: router %d port %d is %+v, want %+v", d, r, port, got, w)
				}
			}
			for k := 0; k < p; k++ {
				if d.TerminalRouter(r*p+k) != r || d.TerminalPort(r*p+k) != k {
					t.Fatalf("%v: terminal %d attached at router %d port %d, want %d and %d",
						d, r*p+k, d.TerminalRouter(r*p+k), d.TerminalPort(r*p+k), r, k)
				}
			}
		}
	}
}

func TestDragonflyCanonicalWiring(t *testing.T) {
	for _, c := range []struct{ p, a, h int }{{1, 1, 1}, {1, 2, 1}, {2, 4, 2}, {4, 8, 4}, {3, 5, 2}, {2, 3, 4}} {
		checkCanonicalWiring(t, mustDragonfly(t, c.p, c.a, c.h, 0))
	}
}
