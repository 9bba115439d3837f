package topology

import (
	"testing"
	"testing/quick"
)

func mustDFB(t *testing.T, p int, dims []int, h, g int) *DragonflyFB {
	t.Helper()
	d, err := NewDragonflyFB(p, dims, h, g)
	if err != nil {
		t.Fatalf("NewDragonflyFB(%d,%v,%d,%d): %v", p, dims, h, g, err)
	}
	return d
}

func TestDragonflyFBPaperExample(t *testing.T) {
	// Figure 6(b): p = 2, a 2x2x2 group, h = 2 — same k = 7 router as
	// Figure 5 but k' doubles from 16 to 32.
	d := mustDFB(t, 2, []int{2, 2, 2}, 2, 0)
	if got := d.RouterRadix(); got != 7 {
		t.Errorf("RouterRadix = %d, want 7", got)
	}
	if got := d.EffectiveRadix(); got != 32 {
		t.Errorf("EffectiveRadix = %d, want 32", got)
	}
	if d.A != 8 {
		t.Errorf("A = %d, want 8", d.A)
	}
	if d.G != 17 {
		t.Errorf("G = %d, want a*h+1 = 17", d.G)
	}
	if got := d.Nodes(); got != 272 {
		t.Errorf("Nodes = %d, want 272", got)
	}
}

func TestDragonflyFBValidation(t *testing.T) {
	cases := []struct {
		p    int
		dims []int
		h, g int
	}{
		{0, []int{2, 2}, 2, 0},
		{2, nil, 2, 0},
		{2, []int{1, 2}, 2, 0},
		{2, []int{2, 2}, 0, 0},
		{2, []int{2, 2}, 2, 1},
		{2, []int{2, 2}, 2, 100},
	}
	for _, c := range cases {
		if _, err := NewDragonflyFB(c.p, c.dims, c.h, c.g); err == nil {
			t.Errorf("NewDragonflyFB(%d,%v,%d,%d) accepted", c.p, c.dims, c.h, c.g)
		}
	}
}

func TestDragonflyFBGraphInvariants(t *testing.T) {
	for _, c := range []struct {
		p    int
		dims []int
		h, g int
	}{
		{2, []int{2, 2, 2}, 2, 0},
		{2, []int{2, 2, 2}, 2, 5},
		{1, []int{2, 3}, 2, 0},
		{2, []int{3, 3}, 1, 0},
	} {
		d := mustDFB(t, c.p, c.dims, c.h, c.g)
		if err := d.Validate(); err != nil {
			t.Errorf("%v: %v", d, err)
			continue
		}
		term, local, global := d.CountChannels()
		if term != d.Nodes() {
			t.Errorf("%v: terminals %d != %d", d, term, d.Nodes())
		}
		// Local channels: per group, routers*(size-1)/2 per dimension.
		wantLocal := 0
		for _, s := range c.dims {
			wantLocal += d.A * (s - 1) / 2
		}
		wantLocal *= d.G
		if local != wantLocal {
			t.Errorf("%v: local channels %d, want %d", d, local, wantLocal)
		}
		if wantGlobal := d.G * d.A * d.H / 2; global != wantGlobal {
			t.Errorf("%v: global channels %d, want %d", d, global, wantGlobal)
		}
	}
}

func TestDragonflyFBDiameter(t *testing.T) {
	// The minimal-routing bound is dims + 1 + dims (one hop per group
	// dimension on each side of the single global hop); the graph
	// diameter can undercut it slightly by taking a second global
	// channel, but never exceeds it.
	d := mustDFB(t, 2, []int{2, 2, 2}, 2, 0)
	diam, err := d.Diameter()
	if err != nil {
		t.Fatalf("Diameter: %v", err)
	}
	if diam > 7 || diam < 4 {
		t.Errorf("diameter = %d, want within [4, 7]", diam)
	}
}

func TestDragonflyFBLocalRouteConverges(t *testing.T) {
	// Property: repeatedly following LocalRoute reaches the target
	// through monotonically decreasing distance, in as many steps as the
	// routers' coordinates differ, which the path table's Hops records.
	d := mustDFB(t, 1, []int{2, 3, 2}, 2, 0)
	tb := d.Paths()
	f := func(fromRaw, toRaw uint8) bool {
		from := int(fromRaw) % d.A
		to := int(toRaw) % d.A
		steps := 0
		cur := from
		for cur != to {
			port := d.LocalRoute(cur, to)
			pt := d.Port(cur, port) // group 0: router id = in-group index
			if pt.Class != ClassLocal {
				return false
			}
			next := pt.PeerRouter
			if tb.Hops(next, to) != tb.Hops(cur, to)-1 {
				return false
			}
			cur = next
			steps++
			if steps > len(d.Dims) {
				return false
			}
		}
		differ := 0
		for i, x := range d.coord(from) {
			if x != d.coord(to)[i] {
				differ++
			}
		}
		return steps == differ && steps == tb.Hops(from, to)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDragonflyFBGlobalWiring(t *testing.T) {
	d := mustDFB(t, 2, []int{2, 2, 2}, 2, 0)
	tb := d.Paths()
	for grp := 0; grp < d.G; grp++ {
		total := 0
		for dst := 0; dst < d.G; dst++ {
			n := tb.Pairs().Count(grp, dst)
			if grp != dst && n == 0 {
				t.Fatalf("groups %d and %d not connected", grp, dst)
			}
			if n != tb.Pairs().Count(dst, grp) {
				t.Fatal("asymmetric wiring")
			}
			total += n
			for _, slot := range tb.Pairs().pair(grp, dst) {
				s := tb.Slot(grp, int(slot))
				pt := d.Port(grp*d.A+int(s.Owner), int(s.Port))
				if pt.Class != ClassGlobal || pt.PeerRouter != dst*d.A+int(s.Entry) {
					t.Fatalf("graph wiring disagrees: slot %d of group %d", slot, grp)
				}
			}
		}
		if total != d.A*d.H {
			t.Fatalf("group %d has %d slots accounted, want %d", grp, total, d.A*d.H)
		}
	}
}

func TestDragonflyFBPortClass(t *testing.T) {
	d := mustDFB(t, 2, []int{2, 2}, 3, 0)
	for r := 0; r < d.Routers(); r++ {
		for i := 0; i < d.Radix(r); i++ {
			if got, want := canonicalClass(i, d.P, d.gBase-d.P), d.Port(r, i).Class; got != want {
				t.Fatalf("router %d port %d: layout says %v, graph %v", r, i, got, want)
			}
		}
	}
}
