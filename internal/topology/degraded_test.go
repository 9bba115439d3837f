package topology

import (
	"fmt"
	"testing"
)

func degTestDF(t *testing.T) *Dragonfly {
	t.Helper()
	d, err := NewDragonfly(2, 4, 2, 0) // g=9, 36 routers, 72 terminals
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	return d
}

// fakeFault is a literal FaultView for tests.
type fakeFault struct {
	routers map[int]bool
	ports   map[[2]int]bool
}

func (f fakeFault) RouterDown(r int) bool  { return f.routers[r] }
func (f fakeFault) PortDown(r, p int) bool { return f.ports[[2]int{r, p}] }

func TestDegradedEmptyPlanIsPristine(t *testing.T) {
	d := degTestDF(t)
	dg := NewDegraded(d, nil)
	for r := 0; r < d.Routers(); r++ {
		if dg.RouterDown(r) {
			t.Fatalf("router %d down under empty plan", r)
		}
		for p := 0; p < d.Radix(r); p++ {
			if !dg.Alive(r, p) {
				t.Fatalf("port (%d,%d) dead under empty plan", r, p)
			}
		}
	}
	if dg.AliveTerminals() != d.Terminals() {
		t.Errorf("AliveTerminals = %d, want %d", dg.AliveTerminals(), d.Terminals())
	}
	if !dg.Connected() {
		t.Error("pristine network reported disconnected")
	}
	r, g, l, tm := dg.FaultCounts()
	if r+g+l+tm != 0 {
		t.Errorf("FaultCounts = (%d,%d,%d,%d), want zeros", r, g, l, tm)
	}
	// The live slot lists must match the path table's pairs exactly:
	// routing with an empty fault plan stays bit-identical to pristine
	// routing.
	live, pristine := dg.LiveSlots(), d.Paths().Pairs()
	if fmt.Sprint(*live) != fmt.Sprint(*pristine) {
		t.Fatalf("live slots %v, want the pristine pairs %v", *live, *pristine)
	}
	for ga := 0; ga < d.G; ga++ {
		for gb := 0; gb < d.G; gb++ {
			if ga != gb && !groupsReachable(dg, ga, gb) {
				t.Fatalf("groups %d,%d unreachable under empty plan", ga, gb)
			}
		}
	}
}

func TestDegradedChannelDeadBothEnds(t *testing.T) {
	d := degTestDF(t)
	// Kill the first global channel of router 0 from one side only; the
	// degraded view must see both ends dead.
	var port = -1
	for i := 0; i < d.Radix(0); i++ {
		if d.Port(0, i).Class == ClassGlobal {
			port = i
			break
		}
	}
	pt := d.Port(0, port)
	dg := NewDegraded(d, fakeFault{ports: map[[2]int]bool{{0, port}: true}})
	if dg.Alive(0, port) {
		t.Error("failed port still alive")
	}
	if dg.Alive(pt.PeerRouter, pt.PeerPort) {
		t.Error("peer end of a failed channel still alive")
	}
	if _, g, _, _ := dg.FaultCounts(); g != 1 {
		t.Errorf("dead global channels = %d, want 1", g)
	}
	ga, gb := 0, pt.PeerRouter/d.A
	if n, want := dg.LiveSlots().Count(ga, gb), d.Paths().Pairs().Count(ga, gb)-1; n != want {
		t.Errorf("live slots (%d,%d): %d, want %d", ga, gb, n, want)
	}
	if !dg.Connected() {
		t.Error("one dead channel disconnected the network")
	}
}

func TestDegradedRouterDownKillsEverything(t *testing.T) {
	d := degTestDF(t)
	const victim = 5
	dg := NewDegraded(d, fakeFault{routers: map[int]bool{victim: true}})
	if !dg.RouterDown(victim) {
		t.Fatal("victim not down")
	}
	for p := 0; p < d.Radix(victim); p++ {
		if dg.Alive(victim, p) {
			t.Errorf("port %d of the failed router still alive", p)
		}
	}
	// Its terminals are gone; everyone else's stay.
	for tm := 0; tm < d.Terminals(); tm++ {
		want := d.TerminalRouter(tm) != victim
		if got := !dg.TerminalDown(tm); got != want {
			t.Errorf("terminal %d alive = %v, want %v", tm, got, want)
		}
	}
	if dg.AliveTerminals() != d.Terminals()-d.P {
		t.Errorf("AliveTerminals = %d, want %d", dg.AliveTerminals(), d.Terminals()-d.P)
	}
	r, g, l, tm := dg.FaultCounts()
	if r != 1 || g != d.H || l != d.A-1 || tm != d.P {
		t.Errorf("FaultCounts = (%d,%d,%d,%d), want (1,%d,%d,%d)", r, g, l, tm, d.H, d.A-1, d.P)
	}
	// The rest of the fabric survives a single router.
	if !dg.Connected() {
		t.Error("one failed router disconnected the surviving fabric")
	}
}

func TestDegradedDisconnection(t *testing.T) {
	d := degTestDF(t)
	// Cut every global channel of group 0: its routers survive but the
	// group is unreachable, so reachability and Connected must say so.
	ports := map[[2]int]bool{}
	for idx := 0; idx < d.A; idx++ {
		r := idx
		for p := 0; p < d.Radix(r); p++ {
			if d.Port(r, p).Class == ClassGlobal {
				ports[[2]int{r, p}] = true
			}
		}
	}
	dg := NewDegraded(d, fakeFault{ports: ports})
	for gb := 1; gb < d.G; gb++ {
		if groupsReachable(dg, 0, gb) {
			t.Errorf("group 0 still reaches group %d with all its cables cut", gb)
		}
		if n := dg.LiveSlots().Count(0, gb); n != 0 {
			t.Errorf("live slots (0,%d): %d, want 0", gb, n)
		}
	}
	if !groupsReachable(dg, 1, 2) {
		t.Error("isolating group 0 broke reachability between other groups")
	}
	if dg.Connected() {
		t.Error("Connected() true with group 0 fully cut off")
	}
	// Terminals are still attached to their (local) routers.
	if dg.AliveTerminals() != d.Terminals() {
		t.Errorf("AliveTerminals = %d, want %d (terminal links untouched)", dg.AliveTerminals(), d.Terminals())
	}
}

// groupsReachable reports whether group gb can be reached from group ga
// over dg's live global channels, any number of group hops.
func groupsReachable(dg *Degraded, ga, gb int) bool {
	live := dg.LiveSlots()
	seen := make([]bool, live.Groups)
	seen[ga] = true
	queue := []int{ga}
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		for next := 0; next < live.Groups; next++ {
			if !seen[next] && live.Count(g, next) > 0 {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return seen[gb]
}
