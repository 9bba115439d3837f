package topology

import "testing"

func TestSwitchedDelegatesToCurrentEpoch(t *testing.T) {
	d, err := NewDragonfly(2, 4, 2, 0)
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	sw := NewSwitched(d)

	// Pristine start: everything alive.
	if n := aliveTerminals(sw); n != d.Terminals() {
		t.Fatalf("pristine live terminals = %d, want %d", n, d.Terminals())
	}
	for p := 0; p < d.Radix(0); p++ {
		if !sw.Alive(0, p) {
			t.Fatalf("pristine port (0,%d) dead", p)
		}
	}
	if r, g, l, term := sw.cur.FaultCounts(); r+g+l+term != 0 {
		t.Fatal("pristine view reports faults")
	}

	// Swap to a view with router 5 down: every query must flip to the
	// new view's answers.
	faulted := NewDegraded(d, routerDownView{5})
	sw.SetEpoch(faulted)
	if sw.cur != faulted {
		t.Fatal("SetEpoch did not install the swapped view")
	}
	if !sw.TerminalDown(5 * d.P) {
		t.Error("terminal of router 5 alive after swap")
	}
	if sw.Alive(5, 0) {
		t.Error("port of a down router alive after swap")
	}
	if n := aliveTerminals(sw); n != d.Terminals()-d.P {
		t.Errorf("live terminals = %d, want %d", n, d.Terminals()-d.P)
	}
	if sw.LiveSlots() != faulted.LiveSlots() {
		t.Error("LiveSlots does not read the swapped view")
	}
	if r, _, _, _ := sw.cur.FaultCounts(); r != 1 {
		t.Errorf("FaultCounts routers = %d, want 1", r)
	}

	// Swap back: the pristine answers return.
	sw.SetEpoch(NewDegraded(d, nil))
	if sw.TerminalDown(5*d.P) || !sw.Alive(5, 0) {
		t.Error("swap back to pristine did not restore liveness")
	}
}

func TestSwitchedRejectsForeignView(t *testing.T) {
	d1, err := NewDragonfly(2, 4, 2, 0)
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	d2, err := NewDragonfly(2, 4, 2, 0)
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	sw := NewSwitched(d1)
	defer func() {
		if recover() == nil {
			t.Error("SetEpoch with a foreign dragonfly's view did not panic")
		}
	}()
	sw.SetEpoch(NewDegraded(d2, nil))
}

// aliveTerminals counts the terminals sw reports reachable.
func aliveTerminals(sw *Switched) int {
	n := 0
	for t := 0; t < sw.Terminals(); t++ {
		if !sw.TerminalDown(t) {
			n++
		}
	}
	return n
}

// routerDownView is a minimal FaultView failing one router.
type routerDownView struct{ r int }

func (v routerDownView) RouterDown(r int) bool  { return r == v.r }
func (v routerDownView) PortDown(int, int) bool { return false }
