package topology

// Switched is a mutable holder of the current fault epoch over one
// Machine: it exposes the same fault-aware interface as Degraded but
// delegates every liveness query to a swappable current view. One
// Switched belongs to one simulation — the routing algorithm and the
// simulator built over it both observe an epoch change the instant
// SetEpoch swaps the view, which is how a fault timeline re-resolves
// in-flight routing against the new fault set.
//
// The Degraded views themselves stay immutable and may be shared by
// any number of concurrent simulations; only the Switched wrapper is
// per-simulation state. Swapping is not synchronised — the simulator
// swaps between cycles, never mid-query.
type Switched struct {
	Machine
	cur *Degraded
}

// NewSwitched returns a switchable view of d starting at the fully
// alive epoch.
func NewSwitched(d Machine) *Switched {
	return &Switched{Machine: d, cur: NewDegraded(d, nil)}
}

// SetEpoch swaps the current view. The view must wrap the same
// machine this Switched was built over.
func (s *Switched) SetEpoch(v *Degraded) {
	if v.Machine != s.Machine {
		panic("topology: SetEpoch with a view of a different machine")
	}
	s.cur = v
}

// Epoch returns the current view.
func (s *Switched) Epoch() *Degraded { return s.cur }

// Alive reports whether the channel attached at (router, port) can
// carry flits under the current epoch.
func (s *Switched) Alive(router, port int) bool { return s.cur.Alive(router, port) }

// RouterDown reports that router r is failed in the current epoch.
func (s *Switched) RouterDown(r int) bool { return s.cur.RouterDown(r) }

// TerminalDown reports that terminal t is unreachable in the current
// epoch.
func (s *Switched) TerminalDown(t int) bool { return s.cur.TerminalDown(t) }

// AliveTerminals returns the live terminal count of the current epoch.
func (s *Switched) AliveTerminals() int { return s.cur.AliveTerminals() }

// LiveSlots returns the current epoch's surviving slots of every
// ordered group pair (see Degraded.LiveSlots).
func (s *Switched) LiveSlots() *PairSlots { return s.cur.LiveSlots() }

// GroupsReachable reports group-level reachability over the live global
// channels of the current epoch.
func (s *Switched) GroupsReachable(ga, gb int) bool { return s.cur.GroupsReachable(ga, gb) }

// Connected reports whether the current epoch's live routers form one
// component.
func (s *Switched) Connected() bool { return s.cur.Connected() }

// FaultCounts returns the current epoch's failed router count and dead
// channel counts by class.
func (s *Switched) FaultCounts() (routers, global, local, terminal int) {
	return s.cur.FaultCounts()
}

// LocalRouteSeeded forwards the optional bundle-spreading capability of
// the wrapped machine (see Degraded.LocalRouteSeeded).
func (s *Switched) LocalRouteSeeded(from, to int, seed uint64) int {
	if sl, ok := s.Machine.(SeededLocal); ok {
		return sl.LocalRouteSeeded(from, to, seed)
	}
	return s.Paths().Route(from, to)
}
