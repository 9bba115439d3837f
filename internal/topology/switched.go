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

// Alive reports whether the channel attached at (router, port) can
// carry flits under the current epoch.
func (s *Switched) Alive(router, port int) bool { return s.cur.Alive(router, port) }

// TerminalDown reports that terminal t is unreachable in the current
// epoch.
func (s *Switched) TerminalDown(t int) bool { return s.cur.TerminalDown(t) }

// LiveSlots returns the current epoch's surviving slots of every
// ordered group pair (see Degraded.LiveSlots).
func (s *Switched) LiveSlots() *PairSlots { return s.cur.LiveSlots() }

// LocalRouteSeeded forwards the optional bundle-spreading capability of
// the wrapped machine (see Degraded.LocalRouteSeeded).
func (s *Switched) LocalRouteSeeded(from, to int, seed uint64) int {
	if sl, ok := s.Machine.(SeededLocal); ok {
		return sl.LocalRouteSeeded(from, to, seed)
	}
	return s.Paths().Route(from, to)
}
