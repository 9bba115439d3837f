package topology

// FaultView is the read-only interface a fault plan (internal/fault)
// exposes to the topology layer: which routers and which individual
// ports a fault scenario has taken down. The topology package defines
// the interface rather than importing the fault package so the
// dependency points outward (fault → topology, never back).
type FaultView interface {
	// RouterDown reports that router r has failed entirely.
	RouterDown(r int) bool
	// PortDown reports that the channel attached at (router, port) has
	// failed on this side. A channel is dead when either side is down.
	PortDown(r, port int) bool
}

// Degraded is a fault-aware view over any Machine: the pristine wiring
// table plus precomputed liveness of every port, the surviving global
// channels of every group pair, and router-level connectivity. It
// implements the same structural interface as the underlying machine
// (by embedding), so routing algorithms and the simulator can consume
// it in place of the pristine topology; both detect the degradation
// through the Alive method.
//
// The view is immutable once built, like the Graph it wraps: one
// Degraded corresponds to one fault scenario.
type Degraded struct {
	Machine

	portDead   [][]bool // [router][port], true when either channel end is down
	routerDown []bool
	termAlive  []bool
	aliveTerms int

	// live lists the surviving global-channel slots of every ordered
	// group pair in the path table's order, so with an empty fault plan
	// it equals the pristine pairs exactly.
	live      PairSlots
	connected bool

	deadRouters, deadGlobal, deadLocal, deadTerm int
}

// NewDegraded builds the degraded view of d under fault plan fv. A nil
// fv yields a fully alive view (useful for uniform call sites).
func NewDegraded(d Machine, fv FaultView) *Degraded {
	dg := &Degraded{Machine: d}
	n := d.Routers()
	dg.routerDown = make([]bool, n)
	dg.portDead = make([][]bool, n)
	for r := 0; r < n; r++ {
		dg.portDead[r] = make([]bool, d.Radix(r))
		if fv != nil && fv.RouterDown(r) {
			dg.routerDown[r] = true
			dg.deadRouters++
		}
	}
	// A port is dead when its own side or the peer side is down (port
	// failed or whole router failed). Count each bidirectional channel
	// once, from its lower (router, port) end.
	for r := 0; r < n; r++ {
		for p := 0; p < d.Radix(r); p++ {
			pt := d.Port(r, p)
			down := dg.routerDown[r] || (fv != nil && fv.PortDown(r, p))
			if pt.Class != ClassTerminal {
				down = down || dg.routerDown[pt.PeerRouter] || (fv != nil && fv.PortDown(pt.PeerRouter, pt.PeerPort))
			}
			if !down {
				continue
			}
			dg.portDead[r][p] = true
			switch {
			case pt.Class == ClassTerminal:
				dg.deadTerm++
			case pt.PeerRouter > r || (pt.PeerRouter == r && pt.PeerPort > p):
				if pt.Class == ClassGlobal {
					dg.deadGlobal++
				} else {
					dg.deadLocal++
				}
			}
		}
	}
	dg.termAlive = make([]bool, d.Terminals())
	for t := range dg.termAlive {
		dg.termAlive[t] = !dg.portDead[d.TerminalRouter(t)][d.TerminalPort(t)]
		if dg.termAlive[t] {
			dg.aliveTerms++
		}
	}
	dg.live = d.Paths().livePairs(dg.Alive)
	dg.connected = dg.computeConnected()
	return dg
}

// computeConnected reports whether every live router can reach every
// other live router over live channels (router-level BFS). It is an
// upper bound on what the routing algorithms — restricted to minimal
// paths and single-detour Valiant paths — can actually use, but a
// disconnected report is definitive: some traffic must drop.
func (dg *Degraded) computeConnected() bool {
	n := dg.Routers()
	start := -1
	for r := 0; r < n; r++ {
		if !dg.routerDown[r] {
			start = r
			break
		}
	}
	if start < 0 {
		return false
	}
	seen := make([]bool, n)
	seen[start] = true
	queue := []int{start}
	count := 1
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for p := 0; p < dg.Radix(r); p++ {
			pt := dg.Port(r, p)
			if pt.Class == ClassTerminal || dg.portDead[r][p] || seen[pt.PeerRouter] {
				continue
			}
			seen[pt.PeerRouter] = true
			queue = append(queue, pt.PeerRouter)
			count++
		}
	}
	for r := 0; r < n; r++ {
		if !dg.routerDown[r] && !seen[r] {
			return false
		}
	}
	return count > 0
}

// Alive reports whether the channel attached at (router, port) can carry
// flits: neither side's port nor router has failed. It implements
// sim.DegradedTopology.
func (dg *Degraded) Alive(router, port int) bool { return !dg.portDead[router][port] }

// RouterDown reports that router r failed entirely.
func (dg *Degraded) RouterDown(r int) bool { return dg.routerDown[r] }

// TerminalDown reports that terminal t is unreachable: its terminal
// channel or its router failed.
func (dg *Degraded) TerminalDown(t int) bool { return !dg.termAlive[t] }

// AliveTerminals returns the number of terminals still attached.
func (dg *Degraded) AliveTerminals() int { return dg.aliveTerms }

// LiveSlots returns the surviving global-channel slots of every ordered
// group pair in one flat table, filtered from the path table's pairs
// in their order — the layout routing reads on every hop. With an
// empty fault plan the lists equal the pristine pairs, so routing over
// an all-alive view is bit-identical to pristine routing.
func (dg *Degraded) LiveSlots() *PairSlots { return &dg.live }

// Connected reports whether all live routers form one component over
// live channels. A false report guarantees drops; a true report still
// permits drops if the surviving paths fall outside the routing
// algorithms' minimal-plus-one-detour repertoire.
func (dg *Degraded) Connected() bool { return dg.connected }

// FaultCounts returns the number of failed routers and of dead
// bidirectional channels by class (a channel whose either end failed
// counts once; channels of failed routers are included).
func (dg *Degraded) FaultCounts() (routers, global, local, terminal int) {
	return dg.deadRouters, dg.deadGlobal, dg.deadLocal, dg.deadTerm
}

// LocalRouteSeeded forwards the optional bundle-spreading capability
// (SeededLocal) of the wrapped machine; for machines without it, it is
// exactly the path table's Route, so the routing layer may use it
// unconditionally on a degraded view without changing behaviour.
func (dg *Degraded) LocalRouteSeeded(from, to int, seed uint64) int {
	if s, ok := dg.Machine.(SeededLocal); ok {
		return s.LocalRouteSeeded(from, to, seed)
	}
	return dg.Paths().Route(from, to)
}
