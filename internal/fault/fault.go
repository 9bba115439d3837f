// Package fault builds deterministic, seeded fault-injection plans for
// topology graphs: individual channels (by class: global, local,
// terminal) and whole routers are marked failed, and the resulting Plan
// is handed to topology.NewDegraded to derive the fault-aware view the
// routing algorithms and the simulator consume.
//
// Plans are deterministic: the same seed and the same sequence of
// builder calls over the same wiring produce the identical plan,
// regardless of host, process, or worker count. All randomness derives
// from the plan seed through the same SplitMix chain the simulator uses
// (sim.DeriveSeed), with one draw counter per plan.
package fault

import (
	"fmt"
	"sort"

	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// Wiring is the structural view a Plan needs to enumerate channels. Any
// *topology.Graph (or topology embedding one) satisfies it.
type Wiring interface {
	Routers() int
	Radix(r int) int
	Port(r, p int) topology.Port
}

type portKey struct{ r, p int }

// Plan is a set of failed routers and failed channel endpoints. It
// implements topology.FaultView. The zero value is unusable; construct
// with NewPlan.
type Plan struct {
	seed uint64
	ctr  uint64 // draw counter: one increment per random decision

	routers map[int]bool
	ports   map[portKey]bool

	failedRouters int
	failedClass   [3]int // dead channels by topology.Class
}

// NewPlan returns an empty fault plan drawing its randomness from seed.
func NewPlan(seed uint64) *Plan {
	return &Plan{
		seed:    seed,
		routers: make(map[int]bool),
		ports:   make(map[portKey]bool),
	}
}

// RouterDown implements topology.FaultView.
func (p *Plan) RouterDown(r int) bool { return p.routers[r] }

// PortDown implements topology.FaultView.
func (p *Plan) PortDown(r, port int) bool { return p.ports[portKey{r, port}] }

// Empty reports whether the plan fails nothing.
func (p *Plan) Empty() bool { return len(p.routers) == 0 && len(p.ports) == 0 }

// FailRouter marks router r failed: every channel it terminates is dead
// and its terminals are unreachable. Repeated calls are idempotent.
func (p *Plan) FailRouter(r int) {
	if p.routers[r] {
		return
	}
	p.routers[r] = true
	p.failedRouters++
}

// FailChannel marks the channel attached at (r, port) of w failed,
// marking both endpoints so the failure is symmetric (a cut cable, not
// a one-way fault). Repeated calls on either end are idempotent.
func (p *Plan) FailChannel(w Wiring, r, port int) {
	if p.ports[portKey{r, port}] {
		return
	}
	pt := w.Port(r, port)
	p.ports[portKey{r, port}] = true
	if pt.Class != topology.ClassTerminal {
		p.ports[portKey{pt.PeerRouter, pt.PeerPort}] = true
	}
	p.failedClass[pt.Class]++
}

// channels enumerates the bidirectional channels of class c in w that
// the plan has not yet failed (explicitly or via a failed router), each
// channel once, identified by its lower (router, port) endpoint, in
// canonical ascending order.
func (p *Plan) channels(w Wiring, c topology.Class) []portKey {
	var out []portKey
	for r := 0; r < w.Routers(); r++ {
		for i := 0; i < w.Radix(r); i++ {
			pt := w.Port(r, i)
			if pt.Class != c {
				continue
			}
			if c != topology.ClassTerminal {
				// Count router-to-router channels from the lower end only.
				if pt.PeerRouter < r || (pt.PeerRouter == r && pt.PeerPort < i) {
					continue
				}
				if p.routers[pt.PeerRouter] {
					continue
				}
			}
			if p.routers[r] || p.ports[portKey{r, i}] {
				continue
			}
			out = append(out, portKey{r, i})
		}
	}
	return out
}

// FailRandomChannels fails k channels of class c drawn uniformly,
// without replacement, from the channels of w still alive in the plan.
// It returns the number actually failed (fewer than k when not enough
// live channels remain). The draw order is a partial Fisher–Yates over
// the canonical channel enumeration, so the result is a pure function
// of the plan seed, the draw counter, and the wiring.
func (p *Plan) FailRandomChannels(w Wiring, c topology.Class, k int) int {
	cand := p.channels(w, c)
	failed := 0
	for ; failed < k && len(cand) > 0; failed++ {
		i := int(sim.Mix(sim.DeriveSeed(p.seed, p.ctr)) % uint64(len(cand)))
		p.ctr++
		p.FailChannel(w, cand[i].r, cand[i].p)
		cand[i] = cand[len(cand)-1]
		cand = cand[:len(cand)-1]
	}
	return failed
}

// FailFraction fails fraction f (rounded to the nearest whole channel)
// of the class-c channels of w, counting channels already failed
// against the target. It returns the number newly failed.
func (p *Plan) FailFraction(w Wiring, c topology.Class, f float64) int {
	if f <= 0 {
		return 0
	}
	total := len(p.channels(w, c)) + p.failedClass[c]
	want := int(f*float64(total) + 0.5)
	want -= p.failedClass[c]
	if want <= 0 {
		return 0
	}
	return p.FailRandomChannels(w, c, want)
}

// FailRandomRouters fails k routers drawn uniformly, without
// replacement, from the routers of w still alive in the plan, returning
// the number actually failed.
func (p *Plan) FailRandomRouters(w Wiring, k int) int {
	var cand []int
	for r := 0; r < w.Routers(); r++ {
		if !p.routers[r] {
			cand = append(cand, r)
		}
	}
	failed := 0
	for ; failed < k && len(cand) > 0; failed++ {
		i := int(sim.Mix(sim.DeriveSeed(p.seed, p.ctr)) % uint64(len(cand)))
		p.ctr++
		p.FailRouter(cand[i])
		cand[i] = cand[len(cand)-1]
		cand = cand[:len(cand)-1]
	}
	return failed
}

// failedChannels enumerates the explicitly failed channels of class c,
// each once, identified by its lower (router, port) endpoint, in
// canonical ascending order — the repair-side mirror of channels().
// Channels dead only because a router failed are not included: they are
// not explicit channel faults and revive with the router.
func (p *Plan) failedChannels(w Wiring, c topology.Class) []portKey {
	var out []portKey
	for r := 0; r < w.Routers(); r++ {
		for i := 0; i < w.Radix(r); i++ {
			pt := w.Port(r, i)
			if pt.Class != c || !p.ports[portKey{r, i}] {
				continue
			}
			if c != topology.ClassTerminal {
				if pt.PeerRouter < r || (pt.PeerRouter == r && pt.PeerPort < i) {
					continue
				}
			}
			out = append(out, portKey{r, i})
		}
	}
	return out
}

// RecoverRouter clears router r's failure. Channels that were failed
// explicitly (FailChannel and friends) stay failed; channels dead only
// because the router was down revive with it. Recovering a live router
// is a no-op.
func (p *Plan) RecoverRouter(r int) {
	if !p.routers[r] {
		return
	}
	delete(p.routers, r)
	p.failedRouters--
}

// RecoverChannel clears the explicit failure of the channel attached at
// (r, port), both endpoints. Recovering a live channel is a no-op; the
// channel stays dead in derived views while either endpoint router is
// still down.
func (p *Plan) RecoverChannel(w Wiring, r, port int) {
	if !p.ports[portKey{r, port}] {
		return
	}
	pt := w.Port(r, port)
	delete(p.ports, portKey{r, port})
	if pt.Class != topology.ClassTerminal {
		delete(p.ports, portKey{pt.PeerRouter, pt.PeerPort})
	}
	p.failedClass[pt.Class]--
}

// RecoverRandomChannels repairs k explicitly failed channels of class c
// drawn uniformly, without replacement, from the plan's failed set,
// returning the number actually repaired (fewer than k when fewer are
// failed). The draws come from the same seeded chain as the failure
// draws, so a fail/recover sequence is one deterministic stream.
func (p *Plan) RecoverRandomChannels(w Wiring, c topology.Class, k int) int {
	cand := p.failedChannels(w, c)
	fixed := 0
	for ; fixed < k && len(cand) > 0; fixed++ {
		i := int(sim.Mix(sim.DeriveSeed(p.seed, p.ctr)) % uint64(len(cand)))
		p.ctr++
		p.RecoverChannel(w, cand[i].r, cand[i].p)
		cand[i] = cand[len(cand)-1]
		cand = cand[:len(cand)-1]
	}
	return fixed
}

// RecoverRandomRouters repairs k failed routers drawn uniformly, without
// replacement, returning the number actually repaired.
func (p *Plan) RecoverRandomRouters(k int) int {
	cand := p.FailedRouters()
	fixed := 0
	for ; fixed < k && len(cand) > 0; fixed++ {
		i := int(sim.Mix(sim.DeriveSeed(p.seed, p.ctr)) % uint64(len(cand)))
		p.ctr++
		p.RecoverRouter(cand[i])
		cand[i] = cand[len(cand)-1]
		cand = cand[:len(cand)-1]
	}
	return fixed
}

// RecoverAll clears every failure — routers and channels — returning
// the plan to the pristine state. The draw counter is not reset: a
// later random failure continues the same deterministic stream.
func (p *Plan) RecoverAll() {
	p.routers = make(map[int]bool)
	p.ports = make(map[portKey]bool)
	p.failedRouters = 0
	p.failedClass = [3]int{}
}

// FailedRouters returns the failed router ids in ascending order.
func (p *Plan) FailedRouters() []int {
	out := make([]int, 0, len(p.routers))
	for r := range p.routers {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// String summarises the plan.
func (p *Plan) String() string {
	if p.Empty() {
		return fmt.Sprintf("fault plan (seed %d): no faults", p.seed)
	}
	return fmt.Sprintf("fault plan (seed %d): %d routers, %d global / %d local / %d terminal channels failed",
		p.seed, p.failedRouters,
		p.failedClass[topology.ClassGlobal],
		p.failedClass[topology.ClassLocal],
		p.failedClass[topology.ClassTerminal])
}
