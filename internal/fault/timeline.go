package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dragonfly/internal/topology"
)

// Timeline schedules deterministic, seeded fail/recover events at
// simulation cycles: channels by class (random draws or fractions),
// whole routers (by id or random draws), and full recovery. A Timeline
// is a pure description; Compile resolves the random draws against a
// concrete dragonfly and produces the per-epoch degraded views the
// simulator swaps between.
//
// Determinism mirrors Plan: the same seed, the same builder calls and
// the same wiring compile to the identical schedule on every host and
// worker count. All draws come from one seeded SplitMix chain shared
// across the whole timeline, in event order.
type Timeline struct {
	seed   uint64
	events []tevent
}

// opKind is the event verb.
type opKind uint8

const (
	opFailChannels    opKind = iota // k random channels of a class
	opFailFraction                  // fraction of a class
	opFailRouter                    // a specific router id
	opFailRouters                   // k random routers
	opRecoverChannels               // k random failed channels of a class
	opRecoverRouter                 // a specific router id
	opRecoverRouters                // k random failed routers
	opRecoverAll                    // clear every failure
)

// tevent is one scheduled event. Events at the same cycle apply in
// insertion order and collapse into a single epoch boundary.
type tevent struct {
	cycle int64
	op    opKind
	class topology.Class
	count int
	frac  float64
	id    int // specific router id
}

// NewTimeline returns an empty timeline drawing its randomness from
// seed.
func NewTimeline(seed uint64) *Timeline {
	return &Timeline{seed: seed}
}

// Empty reports whether the timeline schedules no events.
func (tl *Timeline) Empty() bool { return len(tl.events) == 0 }

// FailChannelsAt schedules k random channels of class c to fail at the
// given cycle.
func (tl *Timeline) FailChannelsAt(cycle int64, c topology.Class, k int) *Timeline {
	tl.events = append(tl.events, tevent{cycle: cycle, op: opFailChannels, class: c, count: k})
	return tl
}

// FailFractionAt schedules fraction f of the class-c channels to be
// failed (cumulatively, counting channels already down) at the given
// cycle.
func (tl *Timeline) FailFractionAt(cycle int64, c topology.Class, f float64) *Timeline {
	tl.events = append(tl.events, tevent{cycle: cycle, op: opFailFraction, class: c, frac: f})
	return tl
}

// FailRouterAt schedules router id to fail at the given cycle.
func (tl *Timeline) FailRouterAt(cycle int64, id int) *Timeline {
	tl.events = append(tl.events, tevent{cycle: cycle, op: opFailRouter, id: id})
	return tl
}

// FailRoutersAt schedules k random routers to fail at the given cycle.
func (tl *Timeline) FailRoutersAt(cycle int64, k int) *Timeline {
	tl.events = append(tl.events, tevent{cycle: cycle, op: opFailRouters, count: k})
	return tl
}

// RecoverChannelsAt schedules k random explicitly-failed channels of
// class c to be repaired at the given cycle.
func (tl *Timeline) RecoverChannelsAt(cycle int64, c topology.Class, k int) *Timeline {
	tl.events = append(tl.events, tevent{cycle: cycle, op: opRecoverChannels, class: c, count: k})
	return tl
}

// RecoverRouterAt schedules router id to be repaired at the given
// cycle. Channels of the router that were failed explicitly stay down.
func (tl *Timeline) RecoverRouterAt(cycle int64, id int) *Timeline {
	tl.events = append(tl.events, tevent{cycle: cycle, op: opRecoverRouter, id: id})
	return tl
}

// RecoverRoutersAt schedules k random failed routers to be repaired at
// the given cycle.
func (tl *Timeline) RecoverRoutersAt(cycle int64, k int) *Timeline {
	tl.events = append(tl.events, tevent{cycle: cycle, op: opRecoverRouters, count: k})
	return tl
}

// RecoverAllAt schedules every failure to clear at the given cycle.
func (tl *Timeline) RecoverAllAt(cycle int64) *Timeline {
	tl.events = append(tl.events, tevent{cycle: cycle, op: opRecoverAll})
	return tl
}

// String summarises the timeline.
func (tl *Timeline) String() string {
	if tl.Empty() {
		return fmt.Sprintf("fault timeline (seed %d): no events", tl.seed)
	}
	cycles := map[int64]bool{}
	for _, e := range tl.events {
		cycles[e.cycle] = true
	}
	return fmt.Sprintf("fault timeline (seed %d): %d events over %d epochs",
		tl.seed, len(tl.events), len(cycles))
}

// snapshot is the immutable declared fault set of one epoch: a frozen
// copy of the compile-time plan state. It implements topology.FaultView,
// so the epoch's Degraded view and its declared causes travel together.
type snapshot struct {
	routers map[int]bool
	ports   map[portKey]bool
}

// RouterDown implements topology.FaultView.
func (s *snapshot) RouterDown(r int) bool { return s.routers[r] }

// PortDown implements topology.FaultView.
func (s *snapshot) PortDown(r, p int) bool { return s.ports[portKey{r, p}] }

// Epoch is one compiled interval of a schedule: from cycle Start
// (inclusive) until the next epoch's Start, the network operates under
// View.
type Epoch struct {
	// Start is the first cycle this epoch governs.
	Start int64
	// View is the fault-aware topology view of the epoch.
	View *topology.Degraded
	// Faults is the declared fault set the view derives from (failed
	// routers and explicitly failed channel endpoints). Every dead port
	// in View traces back to a declaration here: its own endpoint, its
	// peer endpoint, or a failed endpoint router.
	Faults topology.FaultView
}

// Schedule is a compiled timeline: the epochs in ascending Start order.
// Epochs[0].Start is always 0 (a pristine epoch is synthesised when the
// first event fires later). Views are immutable and may be shared
// across concurrent simulations.
type Schedule struct {
	// Seed is the timeline seed the draws derived from.
	Seed uint64
	// Events is the number of timeline events compiled into Epochs.
	Events int
	Epochs []Epoch
}

// Compile resolves the timeline's draws against d and returns the
// epoch schedule. Events at the same cycle apply in insertion order and
// produce one epoch. Compile fails on malformed events (negative
// cycles or counts, fractions outside [0,1], router ids out of range)
// and on any epoch that would leave zero live terminals — a timeline
// must degrade the machine, not erase it.
func (tl *Timeline) Compile(d topology.Machine) (*Schedule, error) {
	evs := make([]tevent, len(tl.events))
	copy(evs, tl.events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].cycle < evs[j].cycle })

	for _, e := range evs {
		if e.cycle < 0 {
			return nil, fmt.Errorf("fault: timeline event at negative cycle %d", e.cycle)
		}
		switch e.op {
		case opFailChannels, opFailRouters, opRecoverChannels, opRecoverRouters:
			if e.count < 0 {
				return nil, fmt.Errorf("fault: timeline event at cycle %d: negative count %d", e.cycle, e.count)
			}
		case opFailFraction:
			if math.IsNaN(e.frac) || e.frac < 0 || e.frac > 1 {
				return nil, fmt.Errorf("fault: timeline event at cycle %d: fraction %v out of [0,1]", e.cycle, e.frac)
			}
		case opFailRouter, opRecoverRouter:
			if e.id < 0 || e.id >= d.Routers() {
				return nil, fmt.Errorf("fault: timeline event at cycle %d: router %d out of range [0,%d)", e.cycle, e.id, d.Routers())
			}
		}
	}

	st := NewPlan(tl.seed)
	sched := &Schedule{Seed: tl.seed, Events: len(evs)}
	snap := func(start int64) error {
		ep := Epoch{Start: start, Faults: st.freeze()}
		ep.View = topology.NewDegraded(d, ep.Faults)
		if ep.View.AliveTerminals() == 0 {
			return fmt.Errorf("fault: timeline leaves no live terminals from cycle %d", start)
		}
		sched.Epochs = append(sched.Epochs, ep)
		return nil
	}

	i := 0
	for i < len(evs) {
		cycle := evs[i].cycle
		if len(sched.Epochs) == 0 && cycle > 0 {
			if err := snap(0); err != nil {
				return nil, err
			}
		}
		for ; i < len(evs) && evs[i].cycle == cycle; i++ {
			tl.apply(st, d, evs[i])
		}
		if err := snap(cycle); err != nil {
			return nil, err
		}
	}
	if len(sched.Epochs) == 0 {
		if err := snap(0); err != nil {
			return nil, err
		}
	}
	return sched, nil
}

// apply executes one event against the compile-time plan state.
func (tl *Timeline) apply(st *Plan, d topology.Machine, e tevent) {
	switch e.op {
	case opFailChannels:
		st.FailRandomChannels(d, e.class, e.count)
	case opFailFraction:
		st.FailFraction(d, e.class, e.frac)
	case opFailRouter:
		st.FailRouter(e.id)
	case opFailRouters:
		st.FailRandomRouters(d, e.count)
	case opRecoverChannels:
		st.RecoverRandomChannels(d, e.class, e.count)
	case opRecoverRouter:
		st.RecoverRouter(e.id)
	case opRecoverRouters:
		st.RecoverRandomRouters(e.count)
	case opRecoverAll:
		st.RecoverAll()
	}
}

// freeze copies the plan's declared fault set into an immutable
// snapshot.
func (p *Plan) freeze() *snapshot {
	s := &snapshot{
		routers: make(map[int]bool, len(p.routers)),
		ports:   make(map[portKey]bool, len(p.ports)),
	}
	for r := range p.routers {
		s.routers[r] = true
	}
	for k := range p.ports {
		s.ports[k] = true
	}
	return s
}

// classNames maps the spec grammar's class keywords.
var classNames = map[string]topology.Class{
	"global":   topology.ClassGlobal,
	"local":    topology.ClassLocal,
	"terminal": topology.ClassTerminal,
}

// ParseTimeline parses the -fault-timeline spec grammar into a
// timeline drawing its randomness from seed:
//
//	spec   := event (';' event)*
//	event  := '@' CYCLE verb arg...
//	verb   := 'fail' | 'recover'
//	arg    := CLASS '=' AMOUNT   (CLASS: global, local, terminal)
//	        | 'routers=' COUNT   (random routers)
//	        | 'router=' ID       (a specific router)
//	        | 'all'              (recover only: clear every failure)
//	AMOUNT := fraction in (0,1) for fail (e.g. 0.25), else a count
//
// Example: "@2000 fail global=0.25; @4000 fail router=7; @8000 recover all"
// fails a quarter of the global channels at cycle 2000, router 7 at
// cycle 4000, and repairs everything at cycle 8000.
func ParseTimeline(spec string, seed uint64) (*Timeline, error) {
	tl := NewTimeline(seed)
	for _, raw := range strings.Split(spec, ";") {
		ev := strings.TrimSpace(raw)
		if ev == "" {
			continue
		}
		fields := strings.Fields(ev)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "@") {
			return nil, fmt.Errorf("fault: bad timeline event %q: want \"@CYCLE fail|recover args\"", ev)
		}
		var cycle int64
		if _, err := fmt.Sscanf(fields[0][1:], "%d", &cycle); err != nil || cycle < 0 {
			return nil, fmt.Errorf("fault: bad timeline cycle %q", fields[0])
		}
		verb := fields[1]
		if verb != "fail" && verb != "recover" {
			return nil, fmt.Errorf("fault: bad timeline verb %q (want fail or recover)", verb)
		}
		args := fields[2:]
		if len(args) == 0 {
			return nil, fmt.Errorf("fault: timeline event %q has nothing to %s", ev, verb)
		}
		for _, arg := range args {
			if err := tl.parseArg(cycle, verb, arg); err != nil {
				return nil, err
			}
		}
	}
	return tl, nil
}

// parseArg appends the builder call for one event argument.
func (tl *Timeline) parseArg(cycle int64, verb, arg string) error {
	if arg == "all" {
		if verb != "recover" {
			return fmt.Errorf("fault: timeline: \"all\" is only valid after recover")
		}
		tl.RecoverAllAt(cycle)
		return nil
	}
	key, val, ok := strings.Cut(arg, "=")
	if !ok {
		return fmt.Errorf("fault: bad timeline argument %q (want key=value or all)", arg)
	}
	num, err := parseAmount(val)
	if err != nil {
		return fmt.Errorf("fault: bad timeline amount %q: %w", arg, err)
	}
	isFrac := num > 0 && num < 1
	count := int(num + 0.5)
	switch {
	case key == "router":
		if isFrac {
			return fmt.Errorf("fault: timeline: router=%s wants an id, not a fraction", val)
		}
		if verb == "fail" {
			tl.FailRouterAt(cycle, count)
		} else {
			tl.RecoverRouterAt(cycle, count)
		}
	case key == "routers":
		if isFrac {
			return fmt.Errorf("fault: timeline: routers=%s wants a count, not a fraction", val)
		}
		if verb == "fail" {
			tl.FailRoutersAt(cycle, count)
		} else {
			tl.RecoverRoutersAt(cycle, count)
		}
	default:
		c, ok := classNames[key]
		if !ok {
			return fmt.Errorf("fault: timeline: unknown key %q (want global, local, terminal, routers, router)", key)
		}
		switch {
		case verb == "fail" && isFrac:
			tl.FailFractionAt(cycle, c, num)
		case verb == "fail":
			tl.FailChannelsAt(cycle, c, count)
		case isFrac:
			return fmt.Errorf("fault: timeline: recover %s=%s wants a count, not a fraction", key, val)
		default:
			tl.RecoverChannelsAt(cycle, c, count)
		}
	}
	return nil
}

// parseAmount parses a non-negative count or fraction.
func parseAmount(s string) (float64, error) {
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("amount %v out of range", v)
	}
	return v, nil
}
