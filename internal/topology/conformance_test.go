package topology

import (
	"fmt"
	"reflect"
	"testing"
)

// The topology-contract conformance suite: every Machine in the
// registry — and any Machine a fuzzed builder produces — must satisfy
// the structural contract the simulator, the routing layer, the fault
// planner and the shard partitioner all lean on. One suite, run
// against every implementation, so a new topology cannot pass its own
// unit tests while quietly violating an invariant only some other
// layer depends on.

// conformanceMachines returns one modest instance per registered
// family, built through the registry (so the Build path itself is
// under test), plus a fault-wrapped Degraded view of the canonical
// dragonfly with an empty plan (which must answer every structural
// query like the pristine machine).
func conformanceMachines(t *testing.T) map[string]Machine {
	t.Helper()
	out := map[string]Machine{}
	for fam, params := range conformanceSpecs {
		m, err := Build(fam, params)
		if err != nil {
			t.Fatalf("Build(%s, %v): %v", fam, params, err)
		}
		out[fam] = m
	}
	d, err := NewDragonfly(2, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	out["degraded(empty plan)"] = NewDegraded(d, emptyFaultView{})
	return out
}

// conformanceSpecs are small build parameters for every registered
// family.
var conformanceSpecs = map[string]map[string]int{
	"dragonfly":     {"p": 2, "a": 4, "h": 2},
	"dragonflyfb":   {"p": 2, "d1": 2, "d2": 2, "h": 2},
	"dragonflyplus": {"p": 2, "leaves": 3, "spines": 2, "h": 2},
	"swapped":       {"p": 2, "k": 4, "m": 3},
	"aries":         {"p": 2, "blades": 3, "chassis": 2, "bundle": 2, "h": 2, "g": 4},
}

// emptyFaultView is the all-alive FaultView: wrapping with it must not
// change any structural answer.
type emptyFaultView struct{}

func (emptyFaultView) RouterDown(int) bool    { return false }
func (emptyFaultView) PortDown(int, int) bool { return false }

func TestConformance(t *testing.T) {
	for name, m := range conformanceMachines(t) {
		t.Run(name, func(t *testing.T) { checkMachine(t, m) })
	}
}

// checkMachine runs the full conformance suite against one Machine.
// It is deliberately exhaustive rather than sampled: the machines are
// small, and a single mis-wired port is exactly the kind of bug
// sampling misses.
func checkMachine(t *testing.T, m Machine) {
	t.Helper()
	checkPortBijectivity(t, m)
	checkCensusMatchesDescriptor(t, m)
	checkPaths(t, m)
	checkReachability(t, m)
	if m.MinVCs() < 1 {
		t.Errorf("MinVCs() = %d, want >= 1", m.MinVCs())
	}
}

// checkPortBijectivity: the wiring table is an involution. Every
// non-terminal port's peer names this port as its own peer; every
// terminal port carries the terminal that TerminalRouter/TerminalPort
// claim sits there; every terminal appears exactly once.
func checkPortBijectivity(t *testing.T, m Machine) {
	t.Helper()
	seen := make([]int, m.Terminals())
	for r := 0; r < m.Routers(); r++ {
		for p := 0; p < m.Radix(r); p++ {
			pt := m.Port(r, p)
			if pt.Class == ClassTerminal {
				if pt.Terminal < 0 || pt.Terminal >= m.Terminals() {
					t.Fatalf("router %d port %d: terminal %d out of range", r, p, pt.Terminal)
				}
				seen[pt.Terminal]++
				if m.TerminalRouter(pt.Terminal) != r || m.TerminalPort(pt.Terminal) != p {
					t.Errorf("terminal %d attached at router %d port %d but TerminalRouter/Port say %d/%d",
						pt.Terminal, r, p, m.TerminalRouter(pt.Terminal), m.TerminalPort(pt.Terminal))
				}
				continue
			}
			if pt.PeerRouter < 0 || pt.PeerRouter >= m.Routers() {
				t.Fatalf("router %d port %d: peer router %d out of range", r, p, pt.PeerRouter)
			}
			back := m.Port(pt.PeerRouter, pt.PeerPort)
			if back.PeerRouter != r || back.PeerPort != p {
				t.Errorf("router %d port %d <-> router %d port %d is not an involution (reverse names %d/%d)",
					r, p, pt.PeerRouter, pt.PeerPort, back.PeerRouter, back.PeerPort)
			}
			if back.Class != pt.Class {
				t.Errorf("link %d/%d <-> %d/%d has class %v on one side, %v on the other",
					r, p, pt.PeerRouter, pt.PeerPort, pt.Class, back.Class)
			}
			a := m.Describe().RoutersPerGroup
			if pt.Class == ClassLocal && pt.PeerRouter/a != r/a {
				t.Errorf("local link %d/%d crosses groups %d -> %d", r, p, r/a, pt.PeerRouter/a)
			}
			if pt.Class == ClassGlobal && pt.PeerRouter/a == r/a {
				t.Errorf("global link %d/%d stays inside group %d", r, p, r/a)
			}
		}
	}
	for term, n := range seen {
		if n != 1 {
			t.Errorf("terminal %d attached to %d ports, want exactly 1", term, n)
		}
	}
}

// checkCensusMatchesDescriptor: the analytic Descriptor (closed forms
// over the build parameters) must agree with a census of the actual
// wiring table. A builder bug shows up here as a descriptor mismatch
// instead of a silent mis-wiring.
func checkCensusMatchesDescriptor(t *testing.T, m Machine) {
	t.Helper()
	desc := m.Describe()
	if desc.Routers != m.Routers() || desc.Terminals != m.Terminals() || desc.Groups != m.Paths().Groups() {
		t.Errorf("descriptor sizes %d routers/%d terminals/%d groups, machine says %d/%d/%d",
			desc.Routers, desc.Terminals, desc.Groups, m.Routers(), m.Terminals(), m.Paths().Groups())
	}
	if desc.Routers != desc.Groups*desc.RoutersPerGroup || desc.Terminals != desc.Groups*desc.TerminalsPerGroup {
		t.Errorf("descriptor is not group-regular: %d groups x %d routers, %d groups x %d terminals vs totals %d/%d",
			desc.Groups, desc.RoutersPerGroup, desc.Groups, desc.TerminalsPerGroup, desc.Routers, desc.Terminals)
	}
	term, local, global := census(m)
	if term != desc.TerminalChannels || local != desc.LocalChannels || global != desc.GlobalChannels {
		t.Errorf("channel census %d/%d/%d (terminal/local/global), descriptor claims %d/%d/%d",
			term, local, global, desc.TerminalChannels, desc.LocalChannels, desc.GlobalChannels)
	}
	maxRadix := 0
	for r := 0; r < m.Routers(); r++ {
		if k := m.Radix(r); k > maxRadix {
			maxRadix = k
		}
	}
	if desc.RouterRadix != maxRadix || m.RouterRadix() != maxRadix {
		t.Errorf("RouterRadix %d (descriptor %d), census max %d", m.RouterRadix(), desc.RouterRadix, maxRadix)
	}
	if desc.Family != "" {
		rebuilt, err := Build(desc.Family, desc.Params)
		if err != nil {
			t.Fatalf("Build(%s, %v) from the machine's own descriptor: %v", desc.Family, desc.Params, err)
		}
		if rd := rebuilt.Describe(); fmt.Sprintf("%+v", descWithoutParams(rd)) != fmt.Sprintf("%+v", descWithoutParams(desc)) {
			t.Errorf("descriptor does not round-trip through Build: %+v vs %+v", rd, desc)
		}
	}
}

// census counts m's bidirectional channels of each class from its port
// tables, as Graph.CountChannels does: terminals once, router-to-router
// links from both ends halved.
func census(m Machine) (terminal, local, global int) {
	for r := 0; r < m.Routers(); r++ {
		for p := 0; p < m.Radix(r); p++ {
			switch m.Port(r, p).Class {
			case ClassTerminal:
				terminal++
			case ClassLocal:
				local++
			case ClassGlobal:
				global++
			}
		}
	}
	return terminal, local / 2, global / 2
}

// TestBuildFoldsFamilyCase: the family name folds case, as the traffic
// and workload names do, so "Dragonfly" builds the canonical dragonfly.
func TestBuildFoldsFamilyCase(t *testing.T) {
	want, err := Build("dragonfly", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spelling := range []string{"Dragonfly", "DRAGONFLY"} {
		got, err := Build(spelling, nil)
		if err != nil {
			t.Fatalf("Build(%q): %v", spelling, err)
		}
		if !reflect.DeepEqual(got.Describe(), want.Describe()) {
			t.Errorf("Build(%q) describes %+v, want %+v", spelling, got.Describe(), want.Describe())
		}
	}
}

// descWithoutParams compares descriptors ignoring the params map
// (maps are not comparable with ==).
func descWithoutParams(d Descriptor) Descriptor {
	d.Params = nil
	return d
}

// checkPaths: the path table matches the wiring entry by entry
// (tableMismatch), and it has the properties routing relies on. Every
// distinct group pair has at least one direct channel, as many as the
// reverse pair. In every group, not only the one the table was derived
// from, following Route hop by hop over local ports reaches the
// target in Hops steps.
func checkPaths(t *testing.T, m Machine) {
	t.Helper()
	tb := m.Paths()
	if msg := tableMismatch(tb, m); msg != "" {
		t.Fatalf("path table: %s", msg)
	}
	g, a := tb.Groups(), tb.RoutersPerGroup()
	ps := tb.Pairs()
	for ga := 0; ga < g; ga++ {
		for gb := 0; gb < g; gb++ {
			if n := ps.Count(ga, gb); ga != gb && (n < 1 || n != ps.Count(gb, ga)) {
				t.Errorf("groups %d -> %d have %d channels, %d back; want the same number, at least 1", ga, gb, n, ps.Count(gb, ga))
			}
		}
	}
	for grp := 0; grp < g; grp++ {
		for from := 0; from < a; from++ {
			for to := 0; to < a; to++ {
				cur, hops := from, 0
				for ; cur != to && hops <= a; hops++ {
					r := grp*a + cur
					pt := m.Port(r, tb.Route(cur, to))
					if pt.Class != ClassLocal {
						t.Fatalf("group %d: Route(%d, %d) at router %d is a %v port", grp, cur, to, r, pt.Class)
					}
					cur = pt.PeerRouter - grp*a
				}
				if cur != to || hops != tb.Hops(from, to) {
					t.Errorf("group %d: walk %d -> %d ended at %d after %d hops, Hops says %d", grp, from, to, cur, hops, tb.Hops(from, to))
				}
			}
		}
	}
}

// checkReachability: the machine is connected with a finite diameter —
// Diameter BFSes the actual wiring, so this catches isolated routers a
// per-port check cannot.
func checkReachability(t *testing.T, m Machine) {
	t.Helper()
	g, ok := graphOf(m)
	if !ok {
		t.Fatalf("machine %v does not expose its Graph", m)
	}
	diam, err := g.Diameter()
	if err != nil {
		t.Fatalf("Diameter: %v", err)
	}
	if m.Routers() > 1 && diam < 1 {
		t.Errorf("diameter %d over %d routers, want >= 1", diam, m.Routers())
	}
}

// graphOf digs the wiring Graph out of a Machine for the BFS check.
func graphOf(m Machine) (*Graph, bool) {
	switch v := m.(type) {
	case *Dragonfly:
		return v.Graph, true
	case *DragonflyFB:
		return v.Graph, true
	case *DragonflyPlus:
		return v.Graph, true
	case *Swapped:
		return v.Graph, true
	case *Aries:
		return v.Graph, true
	case *Degraded:
		g, ok := graphOf(v.Machine)
		return g, ok
	}
	return nil, false
}

// FuzzSwappedBuilder drives NewSwapped over its parameter space: any
// build that succeeds must pass the full conformance suite, and no
// build may panic.
func FuzzSwappedBuilder(f *testing.F) {
	f.Add(2, 4, 0)
	f.Add(1, 8, 8)
	f.Add(2, 5, 3)
	f.Add(4, 16, 12)
	f.Fuzz(func(t *testing.T, p, k, m int) {
		if p < 0 || k < 0 || m < 0 || p > 8 || k > 32 || m > 32 {
			t.Skip("out of the supported envelope")
		}
		sw, err := NewSwapped(p, k, m)
		if err != nil {
			return // rejected cleanly: that's a pass
		}
		checkMachine(t, sw)
	})
}

// FuzzDragonflyPlusBuilder does the same for NewDragonflyPlus.
func FuzzDragonflyPlusBuilder(f *testing.F) {
	f.Add(2, 4, 4, 2, 0)
	f.Add(1, 3, 2, 2, 4)
	f.Add(2, 2, 3, 1, 3)
	f.Fuzz(func(t *testing.T, p, leaves, spines, h, groups int) {
		if p < 0 || leaves < 0 || spines < 0 || h < 0 || groups < 0 ||
			p > 8 || leaves > 12 || spines > 12 || h > 8 || groups > 24 {
			t.Skip("out of the supported envelope")
		}
		dp, err := NewDragonflyPlus(p, leaves, spines, h, groups)
		if err != nil {
			return
		}
		checkMachine(t, dp)
	})
}

// FuzzDragonflyBuilder does the same for NewDragonfly, whose group
// counts below the maximum wire the circulant remainder layer. The
// builder must reject exactly the invalid plans: non-positive sizes,
// more groups than a·h+1, and an odd remainder a·h mod (g-1) with g
// odd, which cannot be wired symmetrically. Maximal machines must also
// match the paper's wiring (checkCanonicalWiring).
func FuzzDragonflyBuilder(f *testing.F) {
	f.Add(2, 4, 2, 0)
	f.Add(2, 4, 2, 6)
	f.Add(1, 3, 3, 7)
	f.Add(3, 2, 2, 1)
	f.Fuzz(func(t *testing.T, p, a, h, g int) {
		if p > 4 || a > 8 || h > 6 || g > 49 {
			t.Skip("out of the supported envelope")
		}
		d, err := NewDragonfly(p, a, h, g)
		valid := p >= 1 && a >= 1 && h >= 1 && g >= 0 && g <= a*h+1
		if valid && g > 1 {
			valid = (a*h)%(g-1)%2 == 0 || g%2 == 0
		}
		if (err == nil) != valid {
			t.Fatalf("NewDragonfly(%d, %d, %d, %d): error %v, want valid=%v", p, a, h, g, err, valid)
		}
		if err != nil {
			return
		}
		checkMachine(t, d)
		if d.G == a*h+1 {
			checkCanonicalWiring(t, d)
		}
	})
}
