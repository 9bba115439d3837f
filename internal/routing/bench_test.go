package routing

// Routing micro-benchmarks: source decisions and per-hop requests on the
// paper's 1K machine (p=4 a=8 h=4) and the 16K machine (p=8 a=16 h=8),
// pristine and with 10% of the global channels failed, over a fixed
// pre-built packet set. The path table these read is built with the
// machine; internal/topology's BenchmarkPathTableBuild times it.
//
//	go test -run '^$' -bench . -benchtime 2s ./internal/routing/

import (
	"errors"
	"fmt"
	"testing"

	"dragonfly/internal/fault"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// benchPackets is the size of the fixed packet set.
const benchPackets = 4096

// benchMachine is one benchmarked machine: the dragonfly, the topology
// routing runs over (the dragonfly itself or its degraded view), and an
// idle network supplying the routers Decide and NextHop read.
type benchMachine struct {
	name string
	d    *topology.Dragonfly
	topo topology.Machine
	net  *sim.Network
}

// benchMachines builds the 1K and 16K machines, pristine and degraded.
func benchMachines(b *testing.B) []benchMachine {
	b.Helper()
	var ms []benchMachine
	for _, size := range []struct {
		name    string
		p, a, h int
	}{{"1k", 4, 8, 4}, {"16k", 8, 16, 8}} {
		d, err := topology.NewDragonfly(size.p, size.a, size.h, 0)
		if err != nil {
			b.Fatalf("NewDragonfly: %v", err)
		}
		plan := fault.NewPlan(1)
		plan.FailFraction(d, topology.ClassGlobal, 0.10)
		for _, v := range []struct {
			name string
			topo topology.Machine
		}{{"pristine", d}, {"degraded10", topology.NewDegraded(d, plan)}} {
			net, err := sim.New(v.topo, testCfg(), NewMIN(v.topo), traffic.NewUniformRandom(d.Nodes()))
			if err != nil {
				b.Fatalf("sim.New: %v", err)
			}
			ms = append(ms, benchMachine{name: size.name + "/" + v.name, d: d, topo: v.topo, net: net})
		}
	}
	return ms
}

// benchHop is one routing call of the packet set: the router it runs at
// and the packet state it starts from.
type benchHop struct {
	r  *sim.Router
	hs sim.HopState
}

// decideSet draws the fixed packet set: uniform random source and
// destination terminals on distinct routers, each at its source router.
func decideSet(m benchMachine) []benchHop {
	rng := sim.NewRNG(42, 0)
	set := make([]benchHop, 0, benchPackets)
	n := m.d.Nodes()
	for len(set) < benchPackets {
		src, dst := int(rng.Next()%uint64(n)), int(rng.Next()%uint64(n))
		if m.d.TerminalRouter(src) == m.d.TerminalRouter(dst) {
			continue
		}
		set = append(set, benchHop{
			r:  m.net.RouterAt(m.d.TerminalRouter(src)),
			hs: sim.HopState{ID: uint64(len(set)), Seed: rng.Next(), Src: src, Dst: dst, InterGroup: -1},
		})
	}
	return set
}

// nextHopSet walks every packet of the decide set to its destination
// and records each hop's starting state; even packets route minimally,
// odd ones through a Valiant intermediate group.
func nextHopSet(b *testing.B, m benchMachine) []benchHop {
	b.Helper()
	minimal, valiant := NewMIN(m.topo), NewVAL(m.topo)
	var set []benchHop
	for i, p := range decideSet(m) {
		hs := p.hs
		dec := sim.Routing(minimal)
		if i%2 == 1 {
			dec = valiant
		}
		if err := dec.Decide(m.net, p.r, &hs); err != nil {
			continue // unroutable under the fault plan
		}
		hs.Phase1 = hs.Minimal
		r := p.r
		for hop := 0; ; hop++ {
			if hop > 8 {
				b.Fatalf("packet %d: no arrival after %d hops", hs.ID, hop)
			}
			set = append(set, benchHop{r: r, hs: hs})
			if err := minimal.NextHop(m.net, r, &hs); err != nil {
				set = set[:len(set)-1]
				break
			}
			pt := m.d.Port(r.ID, hs.Port)
			if pt.Class == topology.ClassTerminal {
				break
			}
			r = m.net.RouterAt(pt.PeerRouter)
		}
	}
	return set
}

// BenchmarkDecide times one source decision per op.
func BenchmarkDecide(b *testing.B) {
	for _, m := range benchMachines(b) {
		set := decideSet(m)
		for _, mode := range []UGALMode{UGALLocalVCH, UGALGlobal} {
			u := NewUGAL(m.topo, mode)
			b.Run(fmt.Sprintf("%s/%s", m.name, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := &set[i%len(set)]
					hs := p.hs
					if err := u.Decide(m.net, p.r, &hs); err != nil && !errors.Is(err, sim.ErrUnroutable) {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNextHop times one hop request per op.
func BenchmarkNextHop(b *testing.B) {
	for _, m := range benchMachines(b) {
		set := nextHopSet(b, m)
		rt := NewMIN(m.topo)
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := &set[i%len(set)]
				hs := p.hs
				if err := rt.NextHop(m.net, p.r, &hs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
