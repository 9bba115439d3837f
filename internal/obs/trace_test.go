package obs_test

import (
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/metrics"
	"dragonfly/internal/obs"
)

func TestTracerSamplingDeterministic(t *testing.T) {
	a := obs.NewTracer(8, 42, 16)
	b := obs.NewTracer(8, 42, 16)
	other := obs.NewTracer(8, 43, 16)
	sampled, diverged := 0, false
	for p := uint64(0); p < 4096; p++ {
		if a.Sampled(p) != b.Sampled(p) {
			t.Fatalf("packet %d: same (every, seed) disagree", p)
		}
		if a.Sampled(p) != other.Sampled(p) {
			diverged = true
		}
		if a.Sampled(p) {
			sampled++
		}
	}
	// The mixer spreads ids uniformly: ~1/8 of 4096 = 512, allow wide
	// slack — the property under test is determinism, not exact rate.
	if sampled < 256 || sampled > 1024 {
		t.Errorf("sampled %d of 4096 at 1/8, want roughly 512", sampled)
	}
	if !diverged {
		t.Errorf("seed change did not change the sample")
	}

	all := obs.NewTracer(1, 0, 16)
	for p := uint64(0); p < 64; p++ {
		if !all.Sampled(p) {
			t.Fatalf("every=1 skipped packet %d", p)
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := obs.NewTracer(1, 0, 4)
	for i := 0; i < 6; i++ {
		tr.PacketHop(metrics.Hop{Packet: 7, Cycle: int64(i)})
	}
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("ring of 4 retained %d records", len(recs))
	}
	for i, h := range recs {
		if want := int64(i + 2); h.Cycle != want {
			t.Errorf("record %d at cycle %d, want %d (oldest first after wrap)", i, h.Cycle, want)
		}
	}
}

// TestTraceReplay is the end-to-end acceptance check of the tracer: it
// runs a real simulation with every packet traced, then replays each
// packet's hop records against the topology's port map — hop i leaves
// router R through port P, so hop i+1 must start at the peer router of
// (R, P), and every record's link id must agree with the network's own
// port-to-link table.
func TestTraceReplay(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sys.NewNetworkFor(core.AlgUGALLVCH, core.Workload{Traffic: "ur"})
	if err != nil {
		t.Fatal(err)
	}
	net.SetLoad(0.1)
	// Big enough that the ring never wraps: a wrapped ring drops a
	// packet's oldest hops and the replay below would see a false gap.
	tr := obs.NewTracer(1, 0, 1<<16)
	net.AttachMetrics(tr)
	for cyc := 0; cyc < 150; cyc++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}

	ids := tr.PacketIDs()
	if len(ids) == 0 {
		t.Fatal("no packets traced")
	}
	if n := len(tr.Records()); n == 1<<16 {
		t.Fatal("trace ring filled up: the replay needs complete histories")
	}
	topo := sys.Topo
	replayed := 0
	for _, pid := range ids {
		hops := tr.Trace(pid)
		for i, h := range hops {
			if h.Link != net.LinkID(h.Router, h.Port) {
				t.Fatalf("packet %d hop %d: link %d, want %d for router %d port %d",
					pid, i, h.Link, net.LinkID(h.Router, h.Port), h.Router, h.Port)
			}
			if i == 0 {
				continue
			}
			prev := hops[i-1]
			pt := topo.Port(prev.Router, prev.Port)
			if pt.PeerRouter != h.Router {
				t.Fatalf("packet %d hop %d: router %d, but hop %d left router %d port %d toward router %d",
					pid, i, h.Router, i-1, prev.Router, prev.Port, pt.PeerRouter)
			}
			if h.Cycle <= prev.Cycle {
				t.Fatalf("packet %d hop %d at cycle %d, not after hop %d at cycle %d",
					pid, i, h.Cycle, i-1, prev.Cycle)
			}
		}
		if len(hops) > 1 {
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("no multi-hop packet to replay")
	}
}

// TestTracerSamplesSubset checks the sampled run traces exactly the
// packets the sampler admits: a rerun with every=4 retains a strict,
// Sampled-consistent subset of the ids an every=1 run saw.
func TestTracerSamplesSubset(t *testing.T) {
	run := func(every int) *obs.Tracer {
		sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
		if err != nil {
			t.Fatal(err)
		}
		net, err := sys.NewNetworkFor(core.AlgUGALLVCH, core.Workload{Traffic: "ur"})
		if err != nil {
			t.Fatal(err)
		}
		net.SetLoad(0.1)
		tr := obs.NewTracer(every, 9, 1<<16)
		net.AttachMetrics(tr)
		for cyc := 0; cyc < 100; cyc++ {
			if err := net.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	all, sampled := run(1), run(4)
	seen := make(map[uint64]bool)
	for _, id := range all.PacketIDs() {
		seen[id] = true
	}
	ids := sampled.PacketIDs()
	if len(ids) == 0 || len(ids) >= len(all.PacketIDs()) {
		t.Fatalf("every=4 traced %d of %d packets, want a strict non-empty subset",
			len(ids), len(all.PacketIDs()))
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("sampled packet %d never appeared in the full trace", id)
		}
		if !sampled.Sampled(id) {
			t.Errorf("packet %d retained but not admitted by Sampled", id)
		}
	}
}
