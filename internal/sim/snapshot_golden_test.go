package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dragonfly/internal/fault"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
	"dragonfly/internal/workload"
)

// TestSnapshotBytesGolden pins the dfly-snap/1 encoding byte for byte:
// each case drives a network to a fixed point and compares the length
// and SHA-256 of its snapshot with the values the format was frozen at.
// Between them the cases cover every section: packets in source, wait
// and output queues and on wires, full credit lines (the 1K machine at
// saturation), source-state words (ON/OFF), the run section with its
// histograms (RunCtx checkpoints in warm-up and in measurement), and
// the timeline fields (a dead router mid-epoch). A digest that
// moves means the format changed, and with it every stored checkpoint.
func TestSnapshotBytesGolden(t *testing.T) {
	steps := func(t *testing.T, net *sim.Network, load float64, cycles int) []byte {
		t.Helper()
		net.SetLoad(load)
		for i := 0; i < cycles; i++ {
			if err := net.Step(); err != nil {
				t.Fatalf("Step %d: %v", i, err)
			}
		}
		snap, err := net.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return snap
	}
	checkpoint := func(every int64) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			return captureFirstCheckpoint(t, 3, sim.RunConfig{
				Load: 0.25, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 20000,
				Histogram: true,
			}, every)
		}
	}
	oneK := func(shards int) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			d, err := topology.NewDragonfly(4, 8, 4, 0)
			if err != nil {
				t.Fatalf("NewDragonfly: %v", err)
			}
			net := newNet(t, d, testConfig(), routing.NewUGAL(d, routing.UGALLocalVCH), traffic.NewWorstCase(d))
			if err := net.SetShards(shards); err != nil {
				t.Fatalf("SetShards: %v", err)
			}
			return steps(t, net, 0.5, 300)
		}
	}
	for _, tc := range []struct {
		name string
		size int
		sha  string
		snap func(*testing.T) []byte
	}{
		{"fig5 UR 0.3 serial", 33487,
			"3d86f0d44ac472c06883bd7e47fdfccdf9375da7aa00d13f80ea062e75320be5",
			func(t *testing.T) []byte { return steps(t, snapNet(t, 1), 0.3, 250) }},
		{"fig5 UR 0.3 3 shards", 33487,
			"3d86f0d44ac472c06883bd7e47fdfccdf9375da7aa00d13f80ea062e75320be5",
			func(t *testing.T) []byte { return steps(t, snapNet(t, 3), 0.3, 250) }},
		{"1K WC 0.5 serial", 1268573,
			"c370a9dd4082ac1a116982cbeb82578c07b5468f4b595554074dbebfcef6d0a3", oneK(1)},
		{"1K WC 0.5 2 shards", 1268573,
			"c370a9dd4082ac1a116982cbeb82578c07b5468f4b595554074dbebfcef6d0a3", oneK(2)},
		{"fig5 ON/OFF 0.4 2 shards", 38392,
			"362ddb739268f705f46a74f88ed2cb6b5ae203d3aa9396da6d3ff80ade84be60",
			func(t *testing.T) []byte {
				net := snapNet(t, 2)
				src, err := workload.NewOnOff(72, 20, 40, true)
				if err != nil {
					t.Fatalf("NewOnOff: %v", err)
				}
				if err := net.SetSource(src); err != nil {
					t.Fatalf("SetSource: %v", err)
				}
				return steps(t, net, 0.4, 200)
			}},
		{"checkpoint in warm-up", 31904,
			"6456f2cadf1baf86a2ee4c3827ff82bd4d1e616877482dd22a3d2e349337face", checkpoint(300)},
		{"checkpoint in measurement", 34005,
			"79aab944562cb2fab30cf5d5b01756ca911107fde6ec34a77987faaa8db4ec2d", checkpoint(700)},
		{"timeline dead router", 33604,
			"255b88c50fec244a692ec476d3f8d30ae12cf7b382d1908131716d0fd915bfe9", timelineSnapshot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := tc.snap(t)
			sum := sha256.Sum256(snap)
			got := hex.EncodeToString(sum[:])
			if len(snap) != tc.size || got != tc.sha {
				t.Errorf("snapshot is %d bytes, sha256 %s; want %d bytes, sha256 %s", len(snap), got, tc.size, tc.sha)
			}
		})
	}
}

// timelineSnapshot snapshots the Figure 5 machine in the second epoch
// of a fault timeline (router 3 dead from cycle 100 to 400), so the
// encoding carries a non-zero epoch index and a dead-router flag.
func timelineSnapshot(t *testing.T) []byte {
	d := testDragonfly(t)
	sched, err := fault.NewTimeline(1).FailRouterAt(100, 3).RecoverAllAt(400).Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sw := topology.NewSwitched(d)
	sw.SetEpoch(sched.Epochs[0].View)
	net, err := sim.New(sw, testConfig(), routing.NewUGAL(sw, routing.UGALLocalVCH), traffic.NewUniformRandom(d.Nodes()))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	epochs := make([]sim.Epoch, len(sched.Epochs))
	for i, e := range sched.Epochs {
		epochs[i] = sim.Epoch{Start: e.Start, View: e.View}
	}
	if err := net.SetTimeline(epochs); err != nil {
		t.Fatalf("SetTimeline: %v", err)
	}
	if err := net.SetShards(2); err != nil {
		t.Fatalf("SetShards: %v", err)
	}
	net.SetLoad(0.3)
	for i := 0; i < 250; i++ {
		if err := net.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	if net.ActiveEpoch() != 1 {
		t.Fatalf("snapshot taken in epoch %d, want 1", net.ActiveEpoch())
	}
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return snap
}
