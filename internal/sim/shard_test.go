package sim_test

import (
	"context"
	"testing"

	"dragonfly/internal/sim"
	"dragonfly/internal/traffic"
)

// TestSetShardsValidation covers the shard-count API contract: negative
// counts are rejected, oversized counts clamp to the group count, and
// re-partitioning a network that has already stepped is refused (the
// partition must be fixed before any state exists to split).
func TestSetShardsValidation(t *testing.T) {
	d := testDragonfly(t) // 9 groups, 36 routers
	net := newNet(t, d, testConfig(), buildAlg(t, d, "MIN"), traffic.NewUniformRandom(d.Nodes()))

	if err := net.SetShards(-1); err == nil {
		t.Error("SetShards(-1) accepted")
	}
	if got := net.Shards(); got != 1 {
		t.Fatalf("fresh network has %d shards, want 1", got)
	}
	if err := net.SetShards(1000); err != nil {
		t.Fatalf("SetShards(1000): %v", err)
	}
	if got := net.Shards(); got != d.G {
		t.Errorf("SetShards(1000) gave %d shards, want clamp to %d groups", got, d.G)
	}
	if err := net.SetShards(0); err != nil {
		t.Fatalf("SetShards(0): %v", err)
	}
	if got := net.Shards(); got != 1 {
		t.Errorf("SetShards(0) gave %d shards, want the serial engine", got)
	}

	net.SetLoad(0.2)
	if err := net.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if err := net.SetShards(4); err == nil {
		t.Error("SetShards accepted after the simulation started")
	}
}

// TestShardedFlowInvariants steps a sharded network and checks the
// per-(link, VC) credit conservation law between cycles: packets
// sitting in the inter-shard mailboxes are in transit and must be
// counted against the credits their departure consumed.
func TestShardedFlowInvariants(t *testing.T) {
	d := testDragonfly(t)
	net := newNet(t, d, testConfig(), buildAlg(t, d, "UGAL-L_VCH"), traffic.NewUniformRandom(d.Nodes()))
	if err := net.SetShards(3); err != nil {
		t.Fatalf("SetShards: %v", err)
	}
	net.SetLoad(0.3)
	for i := 0; i < 300; i++ {
		if err := net.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		if i%50 == 49 {
			if err := net.CheckFlowInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", i+1, err)
			}
		}
	}
	if net.InFlight() == 0 {
		t.Error("nothing in flight at load 0.3 after 300 cycles")
	}
}

// TestShardedRunMatchesSerial is the sim-level determinism check: the
// same run through sim.Run on fresh networks with 1 and 3 shards must
// produce identical measurements field by field (the core-level golden
// tests pin the same property through System.Run).
func TestShardedRunMatchesSerial(t *testing.T) {
	run := func(shards int) sim.Result {
		d := testDragonfly(t)
		net := newNet(t, d, testConfig(), buildAlg(t, d, "UGAL-L_VCH"), traffic.NewUniformRandom(d.Nodes()))
		if err := net.SetShards(shards); err != nil {
			t.Fatalf("SetShards(%d): %v", shards, err)
		}
		res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{
			Load: 0.25, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 20000,
		})
		if err != nil {
			t.Fatalf("shards=%d: Run: %v", shards, err)
		}
		return res
	}
	serial, sharded := run(1), run(3)
	if serial.Latency.Count() != sharded.Latency.Count() ||
		serial.Latency.Mean() != sharded.Latency.Mean() ||
		serial.Accepted != sharded.Accepted ||
		serial.MinimalFraction != sharded.MinimalFraction ||
		serial.Cycles != sharded.Cycles {
		t.Errorf("serial and 3-shard runs diverge:\n serial  count=%d mean=%v acc=%v minfrac=%v cycles=%d\n sharded count=%d mean=%v acc=%v minfrac=%v cycles=%d",
			serial.Latency.Count(), serial.Latency.Mean(), serial.Accepted, serial.MinimalFraction, serial.Cycles,
			sharded.Latency.Count(), sharded.Latency.Mean(), sharded.Accepted, sharded.MinimalFraction, sharded.Cycles)
	}
}
