package sim_test

import (
	"fmt"
	"testing"

	"dragonfly/internal/routing"
	"dragonfly/internal/traffic"
)

// TestSteadyStateZeroAllocDelayedCredits extends the zero-alloc gate of
// the root package to the credit lines, which start at one cache line
// and grow on demand. UGAL-L_CR under worst-case traffic below
// saturation delays credits at the hot global channels, so warm-up must
// grow at least one link credit line and one send-timestamp FIFO past
// their starting 8 entries; after it, a Step allocates nothing, serial
// or on 2 shards.
func TestSteadyStateZeroAllocDelayedCredits(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := testDragonfly(t)
			cfg := testConfig()
			cfg.DelayCredits = true
			net := newNet(t, d, cfg, routing.NewUGALCR(d), traffic.NewWorstCase(d))
			if err := net.SetShards(shards); err != nil {
				t.Fatal(err)
			}
			net.SetLoad(0.4)
			for cyc := 0; cyc < 3000; cyc++ {
				if err := net.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if link, ctq := net.CreditRingCaps(); link <= 8 || ctq <= 8 {
				t.Fatalf("warm-up grew no ring past 8: largest credit line %d, largest send-timestamp FIFO %d", link, ctq)
			}
			var stepErr error
			allocs := testing.AllocsPerRun(2000, func() {
				if err := net.Step(); err != nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if allocs != 0 {
				t.Errorf("steady-state Step allocated %.4f objects/cycle with delayed credits, want 0", allocs)
			}
		})
	}
}
