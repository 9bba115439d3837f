package sim_test

// Contract tests of the sharded engine's persistent worker crew: every
// phase function runs exactly once per phase whatever the scheduling,
// the block path (more shards than Ps) is bit-identical to the serial
// engine, and no worker outlives its crew or its network.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dragonfly/internal/sim"
	"dragonfly/internal/traffic"
)

// xorshift advances a 64-bit xorshift state.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// jitter perturbs the schedule from a random draw r: mostly nothing,
// sometimes a yield, a busy wait around the workers' spin budget (so
// the next phase lands on a spinning, a parking or a parked worker), or
// a short sleep.
func jitter(r uint64) {
	switch {
	case r%64 == 0:
		runtime.Gosched()
	case r%16 == 1:
		end := time.Now().Add(time.Duration(r>>32%150) * time.Microsecond)
		for time.Now().Before(end) {
		}
	case r%4096 == 2:
		time.Sleep(time.Duration(r>>32%200) * time.Microsecond)
	}
}

// crewStress runs phases phases of k counting functions, with jitter
// inside the functions and between phases, and fails if any function
// ran other than exactly once per phase or the crew stops making
// progress.
func crewStress(t *testing.T, k, phases int) {
	t.Helper()
	c := sim.NewCrew(k)
	defer c.Stop()
	counts := make([]int, k)
	fns := make([]func(), k)
	for i := range fns {
		r := uint64(i+1) * 0x9E3779B97F4A7C15
		fns[i] = func() {
			counts[i]++
			r = xorshift(r)
			jitter(r)
		}
	}
	done := make(chan error, 1)
	go func() {
		r := uint64(k) * 0xD1B54A32D192ED03
		for p := 1; p <= phases; p++ {
			c.Run(fns)
			for i, n := range counts {
				if n != p {
					done <- fmt.Errorf("k=%d: after phase %d function %d ran %d times", k, p, i, n)
					return
				}
			}
			r = xorshift(r)
			jitter(r)
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Minute):
		t.Fatalf("k=%d: crew made no progress for 5 minutes (hung phase)", k)
	}
}

// TestCrewExactlyOnce is the handoff contract: over 10^5 phases per
// GOMAXPROCS setting, each phase function runs exactly once per phase
// and no phase hangs. At GOMAXPROCS=1 every crew takes the block path; at 2,
// k=2 spins and k=3 and 4 block. The oversubscribed setting runs the
// spin path with busy goroutines on half the Ps, so the OS preempts
// crew threads at arbitrary instructions — between a worker's done
// count and its handshake with a waiting coordinator, for one — as a
// loaded host does.
func TestCrewExactlyOnce(t *testing.T) {
	cpus := runtime.NumCPU()
	for _, tc := range []struct {
		name                   string
		procs, burners, phases int
	}{
		{"GOMAXPROCS=1", 1, 0, 34000},
		{"GOMAXPROCS=2", 2, 0, 34000},
		// OS time slices make each phase slow here; fewer suffice.
		{"oversubscribed", 2 * cpus, cpus, 10000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			var stop atomic.Bool
			var burners sync.WaitGroup
			burners.Add(tc.burners)
			for i := 0; i < tc.burners; i++ {
				go func() {
					defer burners.Done()
					for !stop.Load() {
					}
				}()
			}
			defer burners.Wait()
			defer stop.Store(true)
			for _, k := range []int{2, 3, 4} {
				crewStress(t, k, tc.phases)
			}
		})
	}
}

// TestCrewBlockModeMatchesSerial pins the block path, where every
// worker parks between phases and the coordinator waits on a channel,
// to the serial engine: with one P, networks on 2 and 4 shards end in
// byte-identical snapshots to the serial network's.
func TestCrewBlockModeMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	snapAfter := func(shards int) []byte {
		d := testDragonfly(t)
		net := newNet(t, d, testConfig(), buildAlg(t, d, "UGAL-L_VCH"), traffic.NewUniformRandom(d.Nodes()))
		if err := net.SetShards(shards); err != nil {
			t.Fatalf("SetShards(%d): %v", shards, err)
		}
		net.SetLoad(0.3)
		for i := 0; i < 400; i++ {
			if err := net.Step(); err != nil {
				t.Fatalf("shards=%d: Step %d: %v", shards, i, err)
			}
		}
		snap, err := net.Snapshot()
		if err != nil {
			t.Fatalf("shards=%d: Snapshot: %v", shards, err)
		}
		return snap
	}
	serial := snapAfter(1)
	for _, shards := range []int{2, 4} {
		if !bytes.Equal(snapAfter(shards), serial) {
			t.Errorf("shards=%d at GOMAXPROCS=1: state diverged from the serial engine", shards)
		}
	}
}

// settleGoroutines polls until the goroutine count returns to within
// slack of base or the deadline passes, returning the final count.
// Finished goroutines take a beat to be reaped, so a raw immediate
// comparison would flake.
func settleGoroutines(base, slack int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base+slack && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCrewStopNoLeak: stopping a crew ends all of its workers, whether
// they were parked (block path) or still spinning after the last phase.
func TestCrewStopNoLeak(t *testing.T) {
	for _, k := range []int{2, 4} {
		base := runtime.NumGoroutine()
		c := sim.NewCrew(k)
		fns := make([]func(), k)
		for i := range fns {
			fns[i] = func() {}
		}
		for p := 0; p < 100; p++ {
			c.Run(fns)
		}
		c.Stop()
		c.Stop() // idempotent
		if got := settleGoroutines(base, 0); got > base {
			t.Errorf("k=%d: %d goroutines before the crew, %d after Stop (leak)", k, base, got)
		}
	}
}

// TestCrewDroppedNetworkNoLeak: a stepped sharded network that becomes
// unreachable takes its workers with it once the collector runs, and
// re-partitioning stops the crew it replaces.
func TestCrewDroppedNetworkNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		d := testDragonfly(t)
		net := newNet(t, d, testConfig(), buildAlg(t, d, "UGAL-L_VCH"), traffic.NewUniformRandom(d.Nodes()))
		for _, k := range []int{4, 3} {
			if err := net.SetShards(k); err != nil {
				t.Fatalf("SetShards(%d): %v", k, err)
			}
		}
		if got := settleGoroutines(base+2, 0); got > base+2 {
			t.Errorf("after re-partitioning 4 -> 3 shards: %d goroutines, want at most %d (the replaced crew leaked)", got, base+2)
		}
		net.SetLoad(0.3)
		for i := 0; i < 100; i++ {
			if err := net.Step(); err != nil {
				t.Fatalf("Step %d: %v", i, err)
			}
		}
	}()
	runtime.GC()
	if got := settleGoroutines(base, 0); got > base {
		t.Errorf("%d goroutines before the network, %d after dropping it (leak)", base, got)
	}
}
