package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Host-speed normalisation.
//
// The benchmark runs on a few cores of a shared host whose speed drifts
// by a factor of two or more over minutes, as other tenants load the
// shared cores, caches and memory. A slow stretch lasts longer than a run, so every
// unit of a run is slow together and no statistic taken within the run
// removes it. Each run therefore also times a fixed reference kernel,
// many times and spread over the run, at moments when no simulation
// step, network construction or request is in flight, and reports its
// end-to-end timings rescaled to the reference host's speed: times are
// multiplied, and rates divided, by speed = calRefMs / (the kernel's
// median time in the run). The kernel is the same on every commit and
// the program under test never runs while it is timed, so a change to
// the program moves the rescaled figures by exactly the share it moves
// the raw ones. The raw figures and the speed are printed as notes
// ahead of the result line.

// calRefMs is the reference kernel's median time on the reference host
// (2 vCPUs of an Intel Xeon, Go 1.24, at a quiet moment).
const calRefMs = 13.4

// calTable is the reference kernel's lookup table: 4 MiB, larger than
// a core's private caches, as the simulator's working set is.
var calTable = func() []uint32 {
	t := make([]uint32, 1<<20)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// calSink keeps the kernel's result alive.
var calSink uint32

// kernel times one run of the reference kernel: integer arithmetic,
// data-dependent branches and random reads over calTable, the mix of
// the simulator's hot loop.
func kernel() time.Duration {
	// Bring the table into the caches first, so that the timing does
	// not depend on what the workload left there.
	var s uint32
	for i := 0; i < len(calTable); i += 16 {
		s += calTable[i]
	}
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1_200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := calTable[x&(1<<20-1)]
		if v&1 == 0 {
			s += v >> 3
		} else {
			s ^= v
		}
	}
	calSink += s
	return time.Since(t)
}

// calibrate times the reference kernel n times. Call it only while the
// workload has nothing in flight.
func (e *env) calibrate(n int) {
	for i := 0; i < n; i++ {
		e.cal = append(e.cal, millis(kernel()))
	}
}

// minCal is the fewest kernel timings a run needs for a steady median.
const minCal = 40

// calEvery is how many of a workload's n units pass between kernel
// timings: as few as still give minCal timings.
func calEvery(n int) int { return max(1, n/minCal) }

// normalise rescales the end-to-end timings to the reference host's
// speed (see above) and notes the raw figures. Peak RSS is not a
// timing and stays as measured.
func (e *env) normalise() error {
	if len(e.cal) < minCal {
		return fmt.Errorf("%d reference-kernel timings, want at least %d", len(e.cal), minCal)
	}
	speed := calRefMs / median(e.cal)
	e.note("host speed %.4f (reference kernel p50 %.4f ms over %d timings, reference host %.1f ms)", speed, median(e.cal), len(e.cal), calRefMs)
	names := make([]string, 0, len(e.res.Metrics))
	for name := range e.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := e.res.Metrics[name]
		raw := m.Value
		switch {
		case m.Unit == "s" || m.Unit == "ms":
			m.Value *= speed
		case strings.HasSuffix(m.Unit, "/s"):
			m.Value /= speed
		default:
			continue
		}
		e.res.Metrics[name] = m
		e.note("raw %s %.6g %s", name, raw, m.Unit)
	}
	return nil
}
