package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/sim"
)

// machine1K is the paper's 1K-node evaluation network (p=h=4, a=8,
// 33 groups, 1056 terminals) with the simulation seed drawn from the
// benchmark seed.
func machine1K(seed uint64) core.SystemConfig {
	return core.SystemConfig{P: 4, A: 8, H: 4, Seed: sim.DeriveSeed(seed, 1)}
}

var (
	trafficUR = core.Workload{Traffic: "ur"}
	trafficWC = core.Workload{Traffic: "wc"}
)

// --- paper-1k -------------------------------------------------------

// paperRun is the measurement recipe of every paper-1k point: short
// phases, so that one pass over the ten points takes a few seconds and
// a run holds several passes.
var paperRun = sim.RunConfig{WarmupCycles: 100, MeasureCycles: 100, DrainCycles: 500}

// paperSetupReps is the number of untimed set-up-only passes.
const paperSetupReps = 6

const (
	// paperTailPct is paper-1k's tail percentile. A run makes whole
	// passes, so the percentile always falls on the same point of the
	// list (the third slowest).
	paperTailPct = 75
	// paperPassRate is the passes per second of the reference host.
	paperPassRate = 0.8
)

// paperPoints is the fixed list of paper-1k points: MIN, VAL, UGAL-L
// and UGAL-L_VCH under UR and WC below saturation, one WC point at
// saturation, and UGAL-L_VCH under UR with 10% of the global channels
// failed. MIN under WC is capped near 1/32 by the single global
// channel between consecutive groups, hence its low load.
func paperPoints(seed uint64) []netSpec {
	m := machine1K(seed)
	pts := []netSpec{
		{label: "MIN/UR@0.3", alg: core.AlgMIN, wl: trafficUR, load: 0.3},
		{label: "MIN/WC@0.02", alg: core.AlgMIN, wl: trafficWC, load: 0.02},
		{label: "VAL/UR@0.2", alg: core.AlgVAL, wl: trafficUR, load: 0.2},
		{label: "VAL/WC@0.2", alg: core.AlgVAL, wl: trafficWC, load: 0.2},
		{label: "UGAL-L/UR@0.3", alg: core.AlgUGALL, wl: trafficUR, load: 0.3},
		{label: "UGAL-L/WC@0.2", alg: core.AlgUGALL, wl: trafficWC, load: 0.2},
		{label: "UGAL-L_VCH/UR@0.3", alg: core.AlgUGALLVCH, wl: trafficUR, load: 0.3},
		{label: "UGAL-L_VCH/WC@0.2", alg: core.AlgUGALLVCH, wl: trafficWC, load: 0.2},
		{label: "UGAL-L_VCH/WC@0.5(sat)", alg: core.AlgUGALLVCH, wl: trafficWC, load: 0.5},
		{label: "UGAL-L_VCH/UR@0.3/10%globals", alg: core.AlgUGALLVCH, wl: trafficUR, load: 0.3,
			failGlobal: 0.1, failSeed: sim.DeriveSeed(seed, 2)},
	}
	for i := range pts {
		pts[i].cfg = m
	}
	return pts
}

// checkPoint judges one point's outcome against the digest its first
// run produced (want, set on first use).
func checkPoint(p netSpec, res sim.Result, err error, want *string) error {
	if err != nil {
		return fmt.Errorf("%s: %w", p.label, err)
	}
	if res.Dropped != 0 || res.Latency.Count() == 0 {
		return fmt.Errorf("%s: implausible result (dropped %d, measured %d)", p.label, res.Dropped, res.Latency.Count())
	}
	d := resultDigest(res)
	if *want == "" {
		*want = d
	}
	if d != *want {
		return fmt.Errorf("%s: result digest %s differs from the first run's %s", p.label, d, *want)
	}
	return nil
}

// runPoint runs one built point with sim.RunCtx.
func runPoint(b *built, load float64) (sim.Result, time.Duration, error) {
	rc := paperRun
	rc.Load = load
	t := time.Now()
	res, err := sim.RunCtx(context.Background(), b.net, rc)
	return res, time.Since(t), err
}

func runPaper1K(e *env) error {
	pts := paperPoints(e.seed)
	if e.trace {
		return e.tracePaper(pts)
	}
	digests := make([]string, len(pts))
	var setups, lat []float64
	// Set-up alone, repeated so that setup_s is a median of enough
	// samples; the timed passes below add one sample each. Garbage is
	// collected between units, outside the timings, so that every unit
	// starts from the same heap and peak_rss_mb does not depend on GC
	// timing.
	for r := 0; r < paperSetupReps; r++ {
		var setup time.Duration
		e.calibrate(1)
		for _, p := range pts {
			runtime.GC()
			b, err := build(p, false)
			if err != nil {
				return err
			}
			setup += b.setup()
		}
		setups = append(setups, setup.Seconds())
	}
	// Per pass: RunCtx seconds and summed point latencies. Every pass
	// simulates the same cycles (the digests check it).
	var cycles int64
	var simSecs, pointSecs []float64
	passes := e.units(paperPassRate, (minSamples(paperTailPct)+len(pts)-1)/len(pts))
	start := time.Now()
	for range passes {
		var setup, simTime, point time.Duration
		cycles = 0
		for i, p := range pts {
			runtime.GC()
			e.calibrate(1)
			b, err := build(p, false)
			if err != nil {
				return err
			}
			setup += b.setup()
			res, d, err := runPoint(b, p.load)
			l := time.Since(b.t0)
			lat = append(lat, millis(l))
			e.op(checkPoint(p, res, err, &digests[i]))
			cycles += res.Cycles
			simTime += d
			point += l
		}
		setups = append(setups, setup.Seconds())
		simSecs = append(simSecs, simTime.Seconds())
		pointSecs = append(pointSecs, point.Seconds())
	}
	wall := time.Since(start)
	e.note("timed_region_s %.3f", wall.Seconds())
	e.op(e.checkPin(strings.Join(digests, ",")))
	e.set("setup_s", median(setups), "s")
	e.set("cycles_per_s", float64(cycles)/median(simSecs), "cycles/s")
	e.set("jobs_per_s", float64(len(pts))/median(pointSecs), "jobs/s")
	if err := e.submitDone("point (NewSystem..RunCtx)", lat, paperTailPct); err != nil {
		return err
	}
	e.set("peak_rss_mb", peakRSSMB(), "MB")
	e.note("paper-1k: %d passes of %d points, %d cycles each", passes, len(pts), cycles)
	return nil
}

// tracePaper is paper-1k's traced run.
func (e *env) tracePaper(pts []netSpec) error {
	root := e.spans.begin(0, "", "paper-1k")
	items := make([]runItem, len(pts))
	for i, p := range pts {
		rc := paperRun
		rc.Load = p.load
		items[i] = runItem{spec: p, rc: rc}
	}
	res, err := e.traceRuns(root, items)
	if err == nil {
		digests := make([]string, len(res))
		for i, r := range res {
			digests[i] = resultDigest(r)
		}
		e.op(e.checkPin(strings.Join(digests, ",")))
		err = e.shardSnapshotProbe(root, pts[6])
	}
	e.spans.end(root)
	if err != nil {
		return err
	}
	return e.serveProbe()
}

// runItem is one network run to completion with sim.RunCtx.
type runItem struct {
	spec netSpec
	rc   sim.RunConfig
}

// untracedRuns runs each item on a network built with NewNetworkFor,
// two at a time.
func untracedRuns(items []runItem) ([]sim.Result, error) {
	out := make([]sim.Result, len(items))
	errs := make([]error, len(items))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b, err := build(items[i].spec, false)
				if err == nil {
					out[i], err = sim.RunCtx(context.Background(), b.net, items[i].rc)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", items[i].spec.label, err)
				}
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}

// traceRuns runs each item twice, untraced (the reference) and
// instrumented, requires the same result digest from both, and sets
// the per-layer metrics of the sim, routing, traffic and workload
// layers. It returns the reference results.
func (e *env) traceRuns(root int64, items []runItem) ([]sim.Result, error) {
	var topo, netNew, runMs, steps []float64
	var mem memDelta
	var refNs, tracedNs float64
	var layers layerTotals
	out := make([]sim.Result, len(items))
	for i, it := range items {
		job := fmt.Sprintf("run%d", i)
		for _, instrument := range []bool{false, true} {
			name := "reference"
			if instrument {
				name = "traced"
			}
			sid := e.spans.begin(root, job, name)
			b, err := build(it.spec, instrument)
			if err != nil {
				return nil, err
			}
			b.spans(e.spans, sid, job)
			if instrument {
				b.net.AttachMetrics(b.probes.events)
			}
			m0 := sampleMem()
			t := time.Now()
			res, err := sim.RunCtx(context.Background(), b.net, it.rc)
			d := time.Since(t)
			e.spans.record(sid, job, "sim.RunCtx", t, t.Add(d))
			e.spans.end(sid)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.spec.label, err)
			}
			if !instrument {
				mem.add(memSince(m0, res.Cycles))
				topo = append(topo, millis(b.topo()))
				netNew = append(netNew, millis(b.netNew()))
				runMs = append(runMs, millis(d))
				refNs += float64(d.Nanoseconds())
				out[i] = res
				continue
			}
			tracedNs += float64(d.Nanoseconds())
			layers.add(b.probes)
			steps = append(steps, b.probes.events.steps...)
			var mismatch error
			if got, ref := resultDigest(res), resultDigest(out[i]); got != ref {
				mismatch = fmt.Errorf("%s: traced result %s differs from untraced %s", it.spec.label, got, ref)
			}
			e.op(mismatch)
		}
	}
	e.set("topology.build_ms", median(topo), "ms")
	e.set("sim.network_new_ms", median(netNew), "ms")
	e.set("sim.run_ms", median(runMs), "ms")
	e.stepMetrics(steps)
	mem.report(e)
	layers.report(e, refNs)
	e.set("trace.overhead_frac", tracedNs/refNs-1, "ratio")
	return out, nil
}

// shardSnapshotProbe measures shard.speedup and the snapshot layer on
// one network of a RunCtx-driven workload from a warm state.
func (e *env) shardSnapshotProbe(root int64, p netSpec) error {
	id := e.spans.begin(root, "", "probe.shard_snapshot")
	defer e.spans.end(id)
	return e.traceSteps(id, p, stepPlan{warm: 300, mark: 300, cycles: 300, reps: 1, probeOnly: true})
}

// --- shard2-1k ------------------------------------------------------

const (
	shardBatch   = 300 // cycles one shard2-1k batch steps
	shardTailPct = 80  // shard2-1k's tail percentile
	shardRate    = 16  // batches per second of the reference host
)

func shard2Spec(seed uint64) netSpec {
	return netSpec{label: "UGAL-L_VCH/UR@0.1 shards=2", cfg: machine1K(seed),
		alg: core.AlgUGALLVCH, wl: trafficUR, load: 0.1, shards: 2}
}

func runShard2(e *env) error {
	s := shard2Spec(e.seed)
	if e.trace {
		root := e.spans.begin(0, "", "shard2-1k")
		// Replaying from the cycle-0 snapshot repeats the untraced
		// batch exactly, so its digest is the pinned one.
		err := e.traceSteps(root, s, stepPlan{mark: shardBatch, cycles: shardBatch, reps: 3, pin: true})
		e.spans.end(root)
		if err != nil {
			return err
		}
		return e.serveProbe()
	}
	var setups, lat, stepSecs []float64
	var want string
	batches := e.units(shardRate, minSamples(shardTailPct))
	start := time.Now()
	for i := range batches {
		runtime.GC()
		if i%calEvery(batches) == 0 {
			e.calibrate(1)
		}
		b, err := build(s, false)
		if err != nil {
			return err
		}
		setups = append(setups, b.setup().Seconds())
		seg, err := stepFor(b.net, shardBatch)
		lat = append(lat, millis(time.Since(b.t0)))
		stepSecs = append(stepSecs, seg.elapsed.Seconds())
		e.op(sameDigest(s.label, seg.digest, err, &want))
	}
	wall := time.Since(start)
	e.note("timed_region_s %.3f", wall.Seconds())
	// The serial engine must end the same batch in the same snapshot.
	serial := s
	serial.shards = 1
	runtime.GC()
	b, err := build(serial, false)
	if err != nil {
		return err
	}
	seg, err := stepFor(b.net, shardBatch)
	e.op(sameDigest(serial.label+" (serial engine)", seg.digest, err, &want))
	e.op(e.checkPin(want))
	e.set("setup_s", median(setups), "s")
	e.set("cycles_per_s", shardBatch/median(stepSecs), "cycles/s")
	e.set("jobs_per_s", 1e3/median(lat), "jobs/s")
	if err := e.submitDone("batch (build..snapshot)", lat, shardTailPct); err != nil {
		return err
	}
	e.set("peak_rss_mb", peakRSSMB(), "MB")
	e.note("shard2-1k: %d batches of %d cycles", len(lat), shardBatch)
	return nil
}

// sameDigest checks a snapshot digest against the first one seen.
func sameDigest(label, got string, err error, want *string) error {
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	if *want == "" {
		*want = got
	}
	if got != *want {
		return fmt.Errorf("%s: snapshot digest %s differs from %s", label, got, *want)
	}
	return nil
}

// --- scale-16k ------------------------------------------------------

const (
	scaleWarm       = 24 // untimed cycles before the timed region
	scaleCheckpoint = 8  // cycles between snapshots
	scaleSetups     = 5  // constructions timed for setup_s
	scaleTailPct    = 80 // scale-16k's tail percentile
	scaleRate       = 12 // intervals per second of the reference host
)

// scaleSpec is the 16,512-node dragonfly (p=8, a=16, h=8, g=129).
func scaleSpec(seed uint64) netSpec {
	return netSpec{label: "16K UGAL-L_VCH/UR@0.3 shards=2",
		cfg: core.SystemConfig{P: 8, A: 16, H: 8, Seed: sim.DeriveSeed(seed, 1)},
		alg: core.AlgUGALLVCH, wl: trafficUR, load: 0.3, shards: 2}
}

func runScale16K(e *env) error {
	s := scaleSpec(e.seed)
	if e.trace {
		root := e.spans.begin(0, "", "scale-16k")
		// The first scaleCheckpoint cycles from the warm snapshot end
		// where the untraced run takes its first, pinned, checkpoint.
		err := e.traceSteps(root, s, stepPlan{warm: scaleWarm, mark: scaleCheckpoint, cycles: 8 * scaleCheckpoint, reps: 1, pin: true})
		e.spans.end(root)
		if err != nil {
			return err
		}
		return e.serveProbe()
	}
	var setups []float64
	var b *built
	for i := 0; i < scaleSetups; i++ {
		b = nil
		runtime.GC()
		e.calibrate(2)
		var err error
		if b, err = build(s, false); err != nil {
			return err
		}
		setups = append(setups, b.setup().Seconds())
	}
	for i := 0; i < scaleWarm; i++ {
		if err := b.net.Step(); err != nil {
			return fmt.Errorf("%s: warm step: %w", s.label, err)
		}
	}
	// Timed region: checkpoint intervals of scaleCheckpoint Steps plus
	// one Snapshot, the way a durable job checkpoints.
	var lat []float64
	var last []byte
	var lastAt int64
	var first string
	intervals := e.units(scaleRate, minSamples(scaleTailPct))
	start := time.Now()
	for range intervals {
		t := time.Now()
		for i := 0; i < scaleCheckpoint; i++ {
			if err := b.net.Step(); err != nil {
				return fmt.Errorf("%s: step %d: %w", s.label, b.net.Now(), err)
			}
		}
		snap, err := b.net.Snapshot()
		if err != nil {
			return fmt.Errorf("%s: Snapshot: %w", s.label, err)
		}
		lat = append(lat, millis(time.Since(t)))
		if len(lat)%calEvery(intervals) == 0 {
			e.calibrate(1)
		}
		last, lastAt = snap, b.net.Now()
		if first == "" {
			first = digest(snap)
		}
	}
	elapsed := time.Since(start)
	e.note("timed_region_s %.3f", elapsed.Seconds())
	e.op(e.checkPin(first))
	e.op(e.checkResume(s, b, last, lastAt))
	e.set("setup_s", median(setups), "s")
	e.set("cycles_per_s", scaleCheckpoint*1e3/median(lat), "cycles/s")
	e.set("jobs_per_s", 1e3/median(lat), "jobs/s")
	if err := e.submitDone("checkpoint interval", lat, scaleTailPct); err != nil {
		return err
	}
	e.set("peak_rss_mb", peakRSSMB(), "MB")
	e.note("scale-16k: %d intervals of %d cycles + snapshot (%d bytes)", len(lat), scaleCheckpoint, len(last))
	return nil
}

// checkResume steps the uninterrupted network a few cycles past its
// last checkpoint, then restores that checkpoint into a fresh network,
// steps it to the same cycle and requires the same snapshot.
func (e *env) checkResume(s netSpec, b *built, last []byte, lastAt int64) error {
	const extra = 3
	seg, err := stepFor(b.net, extra)
	if err != nil {
		return fmt.Errorf("%s: %w", s.label, err)
	}
	b.net = nil
	runtime.GC()
	fresh, err := build(s, false)
	if err != nil {
		return err
	}
	if err := fresh.net.Restore(last); err != nil {
		return fmt.Errorf("%s: restore checkpoint at cycle %d: %w", s.label, lastAt, err)
	}
	got, err := stepFor(fresh.net, extra)
	if err != nil {
		return fmt.Errorf("%s: resumed: %w", s.label, err)
	}
	if got.digest != seg.digest {
		return fmt.Errorf("%s: resumed from cycle %d, ended in snapshot %s instead of %s", s.label, lastAt, got.digest, seg.digest)
	}
	return nil
}

// checkPin compares a run's deterministic digest with the one pinned
// for this workload and seed; seeds without a pin pass.
func (e *env) checkPin(got string) error {
	want, ok := pins[e.workload][e.seed]
	e.note("digest %s seed %d: %s", e.workload, e.seed, digest([]byte(got)))
	if !ok {
		return nil
	}
	if digest([]byte(got)) != want {
		return errors.New("digest differs from the pinned value " + want)
	}
	return nil
}
