package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// netSpec is one simulated network: machine, fault plan, routing,
// workload, offered load and shard count.
type netSpec struct {
	label      string
	cfg        core.SystemConfig
	failGlobal float64 // fraction of global channels failed by a fault.Plan
	failSeed   uint64
	alg        core.Algorithm
	wl         core.Workload
	load       float64
	shards     int
}

// built is a constructed network and the instants of its construction.
type built struct {
	net        *sim.Network
	t0, t1, t2 time.Time // start, after NewSystem and the fault plan, after the network
	probes     *probes   // nil unless built instrumented
}

// topo is the core.NewSystem time (fault plan included).
func (b *built) topo() time.Duration { return b.t1.Sub(b.t0) }

// netNew is the NewNetworkFor (or probed sim.New) plus SetShards time.
func (b *built) netNew() time.Duration { return b.t2.Sub(b.t1) }

// setup is everything before the first simulated cycle.
func (b *built) setup() time.Duration { return b.t2.Sub(b.t0) }

// spans records the construction as two spans under parent.
func (b *built) spans(t *tracer, parent int64, job string) {
	t.record(parent, job, "core.NewSystem", b.t0, b.t1)
	t.record(parent, job, "sim.NewNetwork", b.t1, b.t2)
}

// build constructs s. An instrumented network is built with sim.New
// around counting wrappers of the routing, traffic and source that
// NewNetworkFor would install; the wrappers forward every call, so the
// simulation is unchanged (the traced runs check this by digest).
func build(s netSpec, instrument bool) (*built, error) {
	b := &built{t0: time.Now()}
	sys, err := core.NewSystem(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: NewSystem: %w", s.label, err)
	}
	if s.failGlobal > 0 {
		plan := fault.NewPlan(s.failSeed)
		plan.FailFraction(sys.Topo, topology.ClassGlobal, s.failGlobal)
		sys = sys.WithFaults(plan)
	}
	b.t1 = time.Now()
	if instrument {
		b.net, b.probes, err = buildProbed(sys, s)
	} else {
		b.net, err = sys.NewNetworkFor(s.alg, s.wl)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: build network: %w", s.label, err)
	}
	if s.shards > 1 {
		if err := b.net.SetShards(s.shards); err != nil {
			return nil, fmt.Errorf("%s: SetShards: %w", s.label, err)
		}
	}
	b.net.SetLoad(s.load)
	b.t2 = time.Now()
	return b, nil
}

func buildProbed(sys *core.System, s netSpec) (*sim.Network, *probes, error) {
	rt, err := sys.Routing(s.alg)
	if err != nil {
		return nil, nil, err
	}
	tr, err := sys.TrafficFor(s.wl)
	if err != nil {
		return nil, nil, err
	}
	src, err := sys.SourceFor(s.wl)
	if err != nil {
		return nil, nil, err
	}
	var topo sim.Topology = sys.Topo
	if deg := sys.Degraded(); deg != nil {
		topo = deg
	}
	routers, terms := sys.Topo.Routers(), sys.Topo.Nodes()
	p := &probes{
		routing: &countedRouting{inner: rt, decide: newStats(routers), nexthop: newStats(routers)},
		traffic: &countedTraffic{inner: tr, dest: newStats(terms)},
		events:  &events{},
	}
	net, err := sim.New(topo, sys.SimConfig(s.alg), p.routing, p.traffic)
	if err != nil {
		return nil, nil, err
	}
	if src == nil {
		src = net.Source()
	}
	p.source = &countedSource{inner: src, arrive: newStats(terms)}
	if err := net.SetSource(p.source); err != nil {
		return nil, nil, err
	}
	return net, p, nil
}

// digest is a short content hash.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// resultDigest hashes a sim.Result through its versioned JSON form.
func resultDigest(res sim.Result) string {
	b, err := json.Marshal(obs.MakeResult(res))
	if err != nil {
		panic(err) // a struct of numbers always encodes
	}
	return digest(b)
}

// snapDigest snapshots net and hashes the snapshot.
func snapDigest(net *sim.Network) (string, error) {
	snap, err := net.Snapshot()
	if err != nil {
		return "", err
	}
	return digest(snap), nil
}

// segment is one stretch of Steps on one network.
type segment struct {
	steps   []float64 // per-Step host time, microseconds
	elapsed time.Duration
	mem     memDelta
	digest  string // snapshot digest after the last Step
}

// stepFor steps net `cycles` times, timing each Step, and snapshots
// the result.
func stepFor(net *sim.Network, cycles int) (segment, error) {
	seg := segment{steps: make([]float64, 0, cycles)}
	m0 := sampleMem()
	start := time.Now()
	for i := 0; i < cycles; i++ {
		t := time.Now()
		if err := net.Step(); err != nil {
			return seg, fmt.Errorf("step %d: %w", net.Now(), err)
		}
		seg.steps = append(seg.steps, float64(time.Since(t).Nanoseconds())/1e3)
	}
	seg.elapsed = time.Since(start)
	seg.mem = memSince(m0, int64(cycles))
	d, err := snapDigest(net)
	seg.digest = d
	return seg, err
}

// replayed is one replay of a snapshot on a fresh network.
type replayed struct {
	*built
	restore time.Duration
	seg     segment
	mark    string // snapshot digest after the first `mark` cycles
}

// replay builds s fresh (instrumented or not), restores snap into it
// and steps `cycles` more, also taking the snapshot digest after the
// first `mark` cycles, and records its spans under parent.
func (e *env) replay(parent int64, job string, s netSpec, snap []byte, mark, cycles int, instrument bool) (replayed, error) {
	b, err := build(s, instrument)
	if err != nil {
		return replayed{}, err
	}
	b.spans(e.spans, parent, job)
	r := replayed{built: b}
	t := time.Now()
	if err := b.net.Restore(snap); err != nil {
		return r, fmt.Errorf("%s: Restore: %w", s.label, err)
	}
	r.restore = time.Since(t)
	e.spans.record(parent, job, "sim.Restore", t, t.Add(r.restore))
	if instrument {
		b.net.AttachMetrics(b.probes.events)
	}
	sid := e.spans.begin(parent, job, "sim.Step")
	r.seg, err = stepFor(b.net, mark)
	r.mark = r.seg.digest
	if err == nil && cycles > mark {
		var rest segment
		rest, err = stepFor(b.net, cycles-mark)
		r.seg.steps = append(r.seg.steps, rest.steps...)
		r.seg.elapsed += rest.elapsed
		r.seg.mem.add(rest.mem)
		r.seg.digest = rest.digest
	}
	e.spans.end(sid)
	if err != nil {
		return r, fmt.Errorf("%s: %w", s.label, err)
	}
	return r, nil
}

// stepPlan is what traceSteps replays.
type stepPlan struct {
	warm   int  // cycles stepped before the shared snapshot
	mark   int  // cycles after which a replay's digest is taken
	cycles int  // cycles each replay steps
	reps   int  // replays per network kind
	pin    bool // the digest after mark cycles must match the pin
	// probeOnly sets only shard.speedup and the snapshot metrics, for
	// workloads whose other layers are measured elsewhere.
	probeOnly bool
}

// traceSteps is the traced run of a Step-driven workload. It warms a
// network and snapshots it, then replays the same cycles from that
// snapshot, each time on three fresh networks: untraced at the
// workload's shard count (the reference), instrumented at the same
// count, and untraced at the other count (1 or 2 shards). Both must
// end in the reference's snapshot: the probes change nothing, and
// serial ≡ sharded. With plan.pin, the digests of the reference and
// instrumented replays after plan.mark cycles must match the
// workload's pin, tying the traced run to the untraced one.
func (e *env) traceSteps(root int64, s netSpec, plan stepPlan) error {
	other := s
	other.shards = 2
	if s.shards > 1 {
		other.shards = 1
	}
	var topo, netNew, enc, restore, runMs, steps []float64
	var mem memDelta
	var refNs, tracedNs, otherNs float64
	var layers layerTotals

	id := e.spans.begin(root, "", "warm")
	w, err := build(s, false)
	if err != nil {
		return err
	}
	w.spans(e.spans, id, "")
	topo = append(topo, millis(w.topo()))
	netNew = append(netNew, millis(w.netNew()))
	for i := 0; i < plan.warm; i++ {
		if err := w.net.Step(); err != nil {
			return fmt.Errorf("%s: warm step: %w", s.label, err)
		}
	}
	var snap []byte
	for i := 0; i < 5; i++ {
		t := time.Now()
		if snap, err = w.net.Snapshot(); err != nil {
			return fmt.Errorf("%s: Snapshot: %w", s.label, err)
		}
		t1 := time.Now()
		enc = append(enc, millis(t1.Sub(t)))
		e.spans.record(id, "", "sim.Snapshot", t, t1)
	}
	e.spans.end(id)
	w = nil

	for r := 0; r < plan.reps; r++ {
		job := fmt.Sprintf("rep%d", r)
		rep := e.spans.begin(root, job, "replay")
		var ref string
		for _, v := range []struct {
			name       string
			spec       netSpec
			instrument bool
		}{{"reference", s, false}, {"traced", s, true}, {"other_shards", other, false}} {
			sid := e.spans.begin(rep, job, v.name)
			rp, err := e.replay(sid, job, v.spec, snap, plan.mark, plan.cycles, v.instrument)
			e.spans.end(sid)
			if err != nil {
				return err
			}
			ns := float64(rp.seg.elapsed.Nanoseconds())
			switch v.name {
			case "reference":
				ref = rp.seg.digest
				topo = append(topo, millis(rp.topo()))
				netNew = append(netNew, millis(rp.netNew()))
				restore = append(restore, millis(rp.restore))
				runMs = append(runMs, millis(rp.seg.elapsed))
				steps = append(steps, rp.seg.steps...)
				mem.add(rp.seg.mem)
				refNs += ns
			case "traced":
				layers.add(rp.probes)
				tracedNs += ns
			default:
				otherNs += ns
			}
			if plan.pin && v.name != "other_shards" {
				e.op(e.checkPin(rp.mark))
			}
			if v.name != "reference" {
				var mismatch error
				if rp.seg.digest != ref {
					mismatch = fmt.Errorf("%s: %s replay ended in snapshot %s, reference %s", s.label, v.name, rp.seg.digest, ref)
				}
				e.op(mismatch)
			}
			rp = replayed{}
		}
		e.spans.end(rep)
	}
	serialNs, shardedNs := refNs, otherNs
	if s.shards > 1 {
		serialNs, shardedNs = otherNs, refNs
	}
	e.set("shard.speedup", serialNs/shardedNs, "x")
	e.set("snapshot.encode_ms", median(enc), "ms")
	e.set("snapshot.bytes", float64(len(snap)), "B")
	e.set("snapshot.restore_ms", median(restore), "ms")
	if plan.probeOnly {
		return nil
	}
	e.set("topology.build_ms", median(topo), "ms")
	e.set("sim.network_new_ms", median(netNew), "ms")
	e.set("sim.run_ms", median(runMs), "ms")
	e.stepMetrics(steps)
	mem.report(e)
	layers.report(e, refNs)
	e.set("trace.overhead_frac", tracedNs/refNs-1, "ratio")
	return nil
}

// layerTailPct is the tail percentile of the per-layer latencies.
const layerTailPct = 90

// stepMetrics reports per-Step host times.
func (e *env) stepMetrics(steps []float64) {
	e.latency("sim.step_us", "us", steps, layerTailPct, "sim.step_us_p50", "sim.step_us_tail")
}
