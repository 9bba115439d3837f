// Package core is the library façade for the dragonfly system: it wires
// the topology (internal/topology), the routing algorithms
// (internal/routing), the traffic patterns (internal/traffic) and the
// cycle-accurate simulator (internal/sim) into one configurable object,
// the System. Examples, command-line tools and the experiment harness
// all build on it. The traffic of a run is always a Workload: a traffic
// family from the registry plus an optional arrival process.
//
// A minimal session:
//
//	sys, err := core.NewSystem(core.SystemConfig{P: 4, A: 8, H: 4})
//	res, err := sys.RunW(core.AlgUGALL, core.Workload{Traffic: "wc"}, 0.3, sim.RunConfig{...})
package core

import (
	"fmt"

	"dragonfly/internal/fault"
	"dragonfly/internal/parallel"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// Algorithm names a routing algorithm of the paper.
type Algorithm string

// The routing algorithms of Section 4.
const (
	AlgMIN      Algorithm = "MIN"
	AlgVAL      Algorithm = "VAL"
	AlgUGALL    Algorithm = "UGAL-L"
	AlgUGALG    Algorithm = "UGAL-G"
	AlgUGALLVC  Algorithm = "UGAL-L_VC"
	AlgUGALLVCH Algorithm = "UGAL-L_VCH"
	AlgUGALLCR  Algorithm = "UGAL-L_CR"
)

// Algorithms lists every supported algorithm in the paper's order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgMIN, AlgVAL, AlgUGALL, AlgUGALG, AlgUGALLVC, AlgUGALLVCH, AlgUGALLCR}
}

// ParseAlgorithm resolves a name (as printed by the constants) to an
// Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if string(a) == s {
			return a, nil
		}
	}
	return "", fmt.Errorf("core: unknown routing algorithm %q (supported: %v)", s, Algorithms())
}

// SystemConfig describes a machine and its simulation parameters. Zero
// values take the paper's defaults.
type SystemConfig struct {
	// Topology selects a registered topology family
	// (topology.Families: "dragonfly", "dragonflyfb",
	// "dragonflyplus", "swapped", "aries"). Empty means the canonical
	// dragonfly built from the P/A/H/Groups fields below. When
	// non-empty, the machine is built from TopoParams instead and
	// P/A/H/Groups are ignored.
	Topology string
	// TopoParams are the family build parameters (omitted keys take the
	// family's schema defaults). Only consulted when Topology is set.
	TopoParams map[string]int
	// P, A, H are the canonical dragonfly parameters (terminals per
	// router, routers per group, global channels per router), used when
	// Topology is empty. Defaults: the paper's 1K evaluation network
	// p=h=4, a=8.
	P, A, H int
	// Groups is the group count; 0 means the maximal a*h+1.
	Groups int
	// BufDepth is the per-VC input buffer depth (default 16).
	BufDepth int
	// LocalLatency/GlobalLatency are channel latencies in cycles
	// (defaults 1 and 2).
	LocalLatency, GlobalLatency int
	// Seed makes simulations reproducible (default 1).
	Seed uint64
	// Shards is the engine shard count every network of this system is
	// partitioned into (see sim.Network.SetShards). 0 or 1 runs the
	// serial engine; values are clamped to the group count. Results are
	// bit-identical for every shard count.
	Shards int
	// Faults, when non-nil, is the fault plan (internal/fault.Plan) the
	// system simulates under: routing and the simulator consume the
	// degraded topology view instead of the pristine one. Build plans
	// against an existing system's Topo and attach them with WithFaults.
	Faults topology.FaultView
}

// System is a configured machine: topology plus simulation defaults.
type System struct {
	// Topo is the constructed topology.
	Topo topology.Machine
	cfg  SystemConfig
	deg  *topology.Degraded
	// sched is the compiled fault timeline (nil for static systems);
	// attach with WithTimeline.
	sched *fault.Schedule
}

// NewSystem validates the configuration and builds the topology.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.BufDepth == 0 {
		cfg.BufDepth = 16
	}
	if cfg.LocalLatency == 0 {
		cfg.LocalLatency = 1
	}
	if cfg.GlobalLatency == 0 {
		cfg.GlobalLatency = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var d topology.Machine
	var err error
	if cfg.Topology == "" {
		if cfg.P == 0 && cfg.A == 0 && cfg.H == 0 {
			cfg.P, cfg.A, cfg.H = 4, 8, 4
		}
		d, err = topology.NewDragonfly(cfg.P, cfg.A, cfg.H, cfg.Groups)
	} else {
		d, err = topology.Build(cfg.Topology, cfg.TopoParams)
	}
	if err != nil {
		return nil, err
	}
	s := &System{Topo: d, cfg: cfg}
	if cfg.Faults != nil {
		s.deg = topology.NewDegraded(d, cfg.Faults)
	}
	return s, nil
}

// WithFaults returns a system sharing this one's topology and defaults
// but simulating under fault plan fv (nil clears the faults). The usual
// flow is: build the pristine system, construct a fault.Plan against
// sys.Topo, then derive the degraded system here.
func (s *System) WithFaults(fv topology.FaultView) *System {
	ns := *s
	ns.cfg.Faults = fv
	ns.deg = nil
	if fv != nil {
		ns.deg = topology.NewDegraded(s.Topo, fv)
	}
	return &ns
}

// WithTimeline returns a system sharing this one's topology and
// defaults but simulating under the compiled fault timeline sched (nil
// clears it): every network the derived system builds starts in the
// schedule's first epoch and swaps views at the scheduled cycles. The
// usual flow is: build the pristine system, build a fault.Timeline,
// compile it against sys.Topo, and attach the schedule here. A timeline
// cannot be combined with a static fault plan — the timeline's epoch 0
// is where standing faults belong.
func (s *System) WithTimeline(sched *fault.Schedule) (*System, error) {
	ns := *s
	ns.sched = nil
	if sched == nil {
		return &ns, nil
	}
	if s.cfg.Faults != nil {
		return nil, fmt.Errorf("core: a fault timeline cannot be combined with a static fault plan (put standing faults in the timeline's cycle-0 events)")
	}
	if len(sched.Epochs) == 0 {
		return nil, fmt.Errorf("core: fault schedule has no epochs")
	}
	for i, e := range sched.Epochs {
		if e.View == nil || e.View.Machine != s.Topo {
			return nil, fmt.Errorf("core: fault schedule epoch %d was not compiled against this system's topology", i)
		}
	}
	ns.sched = sched
	return &ns, nil
}

// Timeline returns the attached fault schedule, or nil when the system
// is static.
func (s *System) Timeline() *fault.Schedule { return s.sched }

// Degraded returns the fault-aware topology view, or nil when no fault
// plan is attached.
func (s *System) Degraded() *topology.Degraded { return s.deg }

// routingTopo returns the structural view handed to the routing
// algorithms: the degraded one when a fault plan is attached.
func (s *System) routingTopo() topology.Machine {
	if s.deg != nil {
		return s.deg
	}
	return s.Topo
}

// SimConfig returns the simulator configuration for the given algorithm
// (UGAL-L_CR switches the delayed-credit mechanism on). The VC count is
// the routing ladder's requirement or the topology's own MinVCs policy,
// whichever is larger (all current machines need exactly the ladder's 3).
func (s *System) SimConfig(alg Algorithm) sim.Config {
	vcs := routing.VCs
	if m := s.Topo.MinVCs(); m > vcs {
		vcs = m
	}
	return sim.Config{
		BufDepth:      s.cfg.BufDepth,
		VCs:           vcs,
		LocalLatency:  s.cfg.LocalLatency,
		GlobalLatency: s.cfg.GlobalLatency,
		DelayCredits:  alg == AlgUGALLCR,
		Seed:          s.cfg.Seed,
		Shards:        s.cfg.Shards,
	}
}

// Routing constructs the routing algorithm alg over this topology (the
// fault-aware view of it when a fault plan is attached).
func (s *System) Routing(alg Algorithm) (sim.Routing, error) {
	return routingOver(alg, s.routingTopo())
}

// routingOver constructs alg over an explicit structural view — the
// timeline path hands the per-network Switched view in here so routing
// liveness queries follow the epoch swaps.
func routingOver(alg Algorithm, t topology.Machine) (sim.Routing, error) {
	switch alg {
	case AlgMIN:
		return routing.NewMIN(t), nil
	case AlgVAL:
		return routing.NewVAL(t), nil
	case AlgUGALL:
		return routing.NewUGAL(t, routing.UGALLocal), nil
	case AlgUGALG:
		return routing.NewUGAL(t, routing.UGALGlobal), nil
	case AlgUGALLVC:
		return routing.NewUGAL(t, routing.UGALLocalVC), nil
	case AlgUGALLVCH:
		return routing.NewUGAL(t, routing.UGALLocalVCH), nil
	case AlgUGALLCR:
		return routing.NewUGALCR(t), nil
	default:
		return nil, fmt.Errorf("core: unknown routing algorithm %q", alg)
	}
}

// NewNetworkFor builds a fresh simulation network for (alg, workload).
// Each load point of a sweep should use a fresh network. With a
// timeline attached, the network gets its own switchable topology view
// (epoch swaps are per-network state, so concurrent sweep points stay
// independent) and the schedule is installed before the first cycle.
// The workload's source (when one is set) is installed before the
// network is returned, so snapshots taken from it carry the source
// fingerprint and per-terminal state.
func (s *System) NewNetworkFor(alg Algorithm, w Workload) (*sim.Network, error) {
	tr, err := s.TrafficFor(w)
	if err != nil {
		return nil, err
	}
	src, err := s.SourceFor(w)
	if err != nil {
		return nil, err
	}
	if s.sched != nil {
		sw := topology.NewSwitched(s.Topo)
		sw.SetEpoch(s.sched.Epochs[0].View)
		rt, err := routingOver(alg, sw)
		if err != nil {
			return nil, err
		}
		net, err := sim.New(sw, s.SimConfig(alg), rt, tr)
		if err != nil {
			return nil, err
		}
		epochs := make([]sim.Epoch, len(s.sched.Epochs))
		for i, e := range s.sched.Epochs {
			epochs[i] = sim.Epoch{Start: e.Start, View: e.View}
		}
		if err := net.SetTimeline(epochs); err != nil {
			return nil, err
		}
		return withSource(net, src)
	}
	rt, err := s.Routing(alg)
	if err != nil {
		return nil, err
	}
	var st sim.Topology = s.Topo
	if s.deg != nil {
		st = s.deg // the simulator detects Alive and kills the dead links
	}
	net, err := sim.New(st, s.SimConfig(alg), rt, tr)
	if err != nil {
		return nil, err
	}
	return withSource(net, src)
}

// withSource installs a workload source on a freshly built network,
// leaving the engine's built-in default untouched when src is nil.
func withSource(net *sim.Network, src sim.Source) (*sim.Network, error) {
	if src == nil {
		return net, nil
	}
	if err := net.SetSource(src); err != nil {
		return nil, err
	}
	return net, nil
}

// RunW builds a fresh network and executes one measured simulation of
// workload w at the given load. Trailing options attach observability
// (WithCollector) and progress reporting (WithProgress).
func (s *System) RunW(alg Algorithm, w Workload, load float64, rc sim.RunConfig, opts ...RunOption) (sim.Result, error) {
	o := applyOptions(opts)
	res, err := s.runWith(alg, w, load, rc, &o)
	if err != nil {
		return res, err
	}
	if o.progress != nil {
		o.progress(ProgressEvent{Algorithm: alg, Label: w.Label(), Load: load, Index: 0, Total: 1, Result: res})
	}
	return res, nil
}

// runWith is RunW minus the progress callback: the piece SweepPoolW's
// workers execute concurrently (progress stays serial, in the fold).
func (s *System) runWith(alg Algorithm, w Workload, load float64, rc sim.RunConfig, o *runOptions) (sim.Result, error) {
	net, err := s.NewNetworkFor(alg, w)
	if err != nil {
		return sim.Result{}, err
	}
	if o.source != nil {
		// A programmatic source (WithSource) overrides the workload's
		// registry-built one — the hook composite sources like
		// workload.MultiTenant come in through.
		if err := net.SetSource(o.source); err != nil {
			return sim.Result{}, err
		}
	}
	if o.collector != nil {
		net.AttachMetrics(o.collector)
	}
	rc.Load = load
	var res sim.Result
	if o.resume != nil {
		// The network is complete here — shards set, timeline applied —
		// so the snapshot's fingerprint is checked against the real
		// machine, and a cross-shard resume restores into the right
		// partition.
		res, err = sim.ResumeCtx(o.context(), net, rc, o.resume)
	} else {
		res, err = sim.RunCtx(o.context(), net, rc)
	}
	if err == nil && o.collector != nil {
		// Close trailing partial state (obs.Windows' final short window)
		// now that the run's cycle count is final.
		flushSinks(o.collector, res.Cycles)
	}
	return res, err
}

// SweepPoint is one load point of a latency-load curve.
type SweepPoint struct {
	Load   float64
	Result sim.Result
}

// SweepW runs a load sweep of workload w with a fresh network per
// point, stopping early after the first saturated point beyond
// stopAfterSaturated consecutive saturations (0 disables early
// stopping). Load points are dispatched to the process-wide shared
// worker pool (parallel.Default, sized to GOMAXPROCS); use SweepPoolW
// to control the worker count.
func (s *System) SweepW(alg Algorithm, w Workload, loads []float64, rc sim.RunConfig, stopAfterSaturated int, opts ...RunOption) ([]SweepPoint, error) {
	return s.SweepPoolW(nil, alg, w, loads, rc, stopAfterSaturated, opts...)
}

// SweepPoolW is SweepW running on an explicit worker pool (nil means
// parallel.Default()). Load points are independent jobs — each builds a
// fresh network whose seed depends only on the system configuration, so
// the returned series is bit-identical for every pool size, jobs=1
// included.
//
// Early stopping is preserved by speculative waves: up to pool.Jobs()
// consecutive load points run concurrently, then the serial
// stop-after-saturation rule folds the wave into the series, truncating
// it (and discarding any speculative excess) exactly where the serial
// sweep would have stopped. Errors behave like the serial sweep too: the
// points before the first failing load are returned alongside the error.
//
// Options: a WithCollector sink observes every load point
// (concurrently, when the pool runs several jobs — see WithCollector);
// a WithProgress callback fires in the serial fold, in load order, and
// never sees points a truncation discarded. Progress events and errors
// name the workload by w.Label().
func (s *System) SweepPoolW(pool *parallel.Pool, alg Algorithm, w Workload, loads []float64, rc sim.RunConfig, stopAfterSaturated int, opts ...RunOption) ([]SweepPoint, error) {
	if pool == nil {
		pool = parallel.Default()
	}
	o := applyOptions(opts)
	if rc.CheckpointEvery > 0 || rc.CheckpointSink != nil || o.resume != nil {
		// A sweep is many runs; one snapshot stream would interleave
		// them, and a single checkpoint identifies only one load point.
		return nil, fmt.Errorf("core: RunConfig checkpoints and WithResume apply to single runs, not sweeps")
	}
	results := make([]sim.Result, len(loads))
	errs := make([]error, len(loads))
	var out []SweepPoint
	saturated := 0
	label := w.Label()
	ctx := o.context()
	wave := pool.Jobs()
	for lo := 0; lo < len(loads); lo += wave {
		// Skip queued waves once the sweep's context is done: the wave
		// in flight already observes ctx inside the engine, so this
		// check only prevents dispatching fresh speculative work.
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("core: %s/%s sweep canceled before load %.3f: %w", alg, label, loads[lo], err)
		}
		hi := lo + wave
		if hi > len(loads) {
			hi = len(loads)
		}
		pool.ForEach(hi-lo, func(j int) error {
			i := lo + j
			pool.Work(func() {
				results[i], errs[i] = s.runWith(alg, w, loads[i], rc, &o)
				pool.Logf("  %s/%s load %.3f done\n", alg, label, loads[i])
			})
			return nil
		})
		for i := lo; i < hi; i++ {
			if errs[i] != nil {
				return out, fmt.Errorf("core: %s/%s at load %.3f: %w", alg, label, loads[i], errs[i])
			}
			out = append(out, SweepPoint{Load: loads[i], Result: results[i]})
			if o.progress != nil {
				o.progress(ProgressEvent{Algorithm: alg, Label: label, Load: loads[i], Index: len(out) - 1, Total: len(loads), Result: results[i]})
			}
			if results[i].Saturated {
				saturated++
				if stopAfterSaturated > 0 && saturated >= stopAfterSaturated {
					return out, nil
				}
			} else {
				saturated = 0
			}
		}
	}
	return out, nil
}
