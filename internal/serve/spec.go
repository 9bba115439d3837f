package serve

import (
	"fmt"
	"math"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
	"dragonfly/internal/traffic"
	"dragonfly/internal/workload"
)

// Job kinds.
const (
	KindRun   = "run"   // one load point
	KindSweep = "sweep" // a latency-load curve
)

// Submission is the JSON body of POST /v1/jobs: what to simulate.
// Omitted fields take the same defaults as the CLI tools, and the
// defaulted form is what gets hashed — two submissions that mean the
// same machine share one cache entry regardless of which defaults they
// spelled out.
type Submission struct {
	// Kind selects "run" (one load point) or "sweep" (a load list).
	Kind string `json:"kind"`
	// Topology is the dragonfly under test.
	Topology TopologySpec `json:"topology"`
	// Algorithm and Pattern name a routing algorithm and a legacy
	// traffic pattern spelling (core.Algorithms; UR, WC, BitComplement,
	// Tornado or Permutation — see traffic.LegacyFamily).
	Algorithm string `json:"algorithm"`
	Pattern   string `json:"pattern,omitempty"`
	// Traffic selects a registry traffic family with parameters
	// (GET /v1/traffic lists families and schemas), the general form of
	// Pattern; the two are mutually exclusive, and a legacy Pattern
	// canonicalises to its family before hashing, so {"pattern":"UR"}
	// and {"traffic":"ur"} share one cache entry.
	Traffic       string         `json:"traffic,omitempty"`
	TrafficParams map[string]int `json:"traffic_params,omitempty"`
	// Workload selects an arrival-process family driving injection
	// ("bernoulli", "onoff", "drift", "collective", "trace"); empty is
	// the Bernoulli default. Trace carries the flow-trace text (lines
	// of "cycle src dst count") required by — and only by — workload
	// "trace".
	Workload       string         `json:"workload,omitempty"`
	WorkloadParams map[string]int `json:"workload_params,omitempty"`
	Trace          string         `json:"trace,omitempty"`
	// Seed makes the run reproducible (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Shards partitions the engine (0 = serial). Results are
	// bit-identical for every value, so shards do NOT enter the job
	// hash: a cached result computed at any shard count answers them
	// all.
	Shards int `json:"shards,omitempty"`
	// Load is the offered load of a "run" job; Loads the points of a
	// "sweep" (flits/cycle/terminal, each in [0,1]).
	Load  float64   `json:"load,omitempty"`
	Loads []float64 `json:"loads,omitempty"`
	// Run is the measurement recipe.
	Run RunSpec `json:"run"`
	// Timeline, when non-empty, is a transient fault schedule in the
	// fault.ParseTimeline grammar ("@2000 fail global=0.25; ...");
	// FailSeed seeds its random draws (default 1).
	Timeline string `json:"timeline,omitempty"`
	FailSeed uint64 `json:"fail_seed,omitempty"`
	// Window, for "run" jobs, collects a windowed telemetry series
	// (obs.Windows) of this width in cycles, streamed live over the
	// job's SSE feed and embedded in the report.
	Window int64 `json:"window,omitempty"`
	// TimeoutMS overrides the server's per-job timeout, clamped to it
	// (a client may ask for less time, never more).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// TopologySpec is the machine configuration of a submission. Two
// spellings are accepted: the canonical-dragonfly shorthand (p/a/h/
// groups, zero values taking the paper defaults p=h=4, a=8), or a
// registry family name plus its parameter map (GET /v1/topologies
// lists the families and schemas). The two spellings may not be mixed,
// and both canonicalise to family+params before hashing, so a legacy
// {"p":4,"a":8,"h":4} body and {"family":"dragonfly"} share one cache
// entry.
type TopologySpec struct {
	// Family selects a registered topology family ("dragonfly",
	// "dragonflyplus", "swapped", "aries", ...). Empty means the
	// canonical dragonfly described by P/A/H/Groups.
	Family string `json:"family,omitempty"`
	// Params are the family's build parameters; omitted keys take the
	// schema defaults. Only valid alongside Family.
	Params map[string]int `json:"params,omitempty"`

	P        int `json:"p,omitempty"`
	A        int `json:"a,omitempty"`
	H        int `json:"h,omitempty"`
	Groups   int `json:"groups,omitempty"`
	BufDepth int `json:"buf_depth,omitempty"`
}

// RunSpec is the measurement recipe of a submission. Zero values take
// the 1K-network defaults (3000/2000/30000).
type RunSpec struct {
	Warmup  int `json:"warmup,omitempty"`
	Measure int `json:"measure,omitempty"`
	Drain   int `json:"drain,omitempty"`
}

// JobSpec is the canonical, fully-defaulted form of a submission: the
// value the job hash covers and the executor consumes. Every field is
// semantic — it can change the report — except Shards (bit-identical
// by the engine's contract) and TimeoutMS (an execution bound, not a
// result parameter), which ride along unhashed.
type JobSpec struct {
	Kind string
	// Family and Params are the canonical machine description: the
	// registry family plus its fully-defaulted parameter map (the
	// built machine's Descriptor.Params), whichever spelling the
	// submission used.
	Family    string
	Params    map[string]int
	BufDepth  int
	Seed      uint64
	Algorithm string
	// Pattern is the display name of the traffic half (the submitted
	// legacy spelling, or the canonical family name); the hash covers
	// the canonical Traffic/TrafficParams below, never this.
	Pattern string
	// Traffic and TrafficParams are the canonical traffic description:
	// the registry family (lower-case) plus its fully-defaulted
	// parameter map, whichever spelling the submission used.
	Traffic       string
	TrafficParams map[string]int
	// Source and SourceParams are the canonical arrival process; empty
	// Source is the Bernoulli default (an explicit "bernoulli"
	// canonicalises to empty, sharing its cache entry).
	Source       string
	SourceParams map[string]int
	// Trace is the raw flow-trace text of a "trace" workload (journaled
	// with the spec so recovery can rebuild the source); TraceHash is
	// its content digest — the only part of the trace the job hash
	// covers, stable across comment/whitespace reformatting.
	Trace     string
	TraceHash uint64
	Loads     []float64
	Warmup    int
	Measure   int
	Drain     int
	Timeline  string
	FailSeed  uint64
	Window    int64
	Shards    int // unhashed
	TimeoutMS int64
}

// Normalize validates the submission and returns its canonical spec.
// Every rejection is a *RequestError with an HTTP 400 status; the
// validation is deep enough that execution failures can only come from
// the simulation itself (stall, timeout, cancel), never from a
// malformed job that slipped into the queue: after canonicalising the
// spelling, Normalize builds the run exactly as Build will.
func (sub Submission) Normalize(limits Limits) (JobSpec, error) {
	var s JobSpec
	switch sub.Kind {
	case KindRun, KindSweep:
		s.Kind = sub.Kind
	case "":
		return s, badRequest("kind is required: %q or %q", KindRun, KindSweep)
	default:
		return s, badRequest("unknown kind %q (want %q or %q)", sub.Kind, KindRun, KindSweep)
	}

	alg, err := core.ParseAlgorithm(sub.Algorithm)
	if err != nil {
		return s, badRequest("%v", err)
	}
	s.Algorithm = sub.Algorithm
	s.Seed = sub.Seed
	if s.Seed == 0 {
		s.Seed = 1
	}
	if sub.Shards < 0 {
		return s, badRequest("shards must be >= 0")
	}
	s.Shards = sub.Shards

	// Topology: both spellings canonicalise to family + the built
	// machine's fully-defaulted parameter map, so the hash is canonical
	// over meaning, not spelling. Building the machine here (cheap:
	// structural only) is also the validation.
	t := sub.Topology
	switch {
	case t.BufDepth < 0:
		return s, badRequest("topology: buf_depth must be non-negative")
	case t.Family != "" && (t.P != 0 || t.A != 0 || t.H != 0 || t.Groups != 0):
		return s, badRequest("topology: family %q and the p/a/h/groups shorthand are mutually exclusive", t.Family)
	case t.Family == "" && len(t.Params) > 0:
		return s, badRequest(`topology: "params" needs a "family"`)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Topology: t.Family, TopoParams: t.Params,
		P: t.P, A: t.A, H: t.H, Groups: t.Groups,
		BufDepth: t.BufDepth, Seed: s.Seed, Shards: s.Shards,
	})
	if err != nil {
		return s, badRequest("%v", err)
	}
	desc := sys.Topo.Describe()
	s.Family, s.Params = desc.Family, desc.Params
	s.BufDepth = sys.SimConfig(alg).BufDepth // NewSystem's default applied
	if max := limits.MaxNodes; max > 0 && sys.Topo.Nodes() > max {
		return s, badRequest("topology has %d terminals, over the server's limit of %d", sys.Topo.Nodes(), max)
	}

	// Traffic: a legacy pattern spelling first resolves to its registry
	// family; either spelling then canonicalises to family +
	// fully-defaulted params, so the hash is canonical over meaning here
	// too. Pattern keeps the submitted legacy spelling for display.
	fam := sub.Traffic
	switch {
	case sub.Traffic != "" && sub.Pattern != "":
		return s, badRequest("pattern %q and traffic %q are mutually exclusive; set one", sub.Pattern, sub.Traffic)
	case sub.Traffic == "" && len(sub.TrafficParams) > 0:
		return s, badRequest(`"traffic_params" needs a "traffic" family`)
	case sub.Traffic == "":
		legacy, err := traffic.LegacyFamily(sub.Pattern)
		if err != nil {
			return s, badRequest("%v", err)
		}
		fam = legacy
	}
	tf, params, err := traffic.Families.Resolve(fam, sub.TrafficParams)
	if err != nil {
		return s, badRequest("%v", err)
	}
	s.Traffic, s.TrafficParams = tf.Name, params
	s.Pattern = sub.Pattern
	if s.Pattern == "" {
		s.Pattern = tf.Name
	}

	// Workload: canonicalise the arrival process. An explicit
	// "bernoulli" is the default spelled out, so it canonicalises to the
	// empty Source and shares the legacy cache entries.
	if sub.Workload != "" {
		wf, params, err := workload.Families.Resolve(sub.Workload, sub.WorkloadParams)
		if err != nil {
			return s, badRequest("%v", err)
		}
		if wf.Name != "bernoulli" {
			s.Source, s.SourceParams = wf.Name, params
			s.Pattern = s.Pattern + "+" + wf.Name
		}
	} else if len(sub.WorkloadParams) > 0 {
		return s, badRequest(`"workload_params" needs a "workload" family`)
	}
	switch {
	case s.Source == "trace" && sub.Trace == "":
		return s, badRequest(`workload "trace" needs the flow trace in "trace" (lines of "cycle src dst count")`)
	case s.Source != "trace" && sub.Trace != "":
		return s, badRequest(`"trace" needs workload "trace"`)
	case limits.MaxTraceBytes > 0 && len(sub.Trace) > limits.MaxTraceBytes:
		return s, badRequest("trace is %d bytes, over the server's limit of %d", len(sub.Trace), limits.MaxTraceBytes)
	}
	s.Trace = sub.Trace

	switch s.Kind {
	case KindRun:
		if len(sub.Loads) > 0 {
			return s, badRequest(`"run" jobs take "load", not "loads"`)
		}
		s.Loads = []float64{sub.Load}
	case KindSweep:
		if sub.Load != 0 {
			return s, badRequest(`"sweep" jobs take "loads", not "load"`)
		}
		if len(sub.Loads) == 0 {
			return s, badRequest(`"sweep" jobs need a non-empty "loads" list`)
		}
		if max := limits.MaxSweepPoints; max > 0 && len(sub.Loads) > max {
			return s, badRequest("sweep has %d load points, over the server's limit of %d", len(sub.Loads), max)
		}
		s.Loads = append([]float64(nil), sub.Loads...)
	}
	for _, l := range s.Loads {
		if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 || l > 1 {
			return s, badRequest("load %v out of range: want a fraction in [0,1]", l)
		}
	}

	s.Warmup, s.Measure, s.Drain = sub.Run.Warmup, sub.Run.Measure, sub.Run.Drain
	if s.Warmup == 0 && s.Measure == 0 && s.Drain == 0 {
		def := sim.DefaultRunConfig(0)
		s.Warmup, s.Measure, s.Drain = def.WarmupCycles, def.MeasureCycles, def.DrainCycles
	}
	if max := limits.MaxCycles; max > 0 && int64(s.Warmup)+int64(s.Measure)+int64(s.Drain) > max {
		return s, badRequest("run asks for up to %d cycles, over the server's limit of %d", int64(s.Warmup)+int64(s.Measure)+int64(s.Drain), max)
	}

	s.Timeline = sub.Timeline
	s.FailSeed = sub.FailSeed
	if s.FailSeed == 0 {
		s.FailSeed = 1
	}

	if sub.Window < 0 {
		return s, badRequest("window must be >= 0")
	}
	if sub.Window > 0 && s.Kind != KindRun {
		return s, badRequest(`"window" telemetry applies to "run" jobs only`)
	}
	s.Window = sub.Window

	if sub.TimeoutMS < 0 {
		return s, badRequest("timeout_ms must be >= 0")
	}
	s.TimeoutMS = sub.TimeoutMS

	r, err := s.build(sys)
	if err != nil {
		return s, badRequest("%v", err)
	}
	if r.Workload.Trace != nil {
		s.TraceHash = r.Workload.Trace.Hash()
	}
	return s, nil
}

// Setup is a canonical spec resolved into what the engine executes. Both
// front doors build their runs here: dfly-serve's executor and dfly-sim,
// which layers its CLI-only extras (static fault plans, the packet
// tracer, checkpoint files) on top.
type Setup struct {
	// Sys is the machine, with the spec's fault timeline attached.
	Sys *core.System
	// Algorithm is the routing algorithm.
	Algorithm core.Algorithm
	// Workload is the traffic and arrival process, trace parsed.
	Workload core.Workload
	// Config is the warm-up/measure/drain recipe (the load is set per
	// point by core).
	Config sim.RunConfig
	// Report is the run's report with its identity filled in (kind,
	// machine, algorithm, pattern label, seed); callers add the points.
	Report *obs.Report
	// Windows is the windowed telemetry collector of a run with a
	// Window, split by link class; nil otherwise.
	Windows *obs.Windows
}

// Build resolves the spec into a runnable simulation: the machine from
// the canonical family and parameters, then everything build adds.
func (s JobSpec) Build() (*Setup, error) {
	sys, err := core.NewSystem(core.SystemConfig{
		Topology: s.Family, TopoParams: s.Params,
		BufDepth: s.BufDepth, Seed: s.Seed, Shards: s.Shards,
	})
	if err != nil {
		return nil, err
	}
	return s.build(sys)
}

// build completes a run on sys, which Normalize builds from the
// submitted spelling and Build from the canonical one. Building the
// traffic pattern and the arrival process against the machine, and
// compiling the timeline, validates them. Specs journaled before the
// workload redesign carry only the legacy Pattern spelling (empty
// Traffic); they resolve through traffic.LegacyFamily exactly as
// Normalize would have resolved them.
func (s JobSpec) build(sys *core.System) (*Setup, error) {
	alg, err := core.ParseAlgorithm(s.Algorithm)
	if err != nil {
		return nil, err
	}
	wl := core.Workload{
		Traffic:       s.Traffic,
		TrafficParams: s.TrafficParams,
		Source:        s.Source,
		SourceParams:  s.SourceParams,
	}
	if s.Traffic == "" {
		if wl.Traffic, err = traffic.LegacyFamily(s.Pattern); err != nil {
			return nil, err
		}
	}
	if s.Source == "trace" {
		if wl.Trace, err = workload.ParseTrace([]byte(s.Trace), sys.Topo.Nodes()); err != nil {
			return nil, err
		}
	}
	if _, err := sys.TrafficFor(wl); err != nil {
		return nil, err
	}
	if _, err := sys.SourceFor(wl); err != nil {
		return nil, err
	}
	if s.Timeline != "" {
		tl, err := fault.ParseTimeline(s.Timeline, s.FailSeed)
		if err != nil {
			return nil, fmt.Errorf("timeline: %w", err)
		}
		sched, err := tl.Compile(sys.Topo)
		if err != nil {
			return nil, fmt.Errorf("timeline: %w", err)
		}
		if sys, err = sys.WithTimeline(sched); err != nil {
			return nil, err
		}
	}
	rc := sim.RunConfig{WarmupCycles: s.Warmup, MeasureCycles: s.Measure, DrainCycles: s.Drain}
	if err := rc.Validate(); err != nil {
		return nil, err
	}

	rep := obs.NewReport(s.Kind)
	rep.Topology, rep.Algorithm, rep.Pattern, rep.Seed = fmt.Sprint(sys.Topo), s.Algorithm, s.Pattern, s.Seed
	r := &Setup{Sys: sys, Algorithm: alg, Workload: wl, Config: rc, Report: rep}
	if s.Window > 0 {
		r.Windows = obs.NewWindows(obs.WindowsConfig{
			Width:       s.Window,
			Terminals:   sys.Topo.Nodes(),
			LinkClasses: sim.LinkClasses(sys.Topo),
		})
	}
	return r, nil
}

// Limits bounds what a single submission may demand of the server.
type Limits struct {
	// MaxNodes caps the terminal count of a submitted topology
	// (0 = unlimited).
	MaxNodes int
	// MaxSweepPoints caps a sweep's load list (0 = unlimited).
	MaxSweepPoints int
	// MaxCycles caps warmup+measure+drain (0 = unlimited).
	MaxCycles int64
	// MaxTraceBytes caps the flow-trace text of a "trace" workload
	// (0 = unlimited; the request body cap still applies).
	MaxTraceBytes int
}

// RequestError is a rejected request: a message plus the HTTP status it
// maps to. Every validation failure is one, so handlers can write the
// structured error without switching on error strings.
type RequestError struct {
	Status int
	Msg    string
}

// Error returns the rejection message.
func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Status: 400, Msg: fmt.Sprintf(format, args...)}
}
