package obs

import (
	"encoding/json"
	"io"

	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
)

// SchemaVersion identifies the JSON report layout. Consumers must
// check it before interpreting anything else; it bumps on any
// incompatible change (field removal, meaning change) and stays put
// for pure additions.
const SchemaVersion = 1

// Report is the machine-readable output of a run: the versioned
// envelope around load-sweep results, windowed telemetry and sampled
// traces. dfly-sim -json emits one; dfly-experiments -json emits one
// per exhibit alongside the exhibit payload.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Kind says what produced the report: "sweep" (dfly-sim load
	// sweep), "run" (single load point), or "experiment".
	Kind string `json:"kind"`

	// Run identity, where meaningful.
	Topology  string `json:"topology,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Pattern   string `json:"pattern,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`

	// Points are the per-load results of a sweep (one element for a
	// single run).
	Points []Point `json:"points,omitempty"`
	// Windows is the windowed time series, when collected.
	Windows []Window `json:"windows,omitempty"`
	// Trace is the sampled per-hop record stream, when collected.
	Trace []metrics.Hop `json:"trace,omitempty"`
}

// NewReport returns an empty report of the given kind carrying the
// current schema version.
func NewReport(kind string) *Report {
	return &Report{SchemaVersion: SchemaVersion, Kind: kind}
}

// Write renders the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Point is one load point of a sweep.
type Point struct {
	Load   float64 `json:"load"`
	Result Result  `json:"result"`
}

// Result is the JSON shape of sim.Result: the aggregates flattened
// out of the streaming accumulators, stable under SchemaVersion.
type Result struct {
	Offered         float64 `json:"offered"`
	Accepted        float64 `json:"accepted"`
	LatencyMean     float64 `json:"latency_mean"`
	LatencyMin      float64 `json:"latency_min"`
	LatencyMax      float64 `json:"latency_max"`
	LatencyCount    int64   `json:"latency_count"`
	LatencyP99      int64   `json:"latency_p99,omitempty"`
	MinLatencyMean  float64 `json:"min_latency_mean"`
	NonminLatency   float64 `json:"nonmin_latency_mean"`
	MinimalFraction float64 `json:"minimal_fraction"`
	Saturated       bool    `json:"saturated"`
	Cycles          int64   `json:"cycles"`
	DrainTimeout    bool    `json:"drain_timeout"`
	Dropped         int64   `json:"dropped,omitempty"`
	KilledInFlight  int64   `json:"killed_in_flight,omitempty"`
	Rerouted        int64   `json:"rerouted,omitempty"`
	AliveTerminals  int     `json:"alive_terminals"`
}

// MakeResult flattens a sim.Result into its JSON shape. The p99
// latency is resolved from the histogram when the run collected one.
func MakeResult(r sim.Result) Result {
	out := Result{
		Offered:         r.Offered,
		Accepted:        r.Accepted,
		LatencyMean:     r.Latency.Mean(),
		LatencyMin:      r.Latency.Min(),
		LatencyMax:      r.Latency.Max(),
		LatencyCount:    r.Latency.Count(),
		MinLatencyMean:  r.MinLatency.Mean(),
		NonminLatency:   r.NonminLatency.Mean(),
		MinimalFraction: r.MinimalFraction,
		Saturated:       r.Saturated,
		Cycles:          r.Cycles,
		DrainTimeout:    r.DrainTimeout,
		Dropped:         r.Dropped,
		KilledInFlight:  r.KilledInFlight,
		Rerouted:        r.Rerouted,
		AliveTerminals:  r.AliveTerminals,
	}
	if r.Hist != nil && r.Hist.Total() > 0 {
		out.LatencyP99 = r.Hist.Percentile(0.99)
	}
	return out
}
