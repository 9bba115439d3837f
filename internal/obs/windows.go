// Package obs is the simulator's observability layer: windowed time
// series, sampled packet tracing, and machine-readable run reports,
// all built on the metrics extension interfaces so they attach to any
// Network and cost nothing when absent.
//
// The package sits between metrics (the event vocabulary, which it
// consumes) and core (the experiment driver, which attaches its
// collectors via functional options). It deliberately does not import
// core.
package obs

import (
	"slices"

	"dragonfly/internal/metrics"
)

// WindowsConfig parameterises a windowed time-series collector.
type WindowsConfig struct {
	// Width is the window length in cycles (>= 1).
	Width int64
	// Terminals normalises the accepted rate: flits per cycle per
	// terminal. Use the topology's full terminal count so a degraded
	// network's series dips instead of silently re-normalising.
	Terminals int
	// LinkClasses, when non-nil, maps link id to class (true = global)
	// and enables the per-class utilization columns. Build it with
	// sim.LinkClasses.
	LinkClasses []bool
}

// Window is one closed measurement window of the time series. The
// window covers cycles (Start, End].
type Window struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Ejected counts packets ejected in the window; Accepted is the
	// same normalised to flits/cycle/terminal.
	Ejected  int64   `json:"ejected"`
	Accepted float64 `json:"accepted"`
	// LatencyMean and LatencyP99 aggregate the latency (creation to
	// ejection) of the packets ejected in the window; 0 when none.
	LatencyMean float64 `json:"latency_mean"`
	LatencyP99  float64 `json:"latency_p99"`
	// UtilLocal and UtilGlobal are the mean busy fraction of the local
	// and global channels over the window (0 without LinkClasses).
	UtilLocal  float64 `json:"util_local"`
	UtilGlobal float64 `json:"util_global"`
	// VCOcc is the window's input-buffer occupancy heatmap column:
	// VCOcc[o] counts flit deliveries that found their input VC at
	// occupancy o (post-increment). Nil when nothing was delivered.
	VCOcc []int64 `json:"vc_occ,omitempty"`
	// Drops, Kills and Reroutes count the fault-path events that
	// landed in the window.
	Drops    int64 `json:"drops,omitempty"`
	Kills    int64 `json:"kills,omitempty"`
	Reroutes int64 `json:"reroutes,omitempty"`
}

// Windows accumulates per-window telemetry from the metrics events: it
// subscribes to ejections, flit forwards, VC deliveries, fault events
// and cycle boundaries, and closes a Window every Width cycles. Attach
// it with Network.AttachMetrics (stack with metrics.Multi if another
// collector is active) and read the series back with Windows.
//
// A window closes on the CycleEnd event of its last cycle, so a run of
// k*Width cycles yields exactly k full windows. A trailing partial
// window (cycles past the last Width boundary) is closed by Flush —
// called automatically by core.RunW and friends when the run finishes,
// or by hand — as a final short window covering (Start, End] with
// End − Start < Width; without a Flush it is discarded.
type Windows struct {
	metrics.Nop
	cfg      WindowsConfig
	locals   int
	globals  int
	winStart int64

	wins []Window

	// Current-window accumulators. latScratch is the p99 sort buffer:
	// percentiles must not reorder lats itself, which callers may be
	// reading interleaved with window closes.
	ejected     int64
	latSum      int64
	lats        []int64
	latScratch  []int64
	localFlits  int64
	globalFlits int64
	vcOcc       []int64
	vcAny       bool
	drops       int64
	kills       int64
	reroutes    int64
}

// NewWindows builds a windowed collector. Width and Terminals must be
// positive.
func NewWindows(cfg WindowsConfig) *Windows {
	if cfg.Width < 1 {
		cfg.Width = 1
	}
	w := &Windows{cfg: cfg}
	for _, g := range cfg.LinkClasses {
		if g {
			w.globals++
		} else {
			w.locals++
		}
	}
	return w
}

// Windows returns the closed windows, oldest first. The slice aliases
// the collector's storage; it is valid until the next event.
func (w *Windows) Windows() []Window { return w.wins }

// PacketEjected implements metrics.EjectObserver.
func (w *Windows) PacketEjected(e metrics.Eject) {
	w.ejected++
	w.latSum += e.Latency
	w.lats = append(w.lats, e.Latency)
}

// ChannelFlit implements the metrics.Collector event.
func (w *Windows) ChannelFlit(link int) {
	if w.cfg.LinkClasses == nil {
		return
	}
	if w.cfg.LinkClasses[link] {
		w.globalFlits++
	} else {
		w.localFlits++
	}
}

// VCOccupancy implements the metrics.Collector event.
func (w *Windows) VCOccupancy(_, _, _, occupancy int) {
	for occupancy >= len(w.vcOcc) {
		w.vcOcc = append(w.vcOcc, 0)
	}
	w.vcOcc[occupancy]++
	w.vcAny = true
}

// Drop implements the metrics.Collector event.
func (w *Windows) Drop(int) { w.drops++ }

// Kill implements metrics.FaultObserver.
func (w *Windows) Kill(int) { w.kills++ }

// Reroute implements metrics.FaultObserver.
func (w *Windows) Reroute(int) { w.reroutes++ }

// CycleEnd implements metrics.CycleObserver: it closes the window when
// Width cycles have elapsed since the last close.
func (w *Windows) CycleEnd(cycle int64) {
	if cycle-w.winStart < w.cfg.Width {
		return
	}
	w.close(cycle)
}

// Flush closes the current partial window at the given cycle. The
// flushed window covers (Start, End] like every other window, but its
// span End − Start may be shorter than Width — packets ejected after
// the last full-window boundary land here instead of vanishing. Flush
// is idempotent for the same cycle (a no-op when no cycles elapsed
// since the last close), so core.RunW's automatic finish flush and an
// explicit caller flush compose safely.
func (w *Windows) Flush(cycle int64) {
	if cycle > w.winStart {
		w.close(cycle)
	}
}

func (w *Windows) close(cycle int64) {
	win := Window{
		Start:    w.winStart,
		End:      cycle,
		Ejected:  w.ejected,
		Drops:    w.drops,
		Kills:    w.kills,
		Reroutes: w.reroutes,
	}
	span := float64(cycle - w.winStart)
	if w.cfg.Terminals > 0 {
		win.Accepted = float64(w.ejected) / (float64(w.cfg.Terminals) * span)
	}
	if w.ejected > 0 {
		win.LatencyMean = float64(w.latSum) / float64(w.ejected)
		// p99 sorts its argument; hand it a scratch copy so the latency
		// accumulator keeps insertion order for any interleaved reader.
		w.latScratch = append(w.latScratch[:0], w.lats...)
		win.LatencyP99 = p99(w.latScratch)
	}
	if w.locals > 0 {
		win.UtilLocal = float64(w.localFlits) / (float64(w.locals) * span)
	}
	if w.globals > 0 {
		win.UtilGlobal = float64(w.globalFlits) / (float64(w.globals) * span)
	}
	if w.vcAny {
		win.VCOcc = append([]int64(nil), w.vcOcc...)
	}
	w.wins = append(w.wins, win)

	w.winStart = cycle
	w.ejected, w.latSum = 0, 0
	w.lats = w.lats[:0]
	w.localFlits, w.globalFlits = 0, 0
	for i := range w.vcOcc {
		w.vcOcc[i] = 0
	}
	w.vcAny = false
	w.drops, w.kills, w.reroutes = 0, 0, 0
}

// p99 returns the 99th-percentile sample (the smallest value with at
// least 99% of samples <= it). It sorts xs in place: callers own the
// slice and must pass a scratch copy if the original order matters.
func p99(xs []int64) float64 {
	slices.Sort(xs)
	idx := (99*len(xs) + 99) / 100 // ceil(0.99 n)
	if idx < 1 {
		idx = 1
	}
	return float64(xs[idx-1])
}
