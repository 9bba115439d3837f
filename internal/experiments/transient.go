package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/obs"
	"dragonfly/internal/topology"
)

// transientFaultSeed pins the transient exhibit's fault draws, like the
// resilience exhibit's seed.
const transientFaultSeed = 1

// transientLoad is the offered load of the time series: moderate enough
// that the degraded interval stays below saturation and the recovery is
// attributable to the repair, not to drain of a saturated backlog.
const transientLoad = 0.3

// transientFailFraction is the fraction of global channels the event
// severs. At the evaluation networks' one global channel per group
// pair, a quarter of the cables dying cuts the only minimal path of a
// quarter of the group pairs — MIN survives solely through the
// fault-aware Valiant fallback until the repair.
const transientFailFraction = 0.25

// TransientCycles returns the exhibit's event schedule derived from the
// scale: the failure strikes at fail (after a full warm-up of pristine
// steady state), the repair lands at recover, and the series runs to
// end — two measurement windows after the repair, so the recovered
// steady state is visible well past the settling transient.
func (s Scale) TransientCycles() (fail, recover, end int64) {
	fail = int64(s.Warmup)
	recover = fail + int64(s.Measure)
	end = recover + 2*int64(s.Measure)
	return fail, recover, end
}

// Transient is the fail-then-recover time-series exhibit (not a paper
// figure — the paper assumes pristine hardware): windowed accepted
// throughput and packet latency simulated straight through a fault
// timeline that severs a quarter of the global channels and repairs
// them one measurement window later, MIN versus UGAL-L under uniform
// random traffic. The expected shape: both algorithms dip when the
// cables die (in-flight packets on them are destroyed, minimal paths
// vanish), UGAL-L re-balances around the holes and climbs back, and
// after the repair both return to the pre-fault rate — the acceptance
// bar is UGAL-L recovering to at least 95% of its pre-fault accepted
// throughput.
func Transient(s Scale) ([]*Figure, error) {
	fail, recov, end := s.TransientCycles()
	window := int64(s.Measure) / 8
	if window < 10 {
		window = 10
	}

	thr := &Figure{
		ID: "Transient (a)", Title: fmt.Sprintf("Accepted throughput through a fail-recover event (%.0f%% globals at cycle %d, repaired at %d), UR at %.2f load", 100*transientFailFraction, fail, recov, transientLoad),
		XLabel: "cycle", YLabel: "accepted load per window (flits/cycle/terminal)",
	}
	lat := &Figure{
		ID: "Transient (b)", Title: "Packet latency through the same fail-recover event",
		XLabel: "cycle", YLabel: "avg latency of packets ejected in window (cycles)",
	}

	algs := []core.Algorithm{core.AlgMIN, core.AlgUGALL}
	out := make([]transientSeries, len(algs))
	err := s.Pool().ForEach(len(algs), func(i int) error {
		var err error
		s.Pool().Work(func() {
			out[i], err = s.transientRun(algs[i], fail, recov, end, window)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", algs[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for i, alg := range algs {
		thr.Series = append(thr.Series, Series{Name: string(alg), X: out[i].x, Y: out[i].thr})
		lat.Series = append(lat.Series, Series{Name: string(alg), X: out[i].x, Y: out[i].lat})
		pre, during, post := transientPhaseMeans(out[i].x, out[i].thr, fail, recov, end)
		note := fmt.Sprintf("%s: accepted %.3f pre-fault, %.3f degraded, %.3f recovered (%.0f%% of pre-fault); %d packets killed in flight, %d rerouted, %d dropped",
			alg, pre, during, post, 100*post/pre, out[i].killed, out[i].rerouted, out[i].dropped)
		thr.Notes = append(thr.Notes, note)
	}
	thr.Notes = append(thr.Notes,
		"expected shape: both dip at the failure (in-flight packets on severed cables are destroyed, minimal paths vanish); UGAL-L re-balances around the holes; after the repair both recover the pre-fault rate")
	return []*Figure{thr, lat}, nil
}

// transientSeries is the windowed measurement of one algorithm's run
// through the timeline.
type transientSeries struct {
	x, thr, lat      []float64
	killed, rerouted int64
	dropped          int64
}

// transientRun runs one algorithm straight through the timeline and
// returns the windowed series, measured by the observability layer's
// windowed collector (the normalisation matches the old bespoke
// windowing exactly: accepted = ejections / (terminals * window), mean
// latency over the packets ejected in the window, 0 when none).
func (s Scale) transientRun(alg core.Algorithm, fail, recov, end, window int64) (series transientSeries, err error) {
	sys, err := s.evalSystem(16)
	if err != nil {
		return series, err
	}
	sched, err := fault.NewTimeline(transientFaultSeed).
		FailFractionAt(fail, topology.ClassGlobal, transientFailFraction).
		RecoverAllAt(recov).
		Compile(sys.Topo)
	if err != nil {
		return series, err
	}
	sys, err = sys.WithTimeline(sched)
	if err != nil {
		return series, err
	}
	net, err := sys.NewNetworkFor(alg, ur)
	if err != nil {
		return series, err
	}
	net.SetLoad(transientLoad)

	win := obs.NewWindows(obs.WindowsConfig{
		Width:     window,
		Terminals: sys.Topo.Nodes(),
	})
	net.AttachMetrics(win)
	for cyc := int64(1); cyc <= end; cyc++ {
		if err := net.Step(); err != nil {
			return series, err
		}
	}
	for _, w := range win.Windows() {
		series.x = append(series.x, float64(w.End))
		series.thr = append(series.thr, w.Accepted)
		series.lat = append(series.lat, w.LatencyMean)
	}
	series.killed = net.KilledInFlight()
	series.rerouted = net.Rerouted()
	series.dropped = net.Dropped()
	return series, nil
}

// transientPhaseMeans averages a windowed series over the three phases
// of the event: pristine steady state (the second half of the pre-fault
// interval, past the cold-start ramp), the degraded interval, and the
// recovered steady state (the final pre-fault-sized slice of the run,
// well past the repair transient).
func transientPhaseMeans(x, y []float64, fail, recov, end int64) (pre, during, post float64) {
	mean := func(lo, hi float64) float64 {
		sum, n := 0.0, 0
		for i := range x {
			if x[i] > lo && x[i] <= hi {
				sum += y[i]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	pre = mean(float64(fail)/2, float64(fail))
	during = mean(float64(fail), float64(recov))
	post = mean(float64(end)-float64(fail)/2, float64(end))
	return pre, during, post
}
