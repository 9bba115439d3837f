package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// evalSystem builds the evaluation machine: the paper's 1K-node network
// (p=h=4, a=8, 1056 terminals) or the 72-node example under Scale.Small.
func (s Scale) evalSystem(bufDepth int) (*core.System, error) {
	cfg := core.SystemConfig{P: 4, A: 8, H: 4, BufDepth: bufDepth}
	if s.Small {
		cfg = core.SystemConfig{P: 2, A: 4, H: 2, BufDepth: bufDepth}
	}
	return core.NewSystem(cfg)
}

func (s Scale) runCfg() sim.RunConfig {
	return sim.RunConfig{
		WarmupCycles:  s.Warmup,
		MeasureCycles: s.Measure,
		DrainCycles:   s.Drain,
		StallLimit:    s.StallLimit,
	}
}

// sweep runs a latency-load curve for one algorithm/workload pair,
// stopping two points after saturation like the paper's plots. The load
// points run on the scale's worker pool.
func (s Scale) sweep(sys *core.System, alg core.Algorithm, wl core.Workload, loads []float64) (Series, error) {
	ser := Series{Name: string(alg)}
	points, err := sys.SweepPoolW(s.Pool(), alg, wl, loads, s.runCfg(), 2)
	if err != nil {
		return ser, err
	}
	for _, p := range points {
		ser.X = append(ser.X, p.Load)
		ser.Y = append(ser.Y, p.Result.Latency.Mean())
		ser.Saturated = append(ser.Saturated, p.Result.Saturated)
	}
	return ser, nil
}

// ur and wc are the paper's two evaluation workloads: uniform random
// and worst-case traffic under Bernoulli injection.
var (
	ur = core.Workload{Traffic: "ur"}
	wc = core.Workload{Traffic: "wc"}
)

// urLoads and wcLoads are the sweep ranges of Figures 8, 10 and 16.
func (s Scale) urLoads() []float64 { return s.loads(0.1, 0.95, 0.1) }
func (s Scale) wcLoads() []float64 { return s.loads(0.05, 0.5, 0.05) }

// patternCases are the UR/WC halves shared by Figures 8 and 10.
func (s Scale) patternCases() []struct {
	wl    core.Workload
	loads []float64
} {
	return []struct {
		wl    core.Workload
		loads []float64
	}{
		{ur, s.urLoads()},
		{wc, s.wcLoads()},
	}
}

// routingComparison fills the two UR/WC figures with one series per
// algorithm. Every (pattern, algorithm) series is an independent job and
// they all run concurrently on the scale's pool; series order within
// each figure stays the caller's algorithm order.
func (s Scale) routingComparison(sys *core.System, algs []core.Algorithm, out []*Figure) error {
	cases := s.patternCases()
	type job struct {
		fig int
		alg core.Algorithm
	}
	var jobs []job
	for i := range cases {
		for _, alg := range algs {
			jobs = append(jobs, job{fig: i, alg: alg})
		}
	}
	sers := make([]Series, len(jobs))
	err := s.Pool().ForEach(len(jobs), func(k int) error {
		j := jobs[k]
		ser, err := s.sweep(sys, j.alg, cases[j.fig].wl, cases[j.fig].loads)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", j.alg, cases[j.fig].wl.Label(), err)
		}
		sers[k] = ser
		return nil
	})
	if err != nil {
		return err
	}
	for k, j := range jobs {
		out[j.fig].Series = append(out[j.fig].Series, sers[k])
	}
	return nil
}

// Fig08 reproduces Figure 8: latency versus offered load for MIN, VAL,
// UGAL-G and UGAL-L under (a) uniform random and (b) worst-case traffic.
func Fig08(s Scale) ([]*Figure, error) {
	sys, err := s.evalSystem(16)
	if err != nil {
		return nil, err
	}
	algs := []core.Algorithm{core.AlgMIN, core.AlgVAL, core.AlgUGALG, core.AlgUGALL}
	out := []*Figure{
		{ID: "Figure 8(a)", Title: "Routing comparison, uniform random traffic", XLabel: "offered load", YLabel: "avg latency (cycles), * = saturated"},
		{ID: "Figure 8(b)", Title: "Routing comparison, worst-case traffic", XLabel: "offered load", YLabel: "avg latency (cycles), * = saturated"},
	}
	if err := s.routingComparison(sys, algs, out); err != nil {
		return nil, err
	}
	out[0].Notes = append(out[0].Notes,
		"expected shape: MIN and both UGALs reach near-unit throughput; VAL saturates near 0.5 with ~2x zero-load latency")
	out[1].Notes = append(out[1].Notes,
		"expected shape: MIN saturates at 1/(a*h); VAL and UGAL-G reach ~0.5; UGAL-L suffers high latency at intermediate load")
	return out, nil
}

// Fig09 reproduces Figure 9: per-channel utilisation of a group's global
// channels under worst-case traffic at load 0.2, UGAL-L versus UGAL-G.
// Channel 0 is the minimal channel; channels 1..h-1 share its router.
func Fig09(s Scale) (*Figure, error) {
	sys, err := s.evalSystem(16)
	if err != nil {
		return nil, err
	}
	d := sys.Topo.(*topology.Dragonfly) // evalSystem builds the canonical dragonfly
	f := &Figure{
		ID:     "Figure 9",
		Title:  "Global channel utilisation, WC traffic at load 0.2",
		XLabel: "global channel",
		YLabel: "utilisation",
	}
	algs := []core.Algorithm{core.AlgUGALL, core.AlgUGALG}
	sers := make([]Series, len(algs))
	err = s.Pool().ForEach(len(algs), func(ai int) error {
		alg := algs[ai]
		net, err := sys.NewNetworkFor(alg, wc)
		if err != nil {
			return err
		}
		ser := Series{Name: string(alg)}
		var stepErr error
		s.Pool().Work(func() {
			net.SetLoad(0.2)
			for i := 0; i < s.Warmup && stepErr == nil; i++ {
				stepErr = net.Step()
			}
			util := metrics.NewChannelUtil(net.NumLinks())
			net.AttachMetrics(util)
			for i := 0; i < s.Measure && stepErr == nil; i++ {
				stepErr = net.Step()
			}
			net.AttachMetrics(nil)
			if stepErr != nil {
				return
			}
			// Slot c of every group leads to group (g+1+c mod (g-1)); slot 0
			// is the minimal channel for the WC pattern. Average per slot
			// across groups.
			tab := d.Paths()
			for c := 0; c < d.A*d.H; c++ {
				var busy int64
				for grp := 0; grp < d.G; grp++ {
					s := tab.Slot(grp, c)
					busy += util.Busy(net.LinkID(grp*d.A+int(s.Owner), int(s.Port)))
				}
				ser.X = append(ser.X, float64(c))
				ser.Y = append(ser.Y, float64(busy)/float64(d.G)/float64(s.Measure))
			}
		})
		if stepErr != nil {
			return fmt.Errorf("%s: %w", alg, stepErr)
		}
		sers[ai] = ser
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.Series = sers
	f.Notes = append(f.Notes,
		"channel 0 is the minimal channel; 1..h-1 share its router",
		"expected shape: UGAL-G loads the minimal channel hardest and balances the rest evenly; UGAL-L under-uses the non-minimal channels sharing the minimal channel's router")
	return f, nil
}

// Fig10 reproduces Figure 10: the UGAL-L_VC and UGAL-L_VCH variants
// against UGAL-L and UGAL-G on (a) uniform random and (b) worst-case
// traffic.
func Fig10(s Scale) ([]*Figure, error) {
	sys, err := s.evalSystem(16)
	if err != nil {
		return nil, err
	}
	algs := []core.Algorithm{core.AlgUGALL, core.AlgUGALLVC, core.AlgUGALLVCH, core.AlgUGALG}
	out := []*Figure{
		{ID: "Figure 10(a)", Title: "UGAL-L_VC variants, uniform random traffic", XLabel: "offered load", YLabel: "avg latency (cycles), * = saturated"},
		{ID: "Figure 10(b)", Title: "UGAL-L_VC variants, worst-case traffic", XLabel: "offered load", YLabel: "avg latency (cycles), * = saturated"},
	}
	if err := s.routingComparison(sys, algs, out); err != nil {
		return nil, err
	}
	out[0].Notes = append(out[0].Notes,
		"expected shape: UGAL-L_VC loses throughput on UR (per-VC queues misjudge balanced traffic); the hybrid UGAL-L_VCH restores it")
	out[1].Notes = append(out[1].Notes,
		"expected shape: both VC variants match UGAL-G's WC throughput and cut UGAL-L's intermediate latency")
	return out, nil
}

// Fig11 reproduces Figure 11: minimally- versus non-minimally-routed
// packet latency under UGAL-L and WC traffic, with 16- and 256-flit
// input buffers. The two buffer depths run concurrently, and each
// depth's load points fan out through the sweep engine (stopping one
// point after saturation, like the paper's plot).
func Fig11(s Scale) ([]*Figure, error) {
	bufs := []int{16, 256}
	out := make([]*Figure, len(bufs))
	err := s.Pool().ForEach(len(bufs), func(bi int) error {
		buf := bufs[bi]
		sys, err := s.evalSystem(buf)
		if err != nil {
			return err
		}
		pts, err := sys.SweepPoolW(s.Pool(), core.AlgUGALL, wc, s.wcLoads(), s.runCfg(), 1)
		if err != nil {
			return err
		}
		f := &Figure{
			ID:     fmt.Sprintf("Figure 11 (buffers=%d)", buf),
			Title:  "UGAL-L WC latency split by routing decision",
			XLabel: "offered load",
			YLabel: "avg latency (cycles), * = saturated",
		}
		min := Series{Name: "minimal pkts"}
		nonmin := Series{Name: "non-minimal"}
		avg := Series{Name: "average"}
		for _, p := range pts {
			min.X = append(min.X, p.Load)
			min.Y = append(min.Y, p.Result.MinLatency.Mean())
			min.Saturated = append(min.Saturated, p.Result.Saturated)
			nonmin.X = append(nonmin.X, p.Load)
			nonmin.Y = append(nonmin.Y, p.Result.NonminLatency.Mean())
			nonmin.Saturated = append(nonmin.Saturated, p.Result.Saturated)
			avg.X = append(avg.X, p.Load)
			avg.Y = append(avg.Y, p.Result.Latency.Mean())
			avg.Saturated = append(avg.Saturated, p.Result.Saturated)
		}
		f.Series = []Series{min, nonmin, avg}
		f.Notes = append(f.Notes,
			"expected shape: non-minimal packets track UGAL-G latency while minimal packets pay the buffer-filling penalty, which grows with buffer depth")
		out[bi] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig12 reproduces Figure 12: the latency histogram at offered load 0.25
// under UGAL-L and WC traffic, for 16- and 256-flit buffers — the
// bimodal distribution whose slow mode is the minimally-routed packets.
func Fig12(s Scale) ([]*Figure, error) {
	bufs := []int{16, 256}
	out := make([]*Figure, len(bufs))
	err := s.Pool().ForEach(len(bufs), func(bi int) error {
		buf := bufs[bi]
		sys, err := s.evalSystem(buf)
		if err != nil {
			return err
		}
		rc := s.runCfg()
		rc.Histogram = true
		rc.HistWidth = 4
		var res sim.Result
		var rerr error
		s.Pool().Work(func() {
			res, rerr = sys.RunW(core.AlgUGALL, wc, 0.25, rc)
		})
		if rerr != nil {
			return rerr
		}
		f := &Figure{
			ID:     fmt.Sprintf("Figure 12 (buffers=%d)", buf),
			Title:  fmt.Sprintf("Latency distribution at load 0.25 (avg=%.1f)", res.Latency.Mean()),
			XLabel: "latency (cycles)",
			YLabel: "fraction of packets",
		}
		all := Series{Name: "all packets"}
		minimal := Series{Name: "minimal pkts"}
		buckets := res.Hist.Buckets()
		minBuckets := res.MinHist.Buckets()
		for i := range buckets {
			x := float64(int64(i) * res.Hist.Width)
			if frac := res.Hist.Fraction(i); frac > 0.0005 {
				all.X = append(all.X, x)
				all.Y = append(all.Y, frac)
			}
			if i < len(minBuckets) && minBuckets[i] > 0 {
				minimal.X = append(minimal.X, x)
				minimal.Y = append(minimal.Y, float64(minBuckets[i])/float64(res.Hist.Total()))
			}
		}
		f.Series = []Series{all, minimal}
		f.Notes = append(f.Notes,
			fmt.Sprintf("minimal packets: %.1f%% of traffic, mean latency %.1f vs %.1f overall",
				100*res.MinimalFraction, res.MinLatency.Mean(), res.Latency.Mean()))
		out[bi] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig14 reproduces Figure 14: UGAL-L latency under WC traffic as the
// input buffer depth varies — shallower buffers give stiffer backpressure
// and lower intermediate latency. All five depth series run concurrently.
func Fig14(s Scale) (*Figure, error) {
	f := &Figure{
		ID:     "Figure 14",
		Title:  "UGAL-L WC latency vs input buffer depth",
		XLabel: "offered load",
		YLabel: "avg latency (cycles), * = saturated",
	}
	bufs := []int{4, 8, 16, 32, 64}
	sers := make([]Series, len(bufs))
	err := s.Pool().ForEach(len(bufs), func(bi int) error {
		sys, err := s.evalSystem(bufs[bi])
		if err != nil {
			return err
		}
		ser, err := s.sweep(sys, core.AlgUGALL, wc, s.wcLoads())
		if err != nil {
			return err
		}
		ser.Name = fmt.Sprintf("buffers=%d", bufs[bi])
		sers[bi] = ser
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.Series = sers
	f.Notes = append(f.Notes,
		"expected shape: intermediate latency grows with buffer depth; very shallow buffers trade throughput for stiffness")
	return f, nil
}

// Fig16 reproduces Figure 16: UGAL-L_CR (credit round-trip latency)
// against UGAL-L_VCH and UGAL-G on WC and UR traffic with 16- and
// 256-flit buffers. All twelve (pattern, buffer, algorithm) series are
// independent jobs running concurrently.
func Fig16(s Scale) ([]*Figure, error) {
	algs := []core.Algorithm{core.AlgUGALLVCH, core.AlgUGALLCR, core.AlgUGALG}
	cases := []struct {
		pattern string
		wl      core.Workload
		buf     int
		loads   []float64
	}{
		{"WC", wc, 16, s.wcLoads()},
		{"WC", wc, 256, s.wcLoads()},
		{"UR", ur, 16, s.urLoads()},
		{"UR", ur, 256, s.urLoads()},
	}
	out := make([]*Figure, len(cases))
	systems := make([]*core.System, len(cases))
	for i, tc := range cases {
		sys, err := s.evalSystem(tc.buf)
		if err != nil {
			return nil, err
		}
		systems[i] = sys
		out[i] = &Figure{
			ID:     fmt.Sprintf("Figure 16 (%s, buffers=%d)", tc.pattern, tc.buf),
			Title:  "Credit round-trip latency mechanism",
			XLabel: "offered load",
			YLabel: "avg latency (cycles), * = saturated",
		}
		if tc.pattern == "WC" {
			out[i].Notes = append(out[i].Notes,
				"expected shape: UGAL-L_CR cuts the minimal-packet latency hump and is buffer-size independent")
		}
	}
	type job struct {
		fig int
		alg core.Algorithm
	}
	var jobs []job
	for i := range cases {
		for _, alg := range algs {
			jobs = append(jobs, job{fig: i, alg: alg})
		}
	}
	sers := make([]Series, len(jobs))
	err := s.Pool().ForEach(len(jobs), func(k int) error {
		j := jobs[k]
		tc := cases[j.fig]
		ser, err := s.sweep(systems[j.fig], j.alg, tc.wl, tc.loads)
		if err != nil {
			return fmt.Errorf("%s/%s/buf%d: %w", j.alg, tc.pattern, tc.buf, err)
		}
		sers[k] = ser
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, j := range jobs {
		out[j.fig].Series = append(out[j.fig].Series, sers[k])
	}
	return out, nil
}
