package experiments

import (
	"fmt"
	"strings"
	"sync"

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

// ur and wc are the paper's two evaluation workloads: uniform random
// and worst-case traffic under Bernoulli injection.
var (
	ur = core.Workload{Traffic: "ur"}
	wc = core.Workload{Traffic: "wc"}
)

// urLoads and wcLoads are the sweep ranges of the routing figures.
func (s Scale) urLoads() []float64 { return s.loads(0.1, 0.95, 0.1) }
func (s Scale) wcLoads() []float64 { return s.loads(0.05, 0.5, 0.05) }

// curve is one latency-load sweep on the evaluation machine. Figures 8,
// 10, 11, 14 and 16 are drawn from curves, and several of them plot the
// same one. The loads follow from the traffic: urLoads or wcLoads.
type curve struct {
	buf     int
	alg     core.Algorithm
	traffic string
}

// points returns c's load points, stopping two points after saturation
// like the paper's plots. A scale with a curve table (Runner.scaled)
// runs each curve at most once: later callers of the same curve wait on
// the first caller's run outside the pool, so a waiter never holds a
// worker slot.
func (s Scale) points(c curve) ([]core.SweepPoint, error) {
	run := func() ([]core.SweepPoint, error) {
		sys, err := s.evalSystem(c.buf)
		if err != nil {
			return nil, err
		}
		loads := s.urLoads()
		if c.traffic == "wc" {
			loads = s.wcLoads()
		}
		pts, err := sys.SweepPoolW(s.Pool(), c.alg, core.Workload{Traffic: c.traffic}, loads, s.runCfg(), 2)
		if err != nil {
			return nil, fmt.Errorf("%s/%s/buf%d: %w", c.alg, c.traffic, c.buf, err)
		}
		return pts, nil
	}
	if s.curves == nil {
		return run()
	}
	once, _ := s.curves.LoadOrStore(c, sync.OnceValues(run))
	return once.(func() ([]core.SweepPoint, error))()
}

// series reads one value per load point into a curve named name.
func series(name string, pts []core.SweepPoint, y func(*sim.Result) float64) Series {
	ser := Series{Name: name}
	for i := range pts {
		ser.X = append(ser.X, pts[i].Load)
		ser.Y = append(ser.Y, y(&pts[i].Result))
		ser.Saturated = append(ser.Saturated, pts[i].Result.Saturated)
	}
	return ser
}

func meanLatency(r *sim.Result) float64 { return r.Latency.Mean() }

// latencyFig is an empty latency-versus-offered-load plot.
func latencyFig(id, title string, notes ...string) *Figure {
	return &Figure{ID: id, Title: title, XLabel: "offered load", YLabel: "avg latency (cycles), * = saturated", Notes: notes}
}

// plot runs the curves of every figure concurrently on the scale's pool
// and gives figs[i] one mean-latency series per entry of curves[i], in
// order, each named by name.
func (s Scale) plot(figs []*Figure, curves [][]curve, name func(curve) string) ([]*Figure, error) {
	var all []curve
	for _, cs := range curves {
		all = append(all, cs...)
	}
	sers := make([]Series, len(all))
	err := s.Pool().ForEach(len(all), func(i int) error {
		pts, err := s.points(all[i])
		sers[i] = series(name(all[i]), pts, meanLatency)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, cs := range curves {
		figs[i].Series, sers = sers[:len(cs):len(cs)], sers[len(cs):]
	}
	return figs, nil
}

// algCurves is one curve per algorithm at one buffer depth and traffic.
func algCurves(buf int, traffic string, algs ...core.Algorithm) []curve {
	cs := make([]curve, len(algs))
	for i, alg := range algs {
		cs[i] = curve{buf, alg, traffic}
	}
	return cs
}

func algName(c curve) string { return string(c.alg) }

// Fig08 reproduces Figure 8: latency versus offered load for MIN, VAL,
// UGAL-G and UGAL-L under (a) uniform random and (b) worst-case traffic.
func Fig08(s Scale) ([]*Figure, error) {
	algs := []core.Algorithm{core.AlgMIN, core.AlgVAL, core.AlgUGALG, core.AlgUGALL}
	return s.plot([]*Figure{
		latencyFig("Figure 8(a)", "Routing comparison, uniform random traffic",
			"expected shape: MIN and both UGALs reach near-unit throughput; VAL saturates near 0.5 with ~2x zero-load latency"),
		latencyFig("Figure 8(b)", "Routing comparison, worst-case traffic",
			"expected shape: MIN saturates at 1/(a*h); VAL and UGAL-G reach ~0.5; UGAL-L suffers high latency at intermediate load"),
	}, [][]curve{algCurves(16, "ur", algs...), algCurves(16, "wc", algs...)}, algName)
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
	algs := []core.Algorithm{core.AlgUGALL, core.AlgUGALLVC, core.AlgUGALLVCH, core.AlgUGALG}
	return s.plot([]*Figure{
		latencyFig("Figure 10(a)", "UGAL-L_VC variants, uniform random traffic",
			"expected shape: UGAL-L_VC loses throughput on UR (per-VC queues misjudge balanced traffic); the hybrid UGAL-L_VCH restores it"),
		latencyFig("Figure 10(b)", "UGAL-L_VC variants, worst-case traffic",
			"expected shape: both VC variants match UGAL-G's WC throughput and cut UGAL-L's intermediate latency"),
	}, [][]curve{algCurves(16, "ur", algs...), algCurves(16, "wc", algs...)}, algName)
}

// Fig11 reproduces Figure 11: minimally- versus non-minimally-routed
// packet latency under UGAL-L and WC traffic, with 16- and 256-flit
// input buffers. Each depth reads the UGAL-L WC curve up to its first
// saturated point, where the paper's plot stops.
func Fig11(s Scale) ([]*Figure, error) {
	bufs := []int{16, 256}
	out := make([]*Figure, len(bufs))
	err := s.Pool().ForEach(len(bufs), func(bi int) error {
		pts, err := s.points(curve{bufs[bi], core.AlgUGALL, "wc"})
		if err != nil {
			return err
		}
		for i := range pts {
			if pts[i].Result.Saturated {
				pts = pts[:i+1]
				break
			}
		}
		f := latencyFig(fmt.Sprintf("Figure 11 (buffers=%d)", bufs[bi]), "UGAL-L WC latency split by routing decision",
			"expected shape: non-minimal packets track UGAL-G latency while minimal packets pay the buffer-filling penalty, which grows with buffer depth")
		f.Series = []Series{
			series("minimal pkts", pts, func(r *sim.Result) float64 { return r.MinLatency.Mean() }),
			series("non-minimal", pts, func(r *sim.Result) float64 { return r.NonminLatency.Mean() }),
			series("average", pts, meanLatency),
		}
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
// and lower intermediate latency.
func Fig14(s Scale) (*Figure, error) {
	var cs []curve
	for _, buf := range []int{4, 8, 16, 32, 64} {
		cs = append(cs, curve{buf, core.AlgUGALL, "wc"})
	}
	figs, err := s.plot([]*Figure{latencyFig("Figure 14", "UGAL-L WC latency vs input buffer depth",
		"expected shape: intermediate latency grows with buffer depth; very shallow buffers trade throughput for stiffness"),
	}, [][]curve{cs}, func(c curve) string { return fmt.Sprintf("buffers=%d", c.buf) })
	if err != nil {
		return nil, err
	}
	return figs[0], nil
}

// Fig16 reproduces Figure 16: UGAL-L_CR (credit round-trip latency)
// against UGAL-L_VCH and UGAL-G on WC and UR traffic with 16- and
// 256-flit buffers.
func Fig16(s Scale) ([]*Figure, error) {
	var figs []*Figure
	var curves [][]curve
	for _, traffic := range []string{"wc", "ur"} {
		for _, buf := range []int{16, 256} {
			f := latencyFig(fmt.Sprintf("Figure 16 (%s, buffers=%d)", strings.ToUpper(traffic), buf), "Credit round-trip latency mechanism")
			if traffic == "wc" {
				f.Notes = []string{"expected shape: UGAL-L_CR cuts the minimal-packet latency hump and is buffer-size independent"}
			}
			figs = append(figs, f)
			curves = append(curves, algCurves(buf, traffic, core.AlgUGALLVCH, core.AlgUGALLCR, core.AlgUGALG))
		}
	}
	return s.plot(figs, curves, algName)
}
