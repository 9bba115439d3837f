// dfly-sim runs a single dragonfly simulation and prints its
// measurements: latency (average and split by routing decision),
// accepted throughput, and saturation state. With -sweep it runs a
// whole latency-load curve instead, fanning the load points over -jobs
// workers (the results are bit-identical for every worker count).
//
// Fault injection: -fail-global fails random global channels (a
// fraction below 1, a count at or above 1), -fail-routers fails whole
// routers by id, and -fail-seed picks which channels die. Routing
// detours around the holes; truly unreachable packets are dropped and
// reported. -fault-timeline schedules transient fail/recover events at
// simulation cycles instead of a standing plan.
//
// Observability: -json replaces the text output with one versioned
// JSON report (schema_version inside; informational prints move to
// stderr). -window W adds a windowed time series (accepted rate,
// latency, per-class utilization, VC-occupancy heatmap) to the report,
// and -trace N samples ~1/N packets into per-hop trace records
// (-trace-buf bounds the ring, -trace-seed picks the sample). The
// series and trace flags need -json and a single run, not -sweep.
//
// Checkpointing: -checkpoint FILE writes a resumable dfly-snap/1
// snapshot of the complete run state (engine and measurement
// accumulators) to FILE every -checkpoint-every cycles, atomically
// replacing the previous one; -resume FILE restarts a killed run from
// such a file and finishes bit-identical to a run that was never
// interrupted, even at a different -shards value. Both apply to a
// single run (not -sweep) and exclude -window/-trace, whose collector
// state is not part of a snapshot.
//
// Exit codes: 0 on success, 1 on bad flags or configuration — or when
// the -json report cannot be encoded and written (a closed stdout pipe
// included: SIGPIPE is ignored so the write error surfaces, with
// diagnostics on stderr, instead of killing the process mid-stream); 2
// when the deadlock detector stalls the run (diagnostics are printed);
// 3 when the run completes but unroutable drops dominate the delivered
// traffic; 4 when SIGINT/SIGTERM interrupts the run — the engine stops
// at the next cycle-batch checkpoint and partial diagnostics (phase,
// cycle reached, packets in flight) go to stderr.
//
// Usage:
//
//	dfly-sim -alg UGAL-L_VCH -pattern WC -load 0.3 -p 4 -a 8 -h 4 -buf 16
//	dfly-sim -topology swapped -topo-params "p=2,k=8" -alg MIN -load 0.2
//	dfly-sim -topology dragonflyplus -topo-params "p=2,leaves=4,spines=4,h=2" -sweep 0.1:0.9:0.1
//	dfly-sim -alg UGAL-L -pattern WC -sweep 0.05:0.5:0.05 -jobs 4
//	dfly-sim -alg UGAL-L -fail-global 0.1 -fail-seed 7 -sweep 0.1:0.9:0.1
//	dfly-sim -alg UGAL-L -fault-timeline "@2000 fail global=0.25; @8000 recover all"
//	dfly-sim -alg UGAL-L -load 0.4 -json -window 250 -trace 64 > run.json
//	dfly-sim -alg UGAL-L -load 0.4 -checkpoint run.snap -checkpoint-every 5000
//	dfly-sim -alg UGAL-L -load 0.4 -resume run.snap
//	dfly-sim -alg UGAL-L -traffic hotspot -traffic-params "hot=4,pct=25" -load 0.2
//	dfly-sim -alg UGAL-L -workload onoff -workload-params "on=50,off=450,pareto=1" -load 0.3
//	dfly-sim -alg UGAL-L -workload trace -trace-file flows.txt -load 0
//
// Workloads: -traffic selects a parameterised traffic family from the
// registry (where packets go) and -workload an arrival process (when
// packets are offered) — Bernoulli by default, ON/OFF bursty, drifting
// hot-spot, collective phases, or replay of a "cycle src dst count"
// flow trace via -trace-file. Arrival-process state rides in
// checkpoints, so -checkpoint/-resume stay bit-identical under any
// workload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/metrics"
	"dragonfly/internal/obs"
	"dragonfly/internal/parallel"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
	"dragonfly/internal/workload"
)

// The exit-code contract (documented in the package comment): distinct
// non-zero codes let scripts tell a misconfiguration from a wedged
// simulation from a run that technically finished but lost most of its
// traffic to unroutable drops.
const (
	exitBadConfig  = 1
	exitStalled    = 2
	exitUnroutable = 3
	exitCanceled   = 4
)

func main() {
	var (
		algName = flag.String("alg", "UGAL-L_VCH", "routing algorithm (MIN, VAL, UGAL-L, UGAL-G, UGAL-L_VC, UGAL-L_VCH, UGAL-L_CR)")
		pattern = flag.String("pattern", "UR", "traffic pattern (UR, WC, BitComplement, Tornado, Permutation)")
		trafFam = flag.String("traffic", "", "traffic family from the registry instead of the -pattern enum: "+strings.Join(traffic.Families.Names(), ", "))
		trafPar = flag.String("traffic-params", "", `build parameters for -traffic as "k=v,k=v" (omitted keys take the family defaults)`)
		wlFam   = flag.String("workload", "", "arrival-process family (default: bernoulli): "+strings.Join(workload.Families.Names(), ", "))
		wlPar   = flag.String("workload-params", "", `build parameters for -workload as "k=v,k=v"`)
		wlTrace = flag.String("trace-file", "", `flow trace file for -workload trace (lines of "cycle src dst count")`)
		load    = flag.Float64("load", 0.3, "offered load in flits/cycle/terminal")
		p       = flag.Int("p", 4, "terminals per router")
		a       = flag.Int("a", 8, "routers per group")
		h       = flag.Int("h", 4, "global channels per router")
		groups  = flag.Int("g", 0, "groups (0 = maximal a*h+1)")
		family  = flag.String("topology", "", "topology family instead of the canonical dragonfly: "+strings.Join(topology.Families.Names(), ", "))
		fparams = flag.String("topo-params", "", `build parameters for -topology as "k=v,k=v" (omitted keys take the family defaults; exclusive with -p/-a/-h/-g)`)
		buf     = flag.Int("buf", 16, "input buffer depth per VC (flits)")
		warmup  = flag.Int("warmup", 3000, "warm-up cycles")
		measure = flag.Int("measure", 2000, "measurement cycles")
		drain   = flag.Int("drain", 20000, "drain cycle cap")
		seed    = flag.Uint64("seed", 1, "random seed")
		hist    = flag.Bool("hist", false, "print the latency histogram")
		sweep   = flag.String("sweep", "", "run a load sweep from:to:step (e.g. 0.1:0.9:0.1) instead of a single load")
		jobs    = flag.Int("jobs", 0, "concurrent simulations for -sweep (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 0, "engine shards per simulation, clamped to the group count; results are bit-identical for every value (0 = serial)")

		checkpoint      = flag.String("checkpoint", "", "write a resumable checkpoint to this file every -checkpoint-every cycles (atomically replaced; single runs only)")
		checkpointEvery = flag.Int64("checkpoint-every", 5000, "cycles between -checkpoint snapshots")
		resume          = flag.String("resume", "", "resume a killed run from a -checkpoint file instead of starting at cycle 0")

		jsonOut   = flag.Bool("json", false, "emit one versioned JSON report instead of text output")
		window    = flag.Int64("window", 0, "with -json: collect a windowed time series, W cycles per window")
		trace     = flag.Int("trace", 0, "with -json: sample ~1/N packets into per-hop trace records")
		traceBuf  = flag.Int("trace-buf", 0, "trace ring capacity in hop records (0 = 4096)")
		traceSeed = flag.Uint64("trace-seed", 0, "seed selecting which packets -trace samples")

		failGlobal    = flag.Float64("fail-global", 0, "fail random global channels: a fraction if < 1, a count if >= 1")
		failRouters   = flag.String("fail-routers", "", "fail whole routers: comma-separated router ids")
		failSeed      = flag.Uint64("fail-seed", 1, "seed for the random fault draws")
		faultTimeline = flag.String("fault-timeline", "", `transient fault schedule: ";"-separated "@CYCLE fail|recover ARGS" events (e.g. "@2000 fail global=0.25; @8000 recover all"); random draws use -fail-seed; exclusive with -fail-global/-fail-routers`)

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Writes to a closed stdout pipe (head, a dying consumer) must
	// surface as EPIPE from the JSON encoder — routed to the exit-code-1
	// path with diagnostics — not kill the process via SIGPIPE with the
	// report half-written and no error reported.
	signal.Ignore(syscall.SIGPIPE)

	// SIGINT/SIGTERM cancel the run's context instead of killing the
	// process: the engine stops at its next cycle-batch checkpoint and
	// the canceled-run path (exit code 4) reports how far it got. A
	// second signal kills hard, via NotifyContext's restore-on-stop.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	// In JSON mode stdout carries exactly one JSON document, so the
	// informational prints (fault plans, timeline epochs) move to stderr.
	info := io.Writer(os.Stdout)
	if *jsonOut {
		info = os.Stderr
	}
	if (*window != 0 || *trace != 0) && !*jsonOut {
		fatal(fmt.Errorf("-window/-trace produce report fields: add -json"))
	}
	if (*window != 0 || *trace != 0) && *sweep != "" {
		fatal(fmt.Errorf("-window/-trace apply to a single run, not -sweep"))
	}
	if *window < 0 || *trace < 0 || *traceBuf < 0 {
		fatal(fmt.Errorf("-window/-trace/-trace-buf want non-negative values"))
	}
	if (*checkpoint != "" || *resume != "") && *sweep != "" {
		fatal(fmt.Errorf("-checkpoint/-resume apply to a single run, not -sweep"))
	}
	if (*checkpoint != "" || *resume != "") && (*window != 0 || *trace != 0) {
		fatal(fmt.Errorf("-checkpoint/-resume cannot be combined with -window/-trace (collector state is not part of a snapshot)"))
	}
	if *checkpoint != "" && *checkpointEvery <= 0 {
		fatal(fmt.Errorf("-checkpoint-every %d: want a positive cycle interval", *checkpointEvery))
	}

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	wl, disp, err := buildWorkload(*pattern, *trafFam, *trafPar, *wlFam, *wlPar, *wlTrace)
	if err != nil {
		fatal(err)
	}
	scfg := core.SystemConfig{
		P: *p, A: *a, H: *h, Groups: *groups, BufDepth: *buf, Seed: *seed,
		Shards: *shards,
	}
	if *family != "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "p", "a", "h", "g":
				fatal(fmt.Errorf("-topology %s takes its parameters from -topo-params, not -%s", *family, f.Name))
			}
		})
		params, err := parseTopoParams(*fparams)
		if err != nil {
			fatal(err)
		}
		scfg.Topology, scfg.TopoParams = *family, params
		scfg.P, scfg.A, scfg.H, scfg.Groups = 0, 0, 0, 0
	} else if *fparams != "" {
		fatal(fmt.Errorf("-topo-params needs -topology"))
	}
	sys, err := core.NewSystem(scfg)
	if err != nil {
		fatal(err)
	}
	sys, err = applyFaults(info, sys, *failGlobal, *failRouters, *failSeed)
	if err != nil {
		fatal(err)
	}
	sys, err = applyTimeline(info, sys, *faultTimeline, *failGlobal, *failRouters, *failSeed)
	if err != nil {
		fatal(err)
	}
	if *wlTrace != "" {
		data, err := os.ReadFile(*wlTrace)
		if err != nil {
			fatal(fmt.Errorf("-trace-file: %w", err))
		}
		tr, err := workload.ParseTrace(data, sys.Topo.Nodes())
		if err != nil {
			fatal(fmt.Errorf("-trace-file %s: %w", *wlTrace, err))
		}
		fmt.Fprintf(info, "trace %s: %d flows over %d terminals (content hash %016x)\n",
			*wlTrace, tr.Flows(), tr.Terminals(), tr.Hash())
		wl.Trace = tr
	}

	rc := sim.RunConfig{
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		DrainCycles:   *drain,
		Histogram:     *hist,
	}

	if *sweep != "" {
		runSweep(ctx, sys, alg, wl, disp, *sweep, *jobs, rc, *jsonOut, *seed)
		return
	}

	// The observability collectors attach through run options and watch
	// the whole run, warm-up and drain included — a time series that
	// starts at the measurement phase would hide the ramp.
	opts := []core.RunOption{core.WithContext(ctx)}
	var win *obs.Windows
	var tr *obs.Tracer
	if *window > 0 {
		win = obs.NewWindows(obs.WindowsConfig{
			Width:       *window,
			Terminals:   sys.Topo.Nodes(),
			LinkClasses: sim.LinkClasses(sys.Topo),
		})
	}
	if *trace > 0 {
		tr = obs.NewTracer(*trace, *traceSeed, *traceBuf)
	}
	switch {
	case win != nil && tr != nil:
		opts = append(opts, core.WithCollector(metrics.Multi{win, tr}))
	case win != nil:
		opts = append(opts, core.WithCollector(win))
	case tr != nil:
		opts = append(opts, core.WithCollector(tr))
	}
	if *checkpoint != "" {
		rc.CheckpointEvery = *checkpointEvery
		rc.CheckpointSink = func(snap []byte) error {
			return writeFileAtomic(*checkpoint, snap)
		}
	}
	if *resume != "" {
		snap, err := os.ReadFile(*resume)
		if err != nil {
			fatal(fmt.Errorf("-resume: %w", err))
		}
		opts = append(opts, core.WithResume(snap))
	}

	if !*jsonOut {
		fmt.Printf("simulating %v, %s routing, %s traffic, load %.3f\n", sys.Topo, alg, disp, *load)
	}
	res, err := sys.RunW(alg, wl, *load, rc, opts...)
	if err != nil {
		fatalRun(err)
	}

	if *jsonOut {
		rep := obs.NewReport("run")
		rep.Topology = fmt.Sprintf("%v", sys.Topo)
		rep.Algorithm = string(alg)
		rep.Pattern = disp
		rep.Seed = *seed
		rep.Points = []obs.Point{{Load: *load, Result: obs.MakeResult(res)}}
		if win != nil {
			rep.Windows = win.Windows()
		}
		if tr != nil {
			rep.Trace = tr.Records()
		}
		if err := writeReport(rep, os.Stdout); err != nil {
			fatal(err)
		}
		checkUnroutable(res.Dropped, res.Latency.Count())
		return
	}

	fmt.Printf("offered load:      %.3f flits/cycle/terminal\n", res.Offered)
	fmt.Printf("accepted load:     %.3f flits/cycle/terminal\n", res.Accepted)
	fmt.Printf("avg latency:       %.1f cycles (%d packets measured)\n", res.Latency.Mean(), res.Latency.Count())
	if res.MinLatency.Count() > 0 {
		fmt.Printf("  minimal pkts:    %.1f cycles (%.1f%% of traffic)\n", res.MinLatency.Mean(), 100*res.MinimalFraction)
	}
	if res.NonminLatency.Count() > 0 {
		fmt.Printf("  non-minimal:     %.1f cycles\n", res.NonminLatency.Mean())
	}
	fmt.Printf("latency p99:       %.0f cycles (max %.0f)\n", pctl(res), res.Latency.Max())
	fmt.Printf("saturated:         %v\n", res.Saturated)
	fmt.Printf("simulated cycles:  %d\n", res.Cycles)
	if sys.Timeline() != nil {
		fmt.Printf("killed in flight:  %d packets (on channels severed by the timeline)\n", res.KilledInFlight)
		fmt.Printf("rerouted:          %d packets (rescued off failing routers)\n", res.Rerouted)
		fmt.Printf("dropped packets:   %d (unroutable during degraded epochs)\n", res.Dropped)
	} else if sys.Degraded() != nil {
		fmt.Printf("dropped packets:   %d (unroutable under the fault plan)\n", res.Dropped)
	}
	if *hist && res.Hist != nil {
		fmt.Println("\nlatency histogram:")
		buckets := res.Hist.Buckets()
		for i, c := range buckets {
			if c == 0 {
				continue
			}
			fmt.Printf("  %4d-%-4d %7d %s\n",
				int64(i)*res.Hist.Width, (int64(i)+1)*res.Hist.Width-1, c, bar(res.Hist.Fraction(i)))
		}
	}
	checkUnroutable(res.Dropped, res.Latency.Count())
}

// applyTimeline parses the -fault-timeline spec, compiles it against
// the system's topology and attaches it. Exclusive with the static
// -fail-* flags: standing faults belong in the timeline's @0 events.
// Informational lines go to info (stderr in JSON mode).
func applyTimeline(info io.Writer, sys *core.System, spec string, failGlobal float64, failRouters string, failSeed uint64) (*core.System, error) {
	if spec == "" {
		return sys, nil
	}
	if failGlobal != 0 || failRouters != "" {
		return nil, fmt.Errorf("-fault-timeline cannot be combined with -fail-global/-fail-routers (schedule standing faults at @0 instead)")
	}
	tl, err := fault.ParseTimeline(spec, failSeed)
	if err != nil {
		return nil, err
	}
	sched, err := tl.Compile(sys.Topo)
	if err != nil {
		return nil, err
	}
	tsys, err := sys.WithTimeline(sched)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "fault timeline (seed %d): %d events compiled to %d epochs\n",
		failSeed, tl.Events(), len(sched.Epochs))
	for _, e := range sched.Epochs {
		r, g, l, tm := e.View.FaultCounts()
		fmt.Fprintf(info, "  @%-8d %d routers, %d global, %d local, %d terminal channels down; connected=%v\n",
			e.Start, r, g, l, tm, e.View.Connected())
	}
	return tsys, nil
}

// applyFaults builds a fault plan from the -fail-* flags and attaches it
// to the system. With no fault flags set the system is returned
// unchanged (pristine fast paths, bit-identical to earlier versions).
// Informational lines go to info (stderr in JSON mode).
func applyFaults(info io.Writer, sys *core.System, failGlobal float64, failRouters string, failSeed uint64) (*core.System, error) {
	if failGlobal == 0 && failRouters == "" {
		return sys, nil
	}
	if failGlobal < 0 {
		return nil, fmt.Errorf("-fail-global %g: want a fraction in [0,1) or a count >= 1", failGlobal)
	}
	plan := fault.NewPlan(failSeed)
	if failRouters != "" {
		for _, f := range strings.Split(failRouters, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("-fail-routers: bad router id %q: %w", f, err)
			}
			if id < 0 || id >= sys.Topo.Routers() {
				return nil, fmt.Errorf("-fail-routers: router %d out of range [0,%d)", id, sys.Topo.Routers())
			}
			plan.FailRouter(id)
		}
	}
	if failGlobal >= 1 {
		want := int(failGlobal + 0.5)
		got := plan.FailRandomChannels(sys.Topo, topology.ClassGlobal, want)
		if got < want {
			return nil, fmt.Errorf("-fail-global %d: only %d live global channels to fail", want, got)
		}
	} else if failGlobal > 0 {
		plan.FailFraction(sys.Topo, topology.ClassGlobal, failGlobal)
	}
	fsys := sys.WithFaults(plan)
	deg := fsys.Degraded()
	r, g, l, tm := deg.FaultCounts()
	fmt.Fprintf(info, "fault plan (seed %d): %d routers, %d global, %d local, %d terminal channels down; connected=%v, %d/%d terminals alive\n",
		failSeed, r, g, l, tm, deg.Connected(), deg.AliveTerminals(), sys.Topo.Nodes())
	return fsys, nil
}

// runSweep runs a latency-load curve on a worker pool and prints it as
// an aligned table (or one JSON report), stopping two points after
// saturation like the paper's plots.
func runSweep(ctx context.Context, sys *core.System, alg core.Algorithm, wl core.Workload, disp, spec string, jobs int, rc sim.RunConfig, jsonOut bool, seed uint64) {
	loads, err := parseSweep(spec)
	if err != nil {
		fatal(err)
	}
	pool := parallel.New(jobs)
	pool.SetLog(os.Stderr)
	if !jsonOut {
		fmt.Printf("sweeping %v, %s routing, %s traffic: %d load points on %d workers\n",
			sys.Topo, alg, disp, len(loads), pool.Jobs())
	}
	pts, err := sys.SweepPoolW(pool, alg, wl, loads, rc, 2, core.WithContext(ctx))
	if err != nil {
		fatalRun(err)
	}
	if jsonOut {
		rep := obs.NewReport("sweep")
		rep.Topology = fmt.Sprintf("%v", sys.Topo)
		rep.Algorithm = string(alg)
		rep.Pattern = disp
		rep.Seed = seed
		var dropped, delivered int64
		for _, p := range pts {
			rep.Points = append(rep.Points, obs.Point{Load: p.Load, Result: obs.MakeResult(p.Result)})
			dropped += p.Result.Dropped
			delivered += p.Result.Latency.Count()
		}
		if err := writeReport(rep, os.Stdout); err != nil {
			fatal(err)
		}
		checkUnroutable(dropped, delivered)
		return
	}
	timeline := sys.Timeline() != nil
	degraded := sys.Degraded() != nil || timeline
	switch {
	case timeline:
		fmt.Printf("%-10s %12s %12s %10s %10s %10s\n", "load", "latency", "accepted", "saturated", "dropped", "killed")
	case degraded:
		fmt.Printf("%-10s %12s %12s %10s %10s\n", "load", "latency", "accepted", "saturated", "dropped")
	default:
		fmt.Printf("%-10s %12s %12s %10s\n", "load", "latency", "accepted", "saturated")
	}
	var dropped, delivered int64
	for _, p := range pts {
		dropped += p.Result.Dropped
		delivered += p.Result.Latency.Count()
		mark := ""
		if p.Result.Saturated {
			mark = " *"
		}
		switch {
		case timeline:
			fmt.Printf("%-10.3f %12.1f %12.3f %10v %10d %10d%s\n",
				p.Load, p.Result.Latency.Mean(), p.Result.Accepted, p.Result.Saturated, p.Result.Dropped, p.Result.KilledInFlight, mark)
		case degraded:
			fmt.Printf("%-10.3f %12.1f %12.3f %10v %10d%s\n",
				p.Load, p.Result.Latency.Mean(), p.Result.Accepted, p.Result.Saturated, p.Result.Dropped, mark)
		default:
			fmt.Printf("%-10.3f %12.1f %12.3f %10v%s\n",
				p.Load, p.Result.Latency.Mean(), p.Result.Accepted, p.Result.Saturated, mark)
		}
	}
	checkUnroutable(dropped, delivered)
}

// buildWorkload resolves the traffic/workload flags into the Workload
// the run executes and the pattern string shown in reports. A -pattern
// spelling resolves to its registry family (traffic.LegacyFamily) and is
// shown as spelled; -traffic selects a registry family directly and
// excludes an explicit -pattern. The trace itself is parsed later, once
// the system (and with it the terminal count) exists.
func buildWorkload(pattern, trafFam, trafPar, wlFam, wlPar, traceFile string) (core.Workload, string, error) {
	var wl core.Workload
	disp := pattern
	if trafFam != "" {
		var clash error
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "pattern" {
				clash = fmt.Errorf("-traffic %s replaces -pattern; set one, not both", trafFam)
			}
		})
		if clash != nil {
			return wl, disp, clash
		}
		params, err := parseParams("-traffic-params", trafPar)
		if err != nil {
			return wl, disp, err
		}
		wl.Traffic, wl.TrafficParams = trafFam, params
	} else {
		if trafPar != "" {
			return wl, disp, fmt.Errorf("-traffic-params needs -traffic")
		}
		fam, err := traffic.LegacyFamily(pattern)
		if err != nil {
			return wl, disp, err
		}
		wl.Traffic = fam
	}
	if wlFam != "" {
		params, err := parseParams("-workload-params", wlPar)
		if err != nil {
			return wl, disp, err
		}
		wl.Source, wl.SourceParams = wlFam, params
	} else if wlPar != "" {
		return wl, disp, fmt.Errorf("-workload-params needs -workload")
	}
	isTrace := strings.EqualFold(wlFam, "trace")
	if traceFile != "" && !isTrace {
		return wl, disp, fmt.Errorf("-trace-file needs -workload trace")
	}
	if isTrace && traceFile == "" {
		return wl, disp, fmt.Errorf("-workload trace needs -trace-file")
	}
	if trafFam != "" || wlFam != "" {
		disp = wl.Label()
	}
	return wl, disp, nil
}

// parseTopoParams parses the -topo-params "k=v,k=v" list into the
// parameter map topology.Build consumes (key validation happens there,
// against the family's schema).
func parseTopoParams(spec string) (map[string]int, error) {
	return parseParams("-topo-params", spec)
}

// parseParams parses a "k=v,k=v" flag value into a parameter map (key
// validation happens in the registries, against the family's schema).
func parseParams(flagName, spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	params := map[string]int{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("%s: %q is not k=v", flagName, kv)
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return nil, fmt.Errorf("%s: bad value in %q: %w", flagName, kv, err)
		}
		params[strings.TrimSpace(k)] = n
	}
	return params, nil
}

// parseSweep parses a from:to:step load range.
func parseSweep(spec string) ([]float64, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-sweep wants from:to:step, got %q", spec)
	}
	var from, to, step float64
	for i, dst := range []*float64{&from, &to, &step} {
		if _, err := fmt.Sscanf(parts[i], "%g", dst); err != nil {
			return nil, fmt.Errorf("bad -sweep component %q: %w", parts[i], err)
		}
	}
	if step <= 0 || to < from {
		return nil, fmt.Errorf("-sweep range %q is empty (want from <= to, step > 0)", spec)
	}
	var loads []float64
	for x := from; x <= to+1e-9; x += step {
		loads = append(loads, float64(int(x*1000+0.5))/1000)
	}
	return loads, nil
}

func pctl(res sim.Result) float64 {
	if res.Hist != nil {
		return float64(res.Hist.Percentile(0.99))
	}
	return res.Latency.Max()
}

func bar(frac float64) string {
	n := int(frac * 200)
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// writeReport emits the JSON report to w, wrapping any encode or write
// failure with enough context to tell it apart from a configuration
// error. The caller routes the error to the exit-code-1 path; by then
// part of the document may already be on the stream, so the consumer
// must treat a non-zero exit as "discard the output" — which is why the
// diagnostics go to stderr, never into the (possibly truncated) report.
func writeReport(rep *obs.Report, w io.Writer) error {
	if err := rep.Write(w); err != nil {
		return fmt.Errorf("writing JSON report: %w", err)
	}
	return nil
}

// fatal reports a configuration-level failure (bad flags, bad
// topology/run parameters) and exits with the bad-config status.
// writeFileAtomic replaces path with data via a temp file in the same
// directory, fsync'd before the rename, so a -checkpoint file is always
// a complete snapshot from some cycle — never a torn write — even if
// the process dies mid-checkpoint.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfly-sim:", err)
	os.Exit(exitBadConfig)
}

// fatalRun reports a failed simulation run. A SIGINT/SIGTERM
// cancellation gets the canceled exit status with partial diagnostics
// (phase, cycle reached, packets abandoned in flight) on stderr; a
// deadlock-detector stall gets its own exit status plus a diagnostics
// dump (cycle, phase, active fault epoch, hottest input-buffer VCs) so
// a wedged run can be debugged from the output alone; everything else
// is a plain fatal.
func fatalRun(err error) {
	if errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dfly-sim: interrupted:", err)
		var ce *sim.CanceledError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "partial run diagnostics:\n  stopped in the %s phase at cycle %d, %d packets abandoned in flight\n",
				ce.Phase, ce.Cycle, ce.InFlight)
		}
		os.Exit(exitCanceled)
	}
	var se *sim.StallError
	if !errors.As(err, &se) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "dfly-sim:", err)
	fmt.Fprintln(os.Stderr, "stall diagnostics:")
	fmt.Fprintf(os.Stderr, "  cycle %d (%s phase): no flit moved for %d cycles, %d packets in flight\n",
		se.Cycle, se.Phase, se.StallLimit, se.InFlight)
	fmt.Fprintf(os.Stderr, "  epoch %d: %d routers, %d global / %d local / %d terminal channels dead\n",
		se.Epoch, se.DeadRouters, se.DeadGlobal, se.DeadLocal, se.DeadTerminal)
	for _, h := range se.Hot {
		fmt.Fprintf(os.Stderr, "  router %d port %d vc %d: %d flits buffered, %d packets waiting on the port\n",
			h.Router, h.Port, h.VC, h.Occupancy, h.Waiting)
	}
	os.Exit(exitStalled)
}

// checkUnroutable exits with the unroutable status when a completed
// run (or sweep) dropped at least as many packets as it delivered —
// the topology is so degraded that the results measure packet loss,
// not network performance.
func checkUnroutable(dropped, delivered int64) {
	if dropped == 0 || dropped < delivered {
		return
	}
	fmt.Fprintf(os.Stderr, "dfly-sim: unroutable drops dominate: %d packets dropped vs %d delivered\n",
		dropped, delivered)
	os.Exit(exitUnroutable)
}
