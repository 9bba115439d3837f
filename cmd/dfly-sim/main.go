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
// simulation cycles instead of a standing plan. -fail-seed 0 means 1,
// as -seed 0 does.
//
// One spec, two front doors: the machine, routing, traffic, workload,
// load, phase, seed, shard, timeline and window flags spell a dfly-serve
// job (serve.Submission), and dfly-sim normalizes and builds it through
// the service's own code, so one spec gives one -json report on both.
// -warmup 0 -measure 0 -drain 0 takes the service's defaults
// (3000/2000/30000). The other flags layer CLI-only extras on the
// built run.
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
	"dragonfly/internal/serve"
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
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stopSignals()
	os.Exit(code)
}

// run is the whole command: it parses args, runs what they describe
// under ctx, writes the output to stdout and stderr and returns the
// exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dfly-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algName = fs.String("alg", "UGAL-L_VCH", "routing algorithm (MIN, VAL, UGAL-L, UGAL-G, UGAL-L_VC, UGAL-L_VCH, UGAL-L_CR)")
		pattern = fs.String("pattern", "UR", "traffic pattern (UR, WC, BitComplement, Tornado, Permutation)")
		trafFam = fs.String("traffic", "", "traffic family from the registry instead of the -pattern enum: "+strings.Join(traffic.Families.Names(), ", "))
		trafPar = fs.String("traffic-params", "", `build parameters for -traffic as "k=v,k=v" (omitted keys take the family defaults)`)
		wlFam   = fs.String("workload", "", "arrival-process family (default: bernoulli): "+strings.Join(workload.Families.Names(), ", "))
		wlPar   = fs.String("workload-params", "", `build parameters for -workload as "k=v,k=v"`)
		wlTrace = fs.String("trace-file", "", `flow trace file for -workload trace (lines of "cycle src dst count")`)
		load    = fs.Float64("load", 0.3, "offered load in flits/cycle/terminal")
		p       = fs.Int("p", 4, "terminals per router")
		a       = fs.Int("a", 8, "routers per group")
		h       = fs.Int("h", 4, "global channels per router")
		groups  = fs.Int("g", 0, "groups (0 = maximal a*h+1)")
		family  = fs.String("topology", "", "topology family instead of the canonical dragonfly: "+strings.Join(topology.Families.Names(), ", "))
		fparams = fs.String("topo-params", "", `build parameters for -topology as "k=v,k=v" (omitted keys take the family defaults; exclusive with -p/-a/-h/-g)`)
		buf     = fs.Int("buf", 16, "input buffer depth per VC (flits)")
		warmup  = fs.Int("warmup", 3000, "warm-up cycles")
		measure = fs.Int("measure", 2000, "measurement cycles")
		drain   = fs.Int("drain", 20000, "drain cycle cap")
		seed    = fs.Uint64("seed", 1, "random seed")
		hist    = fs.Bool("hist", false, "print the latency histogram")
		sweep   = fs.String("sweep", "", "run a load sweep from:to:step (e.g. 0.1:0.9:0.1) instead of a single load")
		jobs    = fs.Int("jobs", 0, "concurrent simulations for -sweep (0 = GOMAXPROCS)")
		shards  = fs.Int("shards", 0, "engine shards per simulation, clamped to the group count; results are bit-identical for every value (0 = serial)")

		checkpoint      = fs.String("checkpoint", "", "write a resumable checkpoint to this file every -checkpoint-every cycles (atomically replaced; single runs only)")
		checkpointEvery = fs.Int64("checkpoint-every", 5000, "cycles between -checkpoint snapshots")
		resume          = fs.String("resume", "", "resume a killed run from a -checkpoint file instead of starting at cycle 0")

		jsonOut   = fs.Bool("json", false, "emit one versioned JSON report instead of text output")
		window    = fs.Int64("window", 0, "with -json: collect a windowed time series, W cycles per window")
		trace     = fs.Int("trace", 0, "with -json: sample ~1/N packets into per-hop trace records")
		traceBuf  = fs.Int("trace-buf", 0, "trace ring capacity in hop records (0 = 4096)")
		traceSeed = fs.Uint64("trace-seed", 0, "seed selecting which packets -trace samples")

		failGlobal    = fs.Float64("fail-global", 0, "fail random global channels: a fraction if < 1, a count if >= 1")
		failRouters   = fs.String("fail-routers", "", "fail whole routers: comma-separated router ids")
		failSeed      = fs.Uint64("fail-seed", 1, "seed for the random fault draws (0 means 1)")
		faultTimeline = fs.String("fault-timeline", "", `transient fault schedule: ";"-separated "@CYCLE fail|recover ARGS" events (e.g. "@2000 fail global=0.25; @8000 recover all"); random draws use -fail-seed; exclusive with -fail-global/-fail-routers`)

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dfly-sim:", err)
		return exitBadConfig
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				code = fail(err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				code = fail(err)
			}
		}()
	}

	// Flag combinations the spec cannot express are rejected here, by
	// flag name, before the spec is built.
	isTrace := strings.EqualFold(*wlFam, "trace")
	var clash string
	switch {
	case (*window != 0 || *trace != 0) && !*jsonOut:
		clash = "-window/-trace produce report fields: add -json"
	case (*window != 0 || *trace != 0) && *sweep != "":
		clash = "-window/-trace apply to a single run, not -sweep"
	case *window < 0 || *trace < 0 || *traceBuf < 0:
		clash = "-window/-trace/-trace-buf want non-negative values"
	case (*checkpoint != "" || *resume != "") && *sweep != "":
		clash = "-checkpoint/-resume apply to a single run, not -sweep"
	case (*checkpoint != "" || *resume != "") && (*window != 0 || *trace != 0):
		clash = "-checkpoint/-resume cannot be combined with -window/-trace (collector state is not part of a snapshot)"
	case *checkpoint != "" && *checkpointEvery <= 0:
		clash = fmt.Sprintf("-checkpoint-every %d: want a positive cycle interval", *checkpointEvery)
	case *trafFam != "" && set["pattern"]:
		clash = fmt.Sprintf("-traffic %s replaces -pattern; set one, not both", *trafFam)
	case *trafFam == "" && *trafPar != "":
		clash = "-traffic-params needs -traffic"
	case *wlFam == "" && *wlPar != "":
		clash = "-workload-params needs -workload"
	case *wlTrace != "" && !isTrace:
		clash = "-trace-file needs -workload trace"
	case isTrace && *wlTrace == "":
		clash = "-workload trace needs -trace-file"
	case *family != "" && (set["a"] || set["g"] || set["h"] || set["p"]):
		for _, name := range []string{"a", "g", "h", "p"} {
			if set[name] {
				clash = fmt.Sprintf("-topology %s takes its parameters from -topo-params, not -%s", *family, name)
				break
			}
		}
	case *family == "" && *fparams != "":
		clash = "-topo-params needs -topology"
	case *faultTimeline != "" && (*failGlobal != 0 || *failRouters != ""):
		clash = "-fault-timeline cannot be combined with -fail-global/-fail-routers (schedule standing faults at @0 instead)"
	}
	if clash != "" {
		return fail(errors.New(clash))
	}

	sub := serve.Submission{
		Kind:      serve.KindRun,
		Topology:  serve.TopologySpec{Family: *family, BufDepth: *buf},
		Algorithm: *algName,
		Traffic:   *trafFam,
		Workload:  *wlFam,
		Seed:      *seed,
		Shards:    *shards,
		Load:      *load,
		Run:       serve.RunSpec{Warmup: *warmup, Measure: *measure, Drain: *drain},
		Timeline:  *faultTimeline,
		FailSeed:  *failSeed,
		Window:    *window,
	}
	var err error
	if *family == "" {
		sub.Topology.P, sub.Topology.A, sub.Topology.H, sub.Topology.Groups = *p, *a, *h, *groups
	} else if sub.Topology.Params, err = parseParams("-topo-params", *fparams); err != nil {
		return fail(err)
	}
	if *trafFam == "" {
		sub.Pattern = *pattern
	} else if sub.TrafficParams, err = parseParams("-traffic-params", *trafPar); err != nil {
		return fail(err)
	}
	if sub.WorkloadParams, err = parseParams("-workload-params", *wlPar); err != nil {
		return fail(err)
	}
	if *wlTrace != "" {
		data, err := os.ReadFile(*wlTrace)
		if err != nil {
			return fail(fmt.Errorf("-trace-file: %w", err))
		}
		sub.Trace = string(data)
	}
	if *sweep != "" {
		sub.Kind, sub.Load = serve.KindSweep, 0
		if sub.Loads, err = parseSweep(*sweep); err != nil {
			return fail(err)
		}
	}
	spec, err := sub.Normalize(serve.Limits{})
	if err != nil {
		return fail(err)
	}
	built, err := spec.Build()
	if err != nil {
		return fail(err)
	}

	// In JSON mode stdout carries exactly one JSON document, so the
	// informational prints (fault plans, timeline epochs) move to stderr.
	info := stdout
	if *jsonOut {
		info = stderr
	}
	if built.Sys, err = applyFaults(info, built.Sys, *failGlobal, *failRouters, spec.FailSeed); err != nil {
		return fail(err)
	}
	sys := built.Sys
	if sched := sys.Timeline(); sched != nil {
		fmt.Fprintf(info, "fault timeline (seed %d): %d events compiled to %d epochs\n",
			sched.Seed, sched.Events, len(sched.Epochs))
		for _, e := range sched.Epochs {
			r, g, l, tm := e.View.FaultCounts()
			fmt.Fprintf(info, "  @%-8d %d routers, %d global, %d local, %d terminal channels down; connected=%v\n",
				e.Start, r, g, l, tm, e.View.Connected())
		}
	}
	if tr := built.Workload.Trace; tr != nil {
		fmt.Fprintf(info, "trace %s: %d flows over %d terminals (content hash %016x)\n",
			*wlTrace, tr.Flows(), tr.Terminals(), tr.Hash())
	}
	rc := built.Config
	rc.Histogram = *hist
	if spec.Kind == serve.KindSweep {
		return runSweep(ctx, stdout, stderr, built, spec, rc, *jobs, *jsonOut)
	}

	// The observability collectors attach through run options and watch
	// the whole run, warm-up and drain included — a time series that
	// starts at the measurement phase would hide the ramp.
	opts := []core.RunOption{core.WithContext(ctx)}
	var tr *obs.Tracer
	if *trace > 0 {
		tr = obs.NewTracer(*trace, *traceSeed, *traceBuf)
	}
	switch win := built.Windows; {
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
			return serve.WriteFileAtomic(*checkpoint, snap)
		}
	}
	if *resume != "" {
		snap, err := os.ReadFile(*resume)
		if err != nil {
			return fail(fmt.Errorf("-resume: %w", err))
		}
		opts = append(opts, core.WithResume(snap))
	}

	load0 := spec.Loads[0]
	if !*jsonOut {
		fmt.Fprintf(stdout, "simulating %v, %s routing, %s traffic, load %.3f\n", sys.Topo, built.Algorithm, spec.Pattern, load0)
	}
	res, err := sys.RunW(built.Algorithm, built.Workload, load0, rc, opts...)
	if err != nil {
		return runFailed(stderr, err)
	}

	if *jsonOut {
		rep := built.Report
		rep.Points = []obs.Point{{Load: load0, Result: obs.MakeResult(res)}}
		if built.Windows != nil {
			rep.Windows = built.Windows.Windows()
		}
		if tr != nil {
			rep.Trace = tr.Records()
		}
		if err := writeReport(rep, stdout); err != nil {
			return fail(err)
		}
		return unroutable(stderr, res.Dropped, res.Latency.Count())
	}

	fmt.Fprintf(stdout, "offered load:      %.3f flits/cycle/terminal\n", res.Offered)
	fmt.Fprintf(stdout, "accepted load:     %.3f flits/cycle/terminal\n", res.Accepted)
	fmt.Fprintf(stdout, "avg latency:       %.1f cycles (%d packets measured)\n", res.Latency.Mean(), res.Latency.Count())
	if res.MinLatency.Count() > 0 {
		fmt.Fprintf(stdout, "  minimal pkts:    %.1f cycles (%.1f%% of traffic)\n", res.MinLatency.Mean(), 100*res.MinimalFraction)
	}
	if res.NonminLatency.Count() > 0 {
		fmt.Fprintf(stdout, "  non-minimal:     %.1f cycles\n", res.NonminLatency.Mean())
	}
	fmt.Fprintf(stdout, "latency p99:       %.0f cycles (max %.0f)\n", pctl(res), res.Latency.Max())
	fmt.Fprintf(stdout, "saturated:         %v\n", res.Saturated)
	fmt.Fprintf(stdout, "simulated cycles:  %d\n", res.Cycles)
	if sys.Timeline() != nil {
		fmt.Fprintf(stdout, "killed in flight:  %d packets (on channels severed by the timeline)\n", res.KilledInFlight)
		fmt.Fprintf(stdout, "rerouted:          %d packets (rescued off failing routers)\n", res.Rerouted)
		fmt.Fprintf(stdout, "dropped packets:   %d (unroutable during degraded epochs)\n", res.Dropped)
	} else if sys.Degraded() != nil {
		fmt.Fprintf(stdout, "dropped packets:   %d (unroutable under the fault plan)\n", res.Dropped)
	}
	if *hist && res.Hist != nil {
		fmt.Fprintln(stdout, "\nlatency histogram:")
		buckets := res.Hist.Buckets()
		for i, c := range buckets {
			if c == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  %4d-%-4d %7d %s\n",
				int64(i)*res.Hist.Width, (int64(i)+1)*res.Hist.Width-1, c, bar(res.Hist.Fraction(i)))
		}
	}
	return unroutable(stderr, res.Dropped, res.Latency.Count())
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
// saturation like the paper's plots. It returns the exit code.
func runSweep(ctx context.Context, stdout, stderr io.Writer, built *serve.Setup, spec serve.JobSpec, rc sim.RunConfig, jobs int, jsonOut bool) int {
	sys := built.Sys
	pool := parallel.New(jobs)
	pool.SetLog(stderr)
	if !jsonOut {
		fmt.Fprintf(stdout, "sweeping %v, %s routing, %s traffic: %d load points on %d workers\n",
			sys.Topo, built.Algorithm, spec.Pattern, len(spec.Loads), pool.Jobs())
	}
	pts, err := sys.SweepPoolW(pool, built.Algorithm, built.Workload, spec.Loads, rc, 2, core.WithContext(ctx))
	if err != nil {
		return runFailed(stderr, err)
	}
	var dropped, delivered int64
	for _, p := range pts {
		dropped += p.Result.Dropped
		delivered += p.Result.Latency.Count()
	}
	if jsonOut {
		rep := built.Report
		for _, p := range pts {
			rep.Points = append(rep.Points, obs.Point{Load: p.Load, Result: obs.MakeResult(p.Result)})
		}
		if err := writeReport(rep, stdout); err != nil {
			fmt.Fprintln(stderr, "dfly-sim:", err)
			return exitBadConfig
		}
		return unroutable(stderr, dropped, delivered)
	}
	// Faulted sweeps add a dropped column, timeline sweeps a killed one.
	timeline := sys.Timeline() != nil
	degraded := sys.Degraded() != nil || timeline
	head := fmt.Sprintf("%-10s %12s %12s %10s", "load", "latency", "accepted", "saturated")
	if degraded {
		head += fmt.Sprintf(" %10s", "dropped")
	}
	if timeline {
		head += fmt.Sprintf(" %10s", "killed")
	}
	fmt.Fprintln(stdout, head)
	for _, p := range pts {
		row := fmt.Sprintf("%-10.3f %12.1f %12.3f %10v", p.Load, p.Result.Latency.Mean(), p.Result.Accepted, p.Result.Saturated)
		if degraded {
			row += fmt.Sprintf(" %10d", p.Result.Dropped)
		}
		if timeline {
			row += fmt.Sprintf(" %10d", p.Result.KilledInFlight)
		}
		if p.Result.Saturated {
			row += " *"
		}
		fmt.Fprintln(stdout, row)
	}
	return unroutable(stderr, dropped, delivered)
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

// runFailed reports a failed simulation run and returns its exit code.
// A SIGINT/SIGTERM cancellation gets the canceled exit status with
// partial diagnostics (phase, cycle reached, packets abandoned in
// flight) on stderr; a deadlock-detector stall gets its own exit status
// plus a diagnostics dump (cycle, phase, active fault epoch, hottest
// input-buffer VCs) so a wedged run can be debugged from the output
// alone; everything else is a bad-config failure.
func runFailed(stderr io.Writer, err error) int {
	if errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.Canceled) {
		fmt.Fprintln(stderr, "dfly-sim: interrupted:", err)
		var ce *sim.CanceledError
		if errors.As(err, &ce) {
			fmt.Fprintf(stderr, "partial run diagnostics:\n  stopped in the %s phase at cycle %d, %d packets abandoned in flight\n",
				ce.Phase, ce.Cycle, ce.InFlight)
		}
		return exitCanceled
	}
	fmt.Fprintln(stderr, "dfly-sim:", err)
	var se *sim.StallError
	if !errors.As(err, &se) {
		return exitBadConfig
	}
	fmt.Fprintln(stderr, "stall diagnostics:")
	fmt.Fprintf(stderr, "  cycle %d (%s phase): no flit moved for %d cycles, %d packets in flight\n",
		se.Cycle, se.Phase, se.StallLimit, se.InFlight)
	fmt.Fprintf(stderr, "  epoch %d: %d routers, %d global / %d local / %d terminal channels dead\n",
		se.Epoch, se.DeadRouters, se.DeadGlobal, se.DeadLocal, se.DeadTerminal)
	for _, h := range se.Hot {
		fmt.Fprintf(stderr, "  router %d port %d vc %d: %d flits buffered, %d packets waiting on the port\n",
			h.Router, h.Port, h.VC, h.Occupancy, h.Waiting)
	}
	return exitStalled
}

// unroutable returns the unroutable exit status when a completed run
// (or sweep) dropped at least as many packets as it delivered — the
// topology is so degraded that the results measure packet loss, not
// network performance — and 0 otherwise.
func unroutable(stderr io.Writer, dropped, delivered int64) int {
	if dropped == 0 || dropped < delivered {
		return 0
	}
	fmt.Fprintf(stderr, "dfly-sim: unroutable drops dominate: %d packets dropped vs %d delivered\n",
		dropped, delivered)
	return exitUnroutable
}
