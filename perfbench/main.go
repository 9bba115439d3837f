// Command perfbench is the repository's benchmark. It drives the public
// APIs of core, sim, routing, traffic, workload, metrics and serve on
// four workloads and prints one JSON result line:
//
//	bash perfbench/run.sh --workload paper-1k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate, instrumented run yields the per-layer metrics
// and writes a span file. Every run checks its outputs and exits
// non-zero when a check fails. README.md in this directory describes
// the workloads, the metrics and the span file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what one workload run receives and fills in.
type env struct {
	workload string
	seed     uint64  // the --seed value; every input derives from it
	seconds  float64 // sets the amount of work (see units)
	trace    bool
	scratch  string // directory for the workload's files
	spans    *tracer
	cal      []float64 // reference-kernel timings, ms (hostspeed.go)
	res      result
}

func (e *env) set(name string, v float64, unit string) {
	e.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation and, when err is non-nil, one
// failed operation, reporting the cause on stderr.
func (e *env) op(err error) {
	e.res.Attempted++
	if err != nil {
		e.res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
	}
}

// note prints an informational line on stdout, ahead of the result.
func (e *env) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"paper-1k":      runPaper1K,
	"shard2-1k":     runShard2,
	"scale-16k":     runScale16K,
	"serve-durable": runServeDurable,
}

func main() { os.Exit(run()) }

// run runs one workload and returns the exit code: 0 with a result
// line, 1 when a check failed (the result line says which count) or the
// run could not complete (no result line), 2 for bad arguments.
func run() int {
	name := flag.String("workload", "", "workload to run: paper-1k, shard2-1k, scale-16k or serve-durable")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "1 runs the instrumented pass and reports per-layer metrics")
	flag.Parse()
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	scratch := os.Getenv("PERFBENCH_SCRATCH")
	if scratch == "" {
		scratch = ".bench_build"
	}
	e := &env{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scratch:  filepath.Join(scratch, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
		res:      result{Metrics: map[string]metric{}},
	}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.scratch)
	if e.trace {
		e.spans = newTracer()
	}
	printHost()
	if e.trace {
		e.calibrate(minCal)
		e.set("host.cal_ms", median(e.cal), "ms")
	}
	m0, h0 := sampleMem(), schedHist()
	err := runner(e)
	if err == nil && e.trace {
		e.runtimeMetrics(m0, h0)
		err = e.writeSpans(filepath.Join(scratch, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)))
	}
	if err == nil && !e.trace {
		err = e.normalise()
	}
	if err == nil && e.res.Attempted == 0 {
		err = fmt.Errorf("%s attempted no operations", *name)
	}
	if err != nil {
		return fail(err)
	}
	e.res.Correct = e.res.Failed == 0
	line, err := json.Marshal(e.res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !e.res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 1
}

// printHost prints the host block: CPU, NumCPU, GOMAXPROCS, Go version
// and the git revision the binary was built from.
func printHost() {
	host := map[string]any{
		"cpu":        cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_rev":    gitRev(),
	}
	b, _ := json.Marshal(host) // a map of strings and ints always encodes
	fmt.Printf("# host %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the revision the Go toolchain stamped into the binary;
// a build outside a git checkout has none.
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// --- statistics -----------------------------------------------------

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is the number of samples an end-to-end tail percentile
// must have above it.
const tailBeyond = 10

// minSamples is the smallest sample count that puts tailBeyond samples
// above the pct-th percentile.
func minSamples(pct int) int {
	return int(math.Ceil(tailBeyond * 100 / float64(100-pct)))
}

// units is the number of units of work a run makes: refRate per second
// of --seconds, refRate being the workload's rate on the reference host
// (2 vCPUs), and at least atLeast. The count depends on --seconds
// alone, not on how fast the host is, so parent and change time the
// same work, take the same percentile of the same number of samples
// and hold the same amount of state.
func (e *env) units(refRate float64, atLeast int) int {
	return max(atLeast, int(math.Round(e.seconds*refRate)))
}

// percentile returns the pct-th percentile of xs by nearest rank and
// the number of samples above it.
func percentile(xs []float64, pct int) (v float64, beyond int) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	idx := max(int(math.Ceil(float64(pct)*float64(n)/100))-1, 0)
	return s[idx], n - 1 - idx
}

// latency reports a latency sample set as a p50 and a pct-th
// percentile metric, notes the percentile and the sample count, and
// returns the number of samples above the percentile.
func (e *env) latency(name, unit string, xs []float64, pct int, p50Name, tailName string) int {
	tv, beyond := percentile(xs, pct)
	e.set(p50Name, median(xs), unit)
	e.set(tailName, tv, unit)
	e.note("%s: p50 %.4g %s, tail p%d %.4g %s over %d samples (%d above)", name, median(xs), unit, pct, tv, unit, len(xs), beyond)
	return beyond
}

// submitDone reports the end-to-end unit latencies at the workload's
// fixed tail percentile. Too few samples above it is an error: the
// percentile would then depend on the sample count.
func (e *env) submitDone(name string, lat []float64, pct int) error {
	if beyond := e.latency(name, "ms", lat, pct, "submit_done_p50_ms", "submit_done_tail_ms"); beyond < tailBeyond {
		return fmt.Errorf("%s: %d samples leave %d above p%d, want at least %d (%d samples)", name, len(lat), beyond, pct, tailBeyond, minSamples(pct))
	}
	return nil
}

// medianRate is the median over units of work[i] / secs[i]. Like the
// median unit time the simulation workloads divide by, it resists a
// slow stretch of the run better than a total over the timed region.
func medianRate(work, secs []float64) float64 {
	rates := make([]float64, len(work))
	for i := range work {
		rates[i] = work[i] / secs[i]
	}
	return median(rates)
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
