package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a workload, a point,
// batch or job, or one public call into a layer. Start and End are
// nanoseconds since the run began; Parent is 0 for the root. The spans
// of one job share its Job id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int64, job, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-finished span from two instants and returns
// its id.
func (t *tracer) record(parent int64, job, name string, from, to time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: from.Sub(t.t0).Nanoseconds(), End: to.Sub(t.t0).Nanoseconds()})
	return id
}

// writeSpans writes the span file (one JSON object per line) and
// prints each span name's count, total and self time: a span's self
// time is its duration minus the part its children cover.
func (e *env) writeSpans(path string) error {
	t := e.spans
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	type agg struct {
		n           int
		total, self int64
	}
	// Children may overlap (the two clients' jobs do), so a parent's
	// covered time is the union of its children's intervals.
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	child := make(map[int64]int64, len(kids))
	for id, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered, end int64
		for _, k := range ks {
			start := max(k.Start, end)
			if k.End > start {
				covered += k.End - start
				end = k.End
			}
		}
		child[id] = covered
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	e.note("spans: %d written to %s", len(t.spans), path)
	for _, n := range names {
		a := by[n]
		e.note("span %-28s n=%-6d total=%.1fms self=%.1fms", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	return nil
}

// memSample is the allocator and GC state the per-layer metrics diff.
type memSample struct{ mallocs, bytes, gcs, pauseNs uint64 }

func sampleMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

// memDelta is what the allocator and GC did over some simulated cycles.
type memDelta struct {
	mallocs, bytes, gcs, pauseNs uint64
	cycles                       int64
}

// memSince is the allocator and GC work since a, over `cycles` cycles.
func memSince(a memSample, cycles int64) memDelta {
	b := sampleMem()
	return memDelta{b.mallocs - a.mallocs, b.bytes - a.bytes, b.gcs - a.gcs, b.pauseNs - a.pauseNs, cycles}
}

func (d *memDelta) add(o memDelta) {
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.gcs += o.gcs
	d.pauseNs += o.pauseNs
	d.cycles += o.cycles
}

// report sets the allocation metrics of the simulated region.
func (d memDelta) report(e *env) {
	c := float64(d.cycles)
	if c < 1 {
		c = 1
	}
	e.set("sim.allocs_per_cycle", float64(d.mallocs)/c, "count")
	e.set("sim.bytes_per_cycle", float64(d.bytes)/c, "B")
}

// runtimeMetrics sets the whole traced run's garbage collection and
// scheduling-latency metrics, measured since m0 and h0.
func (e *env) runtimeMetrics(m0 memSample, h0 *metrics.Float64Histogram) {
	d := memSince(m0, 0)
	e.set("go.gc_cycles", float64(d.gcs), "count")
	e.set("go.gc_pause_ms", float64(d.pauseNs)/1e6, "ms")
	e.set("go.sched_latency_p99_us", schedP99Us(h0, schedHist()), "us")
}

const schedMetric = "/sched/latencies:seconds"

// schedHist reads the runtime's goroutine scheduling-latency histogram.
func schedHist() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: schedMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// schedP99Us is the 99th percentile scheduling latency, in
// microseconds, of the goroutines scheduled between two reads.
func schedP99Us(prev, cur *metrics.Float64Histogram) float64 {
	if prev == nil || cur == nil || len(prev.Counts) != len(cur.Counts) {
		return 0
	}
	var total uint64
	for i := range cur.Counts {
		total += cur.Counts[i] - prev.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(0.99 * float64(total))
	var acc uint64
	for i := range cur.Counts {
		acc += cur.Counts[i] - prev.Counts[i]
		if acc > want {
			// The bucket's upper bound; the open last bucket reports
			// its lower bound.
			hi := cur.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = cur.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}
