package sim

// The measurement accumulators a run reports: online latency
// accumulators and latency histograms (Figure 12). A checkpoint carries
// their fields verbatim (runState.code), so a resumed run continues the
// exact recurrences of the run it was captured from.

import (
	"fmt"
	"math"
)

// Accumulator tracks count, mean, min, max and variance of a stream of
// samples without storing them (Welford's algorithm).
type Accumulator struct {
	n          int64
	mean, m2   float64
	min, max   float64
	initedBoth bool
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if !a.initedBoth {
		a.min, a.max = x, x
		a.initedBoth = true
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Count returns the number of samples.
func (a Accumulator) Count() int64 { return a.n }

// Mean returns the sample mean, or 0 with no samples.
func (a Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest sample, or 0 with no samples.
func (a Accumulator) Min() float64 { return a.min }

// Max returns the largest sample, or 0 with no samples.
func (a Accumulator) Max() float64 { return a.max }

// Variance returns the sample variance, or 0 with fewer than 2 samples.
func (a Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Histogram counts integer-valued samples in fixed-width buckets,
// matching the latency-distribution plots of Figure 12.
type Histogram struct {
	// Width is the bucket width; bucket i covers [i*Width, (i+1)*Width).
	Width int64
	count []int64
	total int64
}

// NewHistogram creates a histogram with the given bucket width (>= 1).
func NewHistogram(width int64) *Histogram {
	if width < 1 {
		width = 1
	}
	return &Histogram{Width: width}
}

// Add records one sample (negative samples clamp to bucket 0).
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	b := int(v / h.Width)
	for b >= len(h.count) {
		h.count = append(h.count, 0)
	}
	h.count[b]++
	h.total++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() int64 { return h.total }

// Buckets returns the bucket counts; index i covers [i*Width,(i+1)*Width).
func (h *Histogram) Buckets() []int64 { return h.count }

// Fraction returns bucket i's share of all samples.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 || i < 0 || i >= len(h.count) {
		return 0
	}
	return float64(h.count[i]) / float64(h.total)
}

// Percentile returns the smallest sample value v such that at least
// q (0..1) of the samples are <= v, resolved to bucket upper bounds.
func (h *Histogram) Percentile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	want := int64(math.Ceil(q * float64(h.total)))
	if want < 1 {
		want = 1
	}
	var seen int64
	for i, c := range h.count {
		seen += c
		if seen >= want {
			return int64(i+1)*h.Width - 1
		}
	}
	return int64(len(h.count))*h.Width - 1
}

// String renders a compact textual summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("histogram(n=%d buckets=%d width=%d p50=%d p99=%d)",
		h.total, len(h.count), h.Width, h.Percentile(0.5), h.Percentile(0.99))
}

// Summary holds the aggregate results every experiment reports.
type Summary struct {
	// Offered is the injection rate in flits/cycle/terminal.
	Offered float64
	// Accepted is the measured ejection rate in flits/cycle/terminal.
	Accepted float64
	// Latency aggregates packet latency in cycles over measured packets.
	Latency Accumulator
	// MinLatency / NonminLatency split latency by the source-router
	// routing decision (Figure 11).
	MinLatency, NonminLatency Accumulator
	// MinimalFraction is the share of measured packets routed minimally.
	MinimalFraction float64
	// Saturated reports that the network could not sustain the offered
	// load (the drain phase timed out or accepted lagged offered).
	Saturated bool
}
