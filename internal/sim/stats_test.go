package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if a.Count() != 5 {
		t.Errorf("Count = %d, want 5", a.Count())
	}
	if a.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", a.Mean())
	}
	if a.Min() != 1 || a.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", a.Min(), a.Max())
	}
	if v := a.Variance(); math.Abs(v-2.5) > 1e-12 {
		t.Errorf("Variance = %v, want 2.5", v)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Count() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Error("empty accumulator should return zeros")
	}
}

func TestAccumulatorPropertyMeanWithinRange(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e12 {
				return true // latencies and loads are modest; skip extremes
			}
			a.Add(x)
		}
		if a.Count() == 0 {
			return true
		}
		if a.Mean() < a.Min()-1e-9 || a.Mean() > a.Max()+1e-9 {
			ok = false
		}
		if a.Variance() < 0 {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(2)
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
	if h.Fraction(0) != 2.0/7 { // values 0,1
		t.Errorf("Fraction(0) = %v", h.Fraction(0))
	}
	if h.Fraction(50) != 1.0/7 { // value 100
		t.Errorf("Fraction(50) = %v", h.Fraction(50))
	}
	if h.Fraction(-1) != 0 || h.Fraction(1000) != 0 {
		t.Error("out-of-range fractions should be 0")
	}
	h.Add(-5) // clamps to bucket 0
	if h.Fraction(0) != 3.0/8 {
		t.Error("negative sample not clamped to bucket 0")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1)
	for v := int64(1); v <= 100; v++ {
		h.Add(v)
	}
	if p := h.Percentile(0.5); p < 49 || p > 51 {
		t.Errorf("p50 = %d, want ~50", p)
	}
	if p := h.Percentile(0.99); p < 98 || p > 100 {
		t.Errorf("p99 = %d, want ~99", p)
	}
	if p := h.Percentile(1.0); p != 100 {
		t.Errorf("p100 = %d, want 100", p)
	}
	empty := NewHistogram(4)
	if empty.Percentile(0.5) != 0 {
		t.Error("empty histogram percentile should be 0")
	}
}

func TestHistogramPropertyTotals(t *testing.T) {
	f := func(vals []uint16, width uint8) bool {
		h := NewHistogram(int64(width%16) + 1)
		for _, v := range vals {
			h.Add(int64(v))
		}
		var sum int64
		for _, c := range h.Buckets() {
			sum += c
		}
		return sum == int64(len(vals)) && h.Total() == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramWidthClamped(t *testing.T) {
	h := NewHistogram(0)
	if h.Width != 1 {
		t.Errorf("width 0 should clamp to 1, got %d", h.Width)
	}
}
