package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram accumulates duration samples into power-of-two buckets, 552
// bytes whatever the sample count. It never allocates per sample and every
// operation is a handful of atomic adds, so it is safe to leave on a hot
// path (the per-stage latency instrumentation records into histograms on
// every hop).
// Bucket i holds samples whose nanosecond count has bit length i, i.e. the
// range [2^(i-1), 2^i). Count, Sum, Mean, Min and Max are exact; quantiles
// are the bucket's upper bound, so they overstate the nearest-rank sample
// by up to a factor of two — enough to tell a 100µs parse stage from a
// 10ms one.
//
// The zero value is ready. Safe for concurrent use.
type Histogram struct {
	counts [65]atomic.Int64 // index = bits.Len64(nanoseconds)
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // nanoseconds + 1, so 0 means "no samples yet"
	max    atomic.Int64
}

// Observe adds one sample. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	h.counts[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if (cur != 0 && cur <= ns+1) || h.min.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	atomicMax(&h.max, ns)
}

// HistogramSummary is a point-in-time digest of a Histogram. Quantiles are
// bucket upper bounds (within 2x of the true value).
type HistogramSummary struct {
	Count int64
	Sum   time.Duration
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Snapshot digests the samples observed so far.
func (h *Histogram) Snapshot() HistogramSummary {
	var counts [65]int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	s := HistogramSummary{Count: h.count.Load(), Sum: time.Duration(h.sum.Load())}
	if s.Count == 0 {
		return s
	}
	s.Mean = s.Sum / time.Duration(s.Count)
	if mn := h.min.Load(); mn > 0 {
		s.Min = time.Duration(mn - 1)
	}
	s.Max = time.Duration(h.max.Load())
	s.P50 = quantile(&counts, s.Count, 0.50, s.Max)
	s.P95 = quantile(&counts, s.Count, 0.95, s.Max)
	s.P99 = quantile(&counts, s.Count, 0.99, s.Max)
	return s
}

// quantile returns the upper bound of the bucket containing the p-quantile
// sample (nearest rank), clamped to the observed maximum.
func quantile(counts *[65]int64, total int64, p float64, max time.Duration) time.Duration {
	target := rank(p, total)
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			upper := time.Duration(int64(1) << uint(i))
			if i >= 63 || upper > max {
				return max
			}
			return upper
		}
	}
	return max
}

// Gauge is a last-value metric (queue depth, worker count). All methods are
// nil-safe so a disabled observability layer can hand out nil gauges and
// callers pay only the nil check. The zero value is ready.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Set records the current value, updating the running peak.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
	atomicMax(&g.peak, n)
}

// Add adjusts the current value by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	n := g.v.Add(delta)
	atomicMax(&g.peak, n)
	return n
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Peak returns the largest value the gauge has held.
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}
