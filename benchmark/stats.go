package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of raw samples by the nearest-rank
// method on a sorted copy: the smallest value with at least p of the
// samples at or below it. It is exact — every reported latency is one of
// the measured samples, never a histogram bucket edge.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sortedQuantile(sorted, p)
}

func sortedQuantile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// median averages the two middle values of an even-sized set, so it
// agrees with Python's statistics.median, which the driver uses.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// windowSpread is (max−min)/median of a metric's window values: how much
// the metric moved inside one run.
func windowSpread(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	m := median(values)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so -compare reports the same run-to-run spread the driver
// accepts or rejects the benchmark on. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	const n = 4
	ld := len(sorted)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// iqrShare is the distance between the quartiles as a share of the
// median: the spread figure bounds are judged against.
func iqrShare(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
