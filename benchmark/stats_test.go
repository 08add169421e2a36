package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
)

// Quantiles must be raw samples, not bucket edges: the repository's
// metrics.Histogram answers in powers of two and would report these
// latencies up to twice too high.
func TestQuantileIsAnExactSample(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = 3.0 + float64(i)/1000 // 3.000 … 3.999 ms
	}
	rand.New(rand.NewSource(7)).Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	if got := quantile(samples, 0.50); got != 3.499 {
		t.Errorf("p50 = %v, want the 500th sample 3.499", got)
	}
	if got := quantile(samples, 0.99); got != 3.989 {
		t.Errorf("p99 = %v, want the 990th sample 3.989", got)
	}
	if got := quantile(samples, 1); got != 3.999 {
		t.Errorf("p100 = %v, want the maximum", got)
	}

	var h metrics.Histogram
	for _, ms := range samples {
		h.Observe(time.Duration(ms * float64(time.Millisecond)))
	}
	bucketed := float64(h.Snapshot().P99) / float64(time.Millisecond)
	if math.Abs(bucketed-3.989) < 0.01 {
		t.Fatalf("metrics.Histogram p99 = %v: it has become exact, this guard is out of date", bucketed)
	}
}

func TestMedianAndWindowSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd set = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even set = %v", got)
	}
	if got := windowSpread([]float64{90, 100, 110, 100, 100}); got != 0.2 {
		t.Errorf("window spread = %v, want (110-90)/100", got)
	}
}

// The reference values are what Python prints for
// statistics.quantiles(v, n=4) and statistics.median(v).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30})
	if q1 != 5 || q3 != 35 {
		t.Errorf("quartiles of [10, 30] = %v, %v; Python gives 5.0, 35.0", q1, q3)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqr share = %v, want (8.25-2.75)/5.5", got)
	}
}
