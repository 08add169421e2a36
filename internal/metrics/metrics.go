// Package metrics provides the latency bookkeeping the experiment harness
// uses: duration recorders with summary statistics, matching the
// measurements the paper reports (run time in milliseconds per
// configuration, averaged over repeated runs), plus the resilience
// counters (retries, timeouts, cancellations, shed requests) the
// client/server failure paths feed.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Resilience groups the failure-handling counters shared by the client
// and server resilience layers. Embed one and count into its fields; take
// a Snapshot for reporting. The zero value is ready.
type Resilience struct {
	// Retries counts retry attempts made after a failed exchange.
	Retries atomic.Int64
	// Timeouts counts work abandoned because a deadline expired: expired
	// call/batch contexts on the client, per-item or per-operation
	// deadline faults on the server.
	Timeouts atomic.Int64
	// Cancellations counts work abandoned because a context was cancelled
	// before its deadline.
	Cancellations atomic.Int64
	// Shed counts requests rejected at admission because the application
	// stage queue was full and they had no deadline to wait until.
	Shed atomic.Int64
}

// ResilienceSummary is a point-in-time copy of a Resilience counter set.
type ResilienceSummary struct {
	// Retries is the number of retry attempts.
	Retries int64
	// Timeouts is the number of deadline expirations.
	Timeouts int64
	// Cancellations is the number of context cancellations.
	Cancellations int64
	// Shed is the number of admission rejections.
	Shed int64
}

// Snapshot copies the current counter values.
func (r *Resilience) Snapshot() ResilienceSummary {
	return ResilienceSummary{
		Retries:       r.Retries.Load(),
		Timeouts:      r.Timeouts.Load(),
		Cancellations: r.Cancellations.Load(),
		Shed:          r.Shed.Load(),
	}
}

// String formats the summary compactly for experiment logs.
func (s ResilienceSummary) String() string {
	return fmt.Sprintf("retries=%d timeouts=%d cancellations=%d shed=%d",
		s.Retries, s.Timeouts, s.Cancellations, s.Shed)
}

// StageIO accumulates the byte and time volume of one pipeline stage
// (e.g. response encoding), cheap enough for per-message hot paths: two
// atomic adds per observation, no locks, no samples retained. The zero
// value is ready.
type StageIO struct {
	bytes atomic.Int64
	nanos atomic.Int64
}

// Observe adds one stage execution that processed n bytes in d.
func (s *StageIO) Observe(n int, d time.Duration) {
	s.bytes.Add(int64(n))
	s.nanos.Add(int64(d))
}

// Snapshot copies the current totals.
func (s *StageIO) Snapshot() StageIOSummary {
	return StageIOSummary{Bytes: s.bytes.Load(), Ns: s.nanos.Load()}
}

// StageIOSummary is a point-in-time copy of a StageIO counter pair.
type StageIOSummary struct {
	// Bytes is the total payload volume the stage processed.
	Bytes int64 `json:"bytes"`
	// Ns is the total time the stage spent, in nanoseconds.
	Ns int64 `json:"ns"`
}

// String formats the summary compactly for experiment logs.
func (s StageIOSummary) String() string {
	return fmt.Sprintf("bytes=%d ns=%d", s.Bytes, s.Ns)
}

// Recorder accumulates duration samples in constant memory: a log-linear
// histogram with 32 sub-buckets per power of two, one bucket for every
// non-negative nanosecond count (15 KiB, fixed at compile time; no sample
// is retained). Count, Total, Min, Max and Mean are exact. P50/P90/P99 are
// the midpoint of the bucket holding the nearest-rank sample, clamped to
// [Min, Max]: exact below 64 ns, within 1/64 (under 1.6 %) of that sample
// above. Record is lock-free and allocation-free — two atomic adds and two
// loads unless the sample is a new extreme — and Snapshot costs the same
// after a million samples as after ten.
//
// The zero value is ready. Safe for concurrent use; a Snapshot that
// overlaps a Record may have that sample in Total, Min and Max but not yet
// in Count, and a Reset that overlaps one may keep part of it.
type Recorder struct {
	buckets [recorderBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	minInv  atomic.Int64 // math.MaxInt64 − min, so the zero value is "nothing yet"
}

const (
	recorderSubBits = 5 // 32 sub-buckets per octave
	recorderBuckets = (64 - recorderSubBits) << recorderSubBits
)

// recorderBucket maps a nanosecond count to its bucket. Counts below 64
// get a bucket each; above, the top six significant bits select it.
func recorderBucket(ns int64) int {
	e := bits.Len64(uint64(ns)) - (recorderSubBits + 1)
	if e <= 0 {
		return int(ns)
	}
	return e<<recorderSubBits + int(ns>>uint(e))
}

// recorderBucketMid is the midpoint of bucket i's value range.
func recorderBucketMid(i int) time.Duration {
	e := i>>recorderSubBits - 1
	if e <= 0 {
		return time.Duration(i)
	}
	mantissa := int64(i&(1<<recorderSubBits-1) | 1<<recorderSubBits)
	return time.Duration(mantissa<<uint(e) + 1<<uint(e-1))
}

// Record adds one sample. Negative durations count as zero.
func (r *Recorder) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// The bucket goes last and Snapshot reads buckets first, so every
	// sample a snapshot counts is already inside its Min, Max and Total.
	atomicMax(&r.max, ns)
	atomicMax(&r.minInv, math.MaxInt64-ns)
	r.sum.Add(ns)
	r.buckets[recorderBucket(ns)].Add(1)
}

// Summary is a statistical digest of a sample set. From Summarize every
// field is exact; from a Recorder the quantiles carry its stated bound.
type Summary struct {
	Count int
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Snapshot digests the samples recorded so far, in time proportional to
// the bucket count, not the sample count.
func (r *Recorder) Snapshot() Summary {
	var counts [recorderBuckets]int64
	var n int64
	for i := range r.buckets {
		counts[i] = r.buckets[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return Summary{}
	}
	s := Summary{
		Count: int(n),
		Total: time.Duration(r.sum.Load()),
		Min:   time.Duration(math.MaxInt64 - r.minInv.Load()),
		Max:   time.Duration(r.max.Load()),
	}
	s.Mean = s.Total / time.Duration(n)
	quantiles := [...]*time.Duration{&s.P50, &s.P90, &s.P99}
	ranks := [...]int64{rank(0.50, n), rank(0.90, n), rank(0.99, n)}
	// The counts add up to n and no rank exceeds n, so the walk ends at
	// the bucket of the largest sample at the latest.
	var cum int64
	for i, next := 0, 0; next < len(ranks); i++ {
		cum += counts[i]
		for next < len(ranks) && cum >= ranks[next] {
			*quantiles[next] = min(max(recorderBucketMid(i), s.Min), s.Max)
			next++
		}
	}
	return s
}

// Summarize computes the exact Summary of a sample set: the oracle the
// Recorder's bucketed quantiles are tested against.
func Summarize(samples []time.Duration) Summary {
	s := Summary{Count: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, d := range sorted {
		s.Total += d
	}
	n := int64(len(sorted))
	s.Min = sorted[0]
	s.Max = sorted[n-1]
	s.Mean = s.Total / time.Duration(n)
	s.P50 = sorted[rank(0.50, n)-1]
	s.P90 = sorted[rank(0.90, n)-1]
	s.P99 = sorted[rank(0.99, n)-1]
	return s
}

// rank is the 1-based nearest-rank position of the p-quantile among n
// ordered samples, ⌈p·n⌉ kept inside [1, n]. Summarize, Recorder and
// Histogram all pick their quantile sample with it.
func rank(p float64, n int64) int64 {
	return min(max(int64(math.Ceil(p*float64(n))), 1), n)
}

// atomicMax raises a to n when n is larger.
func atomicMax(a *atomic.Int64, n int64) {
	for {
		cur := a.Load()
		if cur >= n || a.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Millis renders a duration as fractional milliseconds, the unit of the
// paper's figures.
func Millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// String formats the summary compactly for experiment logs.
func (s Summary) String() string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%.3fms min=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms",
		s.Count, Millis(s.Mean), Millis(s.Min), Millis(s.P50), Millis(s.P90), Millis(s.P99), Millis(s.Max))
}
