package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// withinRecorderBound reports whether a Recorder quantile is within the
// documented 1/64 of the exact nearest-rank sample.
func withinRecorderBound(got, exact time.Duration) bool {
	diff := got - exact
	if diff < 0 {
		diff = -diff
	}
	return diff <= exact/64
}

func TestRankIsNearestRank(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int64
		want int64
	}{
		{0.5, 1, 1}, {0.99, 1, 1},
		{0.5, 2, 1}, {0.9, 2, 2},
		{0.5, 10, 5}, {0.9, 10, 9}, {0.99, 10, 10},
		{0.9, 16, 15}, // int(p*n+0.5) picked the 14th
		{0.5, 101, 51}, {0.95, 101, 96}, {0.99, 101, 100},
		{0.5, 1000, 500}, {0.99, 1000, 990}, {1, 1000, 1000},
		{0, 7, 1}, {0.999, 1_000_000, 999_000},
	} {
		if got := rank(tc.p, tc.n); got != tc.want {
			t.Errorf("rank(%v, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
}

// Every bucket's midpoint maps back to that bucket, buckets tile the
// non-negative int64 range in order, and the last one holds MaxInt64.
func TestRecorderBucketLayout(t *testing.T) {
	if got := recorderBucket(math.MaxInt64); got != recorderBuckets-1 {
		t.Errorf("bucket(MaxInt64) = %d, want the last, %d", got, recorderBuckets-1)
	}
	prev := time.Duration(-1)
	for i := 0; i < recorderBuckets; i++ {
		mid := recorderBucketMid(i)
		if mid <= prev {
			t.Fatalf("bucket %d midpoint %d not above bucket %d's %d", i, mid, i-1, prev)
		}
		if got := recorderBucket(int64(mid)); got != i {
			t.Fatalf("midpoint %d of bucket %d maps to bucket %d", mid, i, got)
		}
		prev = mid
	}
	if size := unsafe.Sizeof(Recorder{}); size > 16<<10 {
		t.Errorf("Recorder is %d bytes, documented as at most 16 KiB", size)
	}
	for i, typ := 0, reflect.TypeOf(Recorder{}); i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Slice || f.Type == reflect.TypeOf(sync.Mutex{}) {
			t.Errorf("Recorder.%s is a %v: samples must not be retained or locked", f.Name, f.Type)
		}
	}
}

// The Recorder against the exact oracle, over sample sets that stress one
// bucket, every octave from 1 ns to 1 h, and two distant modes.
func TestRecorderMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sets := map[string][]time.Duration{
		"constant": make([]time.Duration, 1000),
		"single":   {1234567 * time.Nanosecond},
		"extremes": {-time.Second, 0, time.Duration(math.MaxInt64 / 2)},
	}
	for i := range sets["constant"] {
		sets["constant"][i] = 777 * time.Microsecond
	}
	for _, n := range []int{2, 16, 1000, 50_000} {
		logUniform := make([]time.Duration, n)
		bimodal := make([]time.Duration, n)
		for i := range logUniform {
			logUniform[i] = time.Duration(math.Exp(rng.Float64() * math.Log(float64(time.Hour))))
			if bimodal[i] = time.Duration(80_000 + rng.Intn(40_000)); rng.Intn(20) == 0 {
				bimodal[i] = time.Duration(40_000_000 + rng.Intn(20_000_000))
			}
		}
		sets[fmt.Sprintf("log-uniform/%d", n)] = logUniform
		sets[fmt.Sprintf("bimodal/%d", n)] = bimodal
	}
	for name, samples := range sets {
		var r Recorder
		clamped := make([]time.Duration, len(samples))
		for i, d := range samples {
			r.Record(d)
			clamped[i] = max(d, 0)
		}
		got, want := r.Snapshot(), Summarize(clamped)
		if got.Count != want.Count || got.Total != want.Total || got.Min != want.Min ||
			got.Max != want.Max || got.Mean != want.Mean {
			t.Errorf("%s: exact fields differ:\n got %+v\nwant %+v", name, got, want)
		}
		for _, q := range []struct {
			name       string
			got, exact time.Duration
		}{{"P50", got.P50, want.P50}, {"P90", got.P90, want.P90}, {"P99", got.P99, want.P99}} {
			if !withinRecorderBound(q.got, q.exact) {
				t.Errorf("%s: %s = %d, exact %d: off by more than 1/64", name, q.name, q.got, q.exact)
			}
			if q.got < got.Min || q.got > got.Max {
				t.Errorf("%s: %s = %d outside [Min %d, Max %d]", name, q.name, q.got, got.Min, got.Max)
			}
		}
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	var r Recorder
	d := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() { d += 12345; r.Record(d) }); n != 0 {
		t.Errorf("Record allocates %v times per call", n)
	}
}

// Writers race Snapshot: no count is lost, and a snapshot never reports
// fewer samples than an earlier one. Then writers race Reset, which the
// race detector checks; after the last Reset the recorder is empty.
func TestRecorderConcurrentRecordSnapshotReset(t *testing.T) {
	const writers, perWriter = 8, 20_000
	var r Recorder
	record := func(wg *sync.WaitGroup) {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 1; i <= perWriter; i++ {
					r.Record(time.Duration(i*(w+1)) * time.Microsecond)
				}
			}(w)
		}
	}
	var wg sync.WaitGroup
	record(&wg)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := 0
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		s := r.Snapshot()
		if s.Count < last {
			t.Fatalf("snapshot count went from %d to %d with no Reset", last, s.Count)
		}
		if s.Count > 0 && (s.P50 < s.Min || s.P99 > s.Max || s.P50 > s.P99) {
			t.Fatalf("inconsistent snapshot under load: %+v", s)
		}
		last = s.Count
	}
	s := r.Snapshot()
	if s.Count != writers*perWriter {
		t.Errorf("Count = %d, want %d: samples lost", s.Count, writers*perWriter)
	}
	if want := time.Duration(perWriter*(perWriter+1)/2*(writers*(writers+1)/2)) * time.Microsecond; s.Total != want {
		t.Errorf("Total = %v, want %v", s.Total, want)
	}

	record(&wg)
	for i := 0; i < 100; i++ {
		r.Reset()
		r.Snapshot()
	}
	wg.Wait()
	r.Reset()
	if s := r.Snapshot(); s != (Summary{}) {
		t.Errorf("after Reset: %+v", s)
	}
}
