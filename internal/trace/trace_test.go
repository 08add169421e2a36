package trace

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if id := tr.Begin(); id != 0 {
		t.Errorf("nil Begin = %d, want 0", id)
	}
	tr.Record(Span{Stage: StageApp, Service: time.Millisecond})
	if tr.Snapshot() != nil || tr.Stages() != nil || tr.Gauges() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer accessors must return zero values")
	}
	tr.Gauge("x").Set(1) // nil gauge from nil tracer: still a no-op
}

func TestBeginUnique(t *testing.T) {
	tr := New(16)
	a, b := tr.Begin(), tr.Begin()
	if a == 0 || b == 0 || a == b {
		t.Errorf("Begin ids = %d, %d; want distinct non-zero", a, b)
	}
}

func TestRecordAndSnapshotOrder(t *testing.T) {
	tr := New(8)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Stage: StageApp, ID: i, Service: time.Duration(i) * time.Millisecond})
	}
	spans := tr.Snapshot()
	if len(spans) != 5 {
		t.Fatalf("len = %d, want 5", len(spans))
	}
	for i, s := range spans {
		if s.ID != i {
			t.Errorf("spans[%d].ID = %d, want %d (oldest first)", i, s.ID, i)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 7; i++ {
		tr.Record(Span{Stage: StageApp, ID: i})
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("len = %d, want capacity 4", len(spans))
	}
	for i, s := range spans {
		if want := 3 + i; s.ID != want {
			t.Errorf("spans[%d].ID = %d, want %d", i, s.ID, want)
		}
	}
	if tr.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", tr.Dropped())
	}
}

func TestStagesAggregatesAndOrders(t *testing.T) {
	tr := New(64)
	// Record out of path order plus one custom stage.
	tr.Record(Span{Stage: StageApp, Queue: 2 * time.Millisecond, Service: 5 * time.Millisecond})
	tr.Record(Span{Stage: StageApp, Queue: 4 * time.Millisecond, Service: 7 * time.Millisecond})
	tr.Record(Span{Stage: StageProtocol, Service: time.Millisecond})
	tr.Record(Span{Stage: "custom.stage", Service: time.Millisecond})
	tr.Record(Span{Stage: StageClientPack, Service: time.Millisecond})

	stages := tr.Stages()
	gotOrder := make([]string, len(stages))
	for i, s := range stages {
		gotOrder[i] = s.Stage
	}
	want := []string{StageClientPack, StageProtocol, StageApp, "custom.stage"}
	if fmt.Sprint(gotOrder) != fmt.Sprint(want) {
		t.Errorf("stage order = %v, want %v", gotOrder, want)
	}
	for _, s := range stages {
		if s.Stage != StageApp {
			continue
		}
		if s.Spans != 2 {
			t.Errorf("app Spans = %d, want 2", s.Spans)
		}
		if s.Queue.Sum != 6*time.Millisecond {
			t.Errorf("app queue Sum = %v, want 6ms", s.Queue.Sum)
		}
		if s.Service.Sum != 12*time.Millisecond {
			t.Errorf("app service Sum = %v, want 12ms", s.Service.Sum)
		}
	}
}

func TestGauges(t *testing.T) {
	tr := New(4)
	tr.Gauge("b.queue").Set(3)
	tr.Gauge("b.queue").Set(1)
	tr.Gauge("a.depth").Set(7)
	gs := tr.Gauges()
	if len(gs) != 2 || gs[0].Name != "a.depth" || gs[1].Name != "b.queue" {
		t.Fatalf("Gauges = %+v, want sorted [a.depth b.queue]", gs)
	}
	if gs[1].Value != 1 || gs[1].Peak != 3 {
		t.Errorf("b.queue = %+v, want Value 1 Peak 3", gs[1])
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != 0 {
		t.Error("empty context must yield trace id 0")
	}
	ctx = NewContext(ctx, 42)
	if got := FromContext(ctx); got != 42 {
		t.Errorf("FromContext = %d, want 42", got)
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Span{Trace: tr.Begin(), Stage: StageApp, Service: time.Microsecond})
				tr.Gauge("q").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, s := range tr.Stages() {
		total += s.Spans
	}
	if total != 4000 {
		t.Errorf("aggregated spans = %d, want 4000", total)
	}
	if len(tr.Snapshot()) != 128 {
		t.Errorf("ring holds %d, want capacity 128", len(tr.Snapshot()))
	}
}
