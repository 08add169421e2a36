// Package trace threads a lightweight trace context through the SPI
// request path and records per-stage spans into a ring-buffer sink.
//
// The paper's central evidence (Figures 5-7, §4.2-4.3) is a per-stage
// latency breakdown — protocol parse, dispatch, application execution,
// response assembly — and this package is the substrate that makes the
// same attribution possible in this stack. Each hop on the request path
//
//	client.pack → client.send → server.protocol → server.dispatch →
//	server.app (per request) → server.assemble → client.unpack
//
// records one Span carrying the stage name, the spi:id of the packed
// request it belongs to (if any), and the split between queue wait and
// service time. Spans from the client and server sides of one exchange
// share a trace id, generated by the client and propagated over the wire
// (the SPI-Trace HTTP header), so a sink shared by both ends can
// reconstruct the full path of a message.
//
// Disabled tracing is the common case and must cost nothing: every
// recording site holds a *Tracer that may be nil, and all methods are
// nil-safe, so the disabled path is one pointer test per hop — no
// timestamping, no allocation, no locks.
package trace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Canonical stage names, in request-path order.
const (
	// StageClientPack is client-side request construction: DOM assembly
	// and envelope serialization (or a template-cache render).
	StageClientPack = "client.pack"
	// StageClientSend is the full HTTP exchange as seen by the client:
	// dial/reuse, request write, response read.
	StageClientSend = "client.send"
	// StageProtocol is server-side envelope parsing on the protocol
	// thread.
	StageProtocol = "server.protocol"
	// StageDispatch is server-side dispatch: interpreting the body,
	// fanning requests out to the application stage and waiting for the
	// assembler — it therefore contains the server.app spans.
	StageDispatch = "server.dispatch"
	// StageApp is one operation execution on an application-stage worker.
	// Queue is the time between submission and a worker picking the task
	// up; Service is the execution itself.
	StageApp = "server.app"
	// StageAssemble is server-side response envelope serialization.
	StageAssemble = "server.assemble"
	// StageClientUnpack is client-side response decoding and routing of
	// packed results back to their futures.
	StageClientUnpack = "client.unpack"
)

// stageOrder positions the canonical stages for sorted reporting.
var stageOrder = map[string]int{
	StageClientPack:   0,
	StageClientSend:   1,
	StageProtocol:     2,
	StageDispatch:     3,
	StageApp:          4,
	StageAssemble:     5,
	StageClientUnpack: 6,
}

// Span is one recorded hop of a traced request.
type Span struct {
	// Trace correlates the spans of one logical message across client and
	// server. Zero means the hop ran outside any trace context.
	Trace uint64
	// Stage is the stage name, normally one of the Stage constants.
	Stage string
	// ID is the spi:id of the packed request this span belongs to, or -1
	// for whole-envelope spans.
	ID int
	// Op annotates the span ("Service.op" for application spans, the
	// request target for transport spans). May be empty.
	Op string
	// Start is when service began (after any queue wait).
	Start time.Time
	// Queue is time spent waiting before service began (application-stage
	// queue wait; zero for stages with no queue).
	Queue time.Duration
	// Service is the time the stage spent doing its work.
	Service time.Duration
}

// stageHist aggregates one stage's histograms.
type stageHist struct {
	spans   atomic.Int64
	queue   metrics.Histogram
	service metrics.Histogram
}

// Tracer is a span sink: a fixed-capacity ring buffer of the most recent
// spans plus per-stage latency histograms and named gauges. A nil *Tracer
// is the disabled tracer; every method on it is safe to call and does
// nothing, so call sites need no conditional beyond the one the method
// itself performs.
type Tracer struct {
	capacity int

	mu      sync.Mutex
	buf     []Span
	head    int // index of the oldest span once the ring has wrapped
	wrapped bool

	seq     atomic.Uint64
	dropped atomic.Int64

	aggMu  sync.RWMutex
	stages map[string]*stageHist
	gauges map[string]*metrics.Gauge
}

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity.
const DefaultCapacity = 8192

// New returns an enabled tracer whose ring keeps the most recent capacity
// spans (DefaultCapacity if capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		capacity: capacity,
		buf:      make([]Span, 0, capacity),
		stages:   make(map[string]*stageHist),
		gauges:   make(map[string]*metrics.Gauge),
	}
}

// Enabled reports whether the tracer records anything. This is the one
// branch the disabled fast path pays.
func (t *Tracer) Enabled() bool { return t != nil }

// Now is when a stage about to be recorded starts: the current time, or the
// zero time on a disabled tracer, which never records it.
func (t *Tracer) Now() (start time.Time) {
	if t != nil {
		start = time.Now()
	}
	return start
}

// Begin allocates a fresh trace id (never zero).
func (t *Tracer) Begin() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Add(1)
}

// Record adds one span to the ring and folds it into the stage histograms.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	h := t.stage(s.Stage)
	h.spans.Add(1)
	h.queue.Observe(s.Queue)
	h.service.Observe(s.Service)

	t.mu.Lock()
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.head] = s
		t.head++
		if t.head == t.capacity {
			t.head = 0
		}
		t.wrapped = true
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// stage returns the aggregate bucket for a stage name, creating it on
// first use.
func (t *Tracer) stage(name string) *stageHist {
	t.aggMu.RLock()
	h := t.stages[name]
	t.aggMu.RUnlock()
	if h != nil {
		return h
	}
	t.aggMu.Lock()
	if h = t.stages[name]; h == nil {
		h = &stageHist{}
		t.stages[name] = h
	}
	t.aggMu.Unlock()
	return h
}

// Gauge returns the named gauge, creating it on first use. On a nil tracer
// it returns nil, which every metrics.Gauge method tolerates.
func (t *Tracer) Gauge(name string) *metrics.Gauge {
	if t == nil {
		return nil
	}
	t.aggMu.RLock()
	g := t.gauges[name]
	t.aggMu.RUnlock()
	if g != nil {
		return g
	}
	t.aggMu.Lock()
	if g = t.gauges[name]; g == nil {
		g = &metrics.Gauge{}
		t.gauges[name] = g
	}
	t.aggMu.Unlock()
	return g
}

// GaugeValue is a named gauge reading.
type GaugeValue struct {
	Name  string
	Value int64
	Peak  int64
}

// Gauges snapshots every gauge, sorted by name.
func (t *Tracer) Gauges() []GaugeValue {
	if t == nil {
		return nil
	}
	t.aggMu.RLock()
	out := make([]GaugeValue, 0, len(t.gauges))
	for name, g := range t.gauges {
		out = append(out, GaugeValue{Name: name, Value: g.Load(), Peak: g.Peak()})
	}
	t.aggMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot copies the ring's spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if t.wrapped {
		out = append(out, t.buf[t.head:]...)
		out = append(out, t.buf[:t.head]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Dropped counts spans overwritten because the ring was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// StageSummary digests one stage's spans: how many, and the queue-wait and
// service-time distributions.
type StageSummary struct {
	Stage   string
	Spans   int64
	Queue   metrics.HistogramSummary
	Service metrics.HistogramSummary
}

// Stages summarizes every stage seen so far, canonical request-path stages
// first (in path order), then any custom stages alphabetically.
func (t *Tracer) Stages() []StageSummary {
	if t == nil {
		return nil
	}
	t.aggMu.RLock()
	out := make([]StageSummary, 0, len(t.stages))
	for name, h := range t.stages {
		out = append(out, StageSummary{
			Stage:   name,
			Spans:   h.spans.Load(),
			Queue:   h.queue.Snapshot(),
			Service: h.service.Snapshot(),
		})
	}
	t.aggMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		oi, iok := stageOrder[out[i].Stage]
		oj, jok := stageOrder[out[j].Stage]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return out[i].Stage < out[j].Stage
		}
	})
	return out
}

// ctxKey is the context key for the trace id.
type ctxKey struct{}

// NewContext returns ctx carrying the trace id.
func NewContext(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// FromContext extracts the trace id from ctx, or zero if none is attached.
func FromContext(ctx context.Context) uint64 {
	id, _ := ctx.Value(ctxKey{}).(uint64)
	return id
}
