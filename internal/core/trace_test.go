package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/soapenc"
	"repro/internal/trace"
	"repro/internal/xmldom"
)

// spansByStage indexes a snapshot for assertion convenience.
func spansByStage(spans []trace.Span) map[string][]trace.Span {
	out := make(map[string][]trace.Span)
	for _, s := range spans {
		out[s.Stage] = append(out[s.Stage], s)
	}
	return out
}

// appQueueGauge returns tr's app.queue gauge, which exists once a submit to
// the application stage has sampled the queue's depth.
func appQueueGauge(tr *trace.Tracer) (trace.GaugeValue, bool) {
	for _, g := range tr.Gauges() {
		if g.Name == "app.queue" {
			return g, true
		}
	}
	return trace.GaugeValue{}, false
}

func TestTraceSingleCallFullPath(t *testing.T) {
	// One tracer shared by client and server: a single call must leave one
	// span at every hop of the request path, all under the same trace id.
	tr := trace.New(256)
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.Tracer = tr
		cc.Tracer = tr
	})
	if _, err := sys.client.Call("Echo", "echo", soapenc.F("m", "hi")); err != nil {
		t.Fatal(err)
	}
	byStage := spansByStage(tr.Snapshot())
	for _, stage := range []string{trace.StageClientPack, trace.StageClientSend,
		trace.StageProtocol, trace.StageDispatch, trace.StageApp,
		trace.StageAssemble, trace.StageClientUnpack} {
		if len(byStage[stage]) != 1 {
			t.Errorf("stage %s: %d spans, want 1", stage, len(byStage[stage]))
		}
	}
	// A single call's response is encoded once the operation has run.
	if asm, app := byStage[trace.StageAssemble], byStage[trace.StageApp]; len(asm) == 1 && len(app) == 1 && !asm[0].Start.After(app[0].Start) {
		t.Errorf("server.assemble starts at %v, the operation at %v", asm[0].Start, app[0].Start)
	}
	var id uint64
	for _, spans := range byStage {
		for _, s := range spans {
			if s.Trace == 0 {
				t.Errorf("stage %s span has zero trace id", s.Stage)
			}
			if id == 0 {
				id = s.Trace
			} else if s.Trace != id {
				t.Errorf("stage %s span trace id %d, want %d (all hops share one id)", s.Stage, s.Trace, id)
			}
		}
	}
}

func TestTracePackedBatchSpans(t *testing.T) {
	// A packed batch of N calls: one span per hop for the envelope plus one
	// server.app span per packed request, each tagged with its spi:id and
	// carrying the queue-wait/service split.
	tr := trace.New(256)
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.Tracer = tr
		cc.Tracer = tr
	})
	b := sys.client.NewBatch()
	const n = 4
	for i := 0; i < n; i++ {
		b.Add("Echo", "slow")
	}
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	byStage := spansByStage(tr.Snapshot())
	app := byStage[trace.StageApp]
	if len(app) != n {
		t.Fatalf("server.app spans = %d, want %d (one per packed request)", len(app), n)
	}
	seen := make(map[int]bool)
	for _, s := range app {
		if s.ID < 0 || s.ID >= n {
			t.Errorf("app span spi:id = %d, out of range [0,%d)", s.ID, n)
		}
		seen[s.ID] = true
		if s.Op != "Echo.slow" {
			t.Errorf("app span Op = %q, want Echo.slow", s.Op)
		}
		if s.Service < 15*time.Millisecond {
			t.Errorf("app span Service = %v, want >= ~20ms (the op sleeps)", s.Service)
		}
		if s.Queue < 0 {
			t.Errorf("app span Queue = %v, want >= 0", s.Queue)
		}
	}
	if len(seen) != n {
		t.Errorf("distinct spi:ids = %d, want %d", len(seen), n)
	}
	if got := len(byStage[trace.StageClientUnpack]); got != 1 {
		t.Errorf("client.unpack spans = %d, want 1 (whole batch)", got)
	}
	if got := len(byStage[trace.StageDispatch]); got != 1 {
		t.Errorf("server.dispatch spans = %d, want 1", got)
	}
	wantAssembleFromDispatchStart(t, byStage)
	// The queue gauge was sampled during fan-out.
	if _, ok := appQueueGauge(tr); !ok {
		t.Error("no app.queue gauge was recorded during packed dispatch")
	}
}

func TestTraceAppQueuePeaksBehindHeldWorker(t *testing.T) {
	// The app.queue gauge counts tasks waiting for a worker, sampled ahead of
	// each submit. With the one worker held by a gated call, a 4-entry pack's
	// entries all wait, so the samples ahead of its last three read 1, 2, 3
	// (2, 3, 4 when the gated call is still queued too).
	tr := trace.New(256)
	sys, release := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.AppWorkers = 1
		sc.Tracer = tr
	})
	gated := sys.client.Go("Echo", "gate")
	b := sys.client.NewBatch()
	for i := 0; i < 4; i++ {
		b.Add("Echo", "echo", soapenc.F("m", "x"))
	}
	sys.submits.wait(t, 1, "the gated call")
	sent := make(chan error, 1)
	go func() { sent <- b.Send() }()
	sys.submits.wait(t, 5, "the pack queueing behind it")
	if g, _ := appQueueGauge(tr); g.Peak < 3 {
		t.Errorf("app.queue peak = %d with four entries queued behind a held worker, want >= 3", g.Peak)
	}
	release()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if _, err := gated.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTracePlanSpans(t *testing.T) {
	// A plan takes the client path a batch does: one client.pack, client.send
	// and client.unpack span for the message, under the id its server spans
	// carry.
	tr := trace.New(256)
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.Tracer = tr
		cc.Tracer = tr
	})
	p := sys.client.NewPlan()
	a := p.Add("Echo", "echo", soapenc.F("m", "hi"))
	p.Add("Echo", "echo", soapenc.F("m", a.Ref("m")))
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	byStage := spansByStage(tr.Snapshot())
	for _, stage := range []string{trace.StageClientPack, trace.StageClientSend, trace.StageClientUnpack, trace.StageDispatch} {
		if len(byStage[stage]) != 1 {
			t.Errorf("stage %s: %d spans, want 1", stage, len(byStage[stage]))
		}
	}
	wantAssembleFromDispatchStart(t, byStage)
	id := byStage[trace.StageDispatch][0].Trace
	for _, spans := range byStage {
		for _, s := range spans {
			if s.Trace != id || id == 0 {
				t.Errorf("stage %s span has trace id %d, the dispatch span %d", s.Stage, s.Trace, id)
			}
		}
	}
}

func TestTracePlanStepAppSpans(t *testing.T) {
	// A plan step goes to the application stage the way a packed entry does,
	// so each step leaves one server.app span with its own id and operation,
	// and scheduling it samples the queue gauge.
	tr := trace.New(256)
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.Tracer = tr
		cc.Tracer = tr
	})
	p := sys.client.NewPlan()
	a := p.Add("Echo", "echo", soapenc.F("m", "hi"))
	b := p.Add("Echo", "echo", soapenc.F("m", a.Ref("m")))
	p.Add("Echo", "echo", soapenc.F("m", b.Ref("m")))
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	byStage := spansByStage(tr.Snapshot())
	app := byStage[trace.StageApp]
	if len(app) != 3 {
		t.Fatalf("server.app spans = %d, want 3 (one per plan step)", len(app))
	}
	dispatch := byStage[trace.StageDispatch]
	if len(dispatch) != 1 {
		t.Fatalf("server.dispatch spans = %d, want 1", len(dispatch))
	}
	seen := make(map[int]bool)
	for _, s := range app {
		seen[s.ID] = true
		if s.ID < 0 || s.ID > 2 {
			t.Errorf("app span id = %d, want a step index in [0,3)", s.ID)
		}
		if s.Op != "Echo.echo" {
			t.Errorf("app span Op = %q, want Echo.echo", s.Op)
		}
		if s.Trace != dispatch[0].Trace {
			t.Errorf("app span trace id = %d, the dispatch span's %d", s.Trace, dispatch[0].Trace)
		}
		if s.Queue < 0 || s.Service < 0 {
			t.Errorf("app span Queue = %v, Service = %v, want a queue-wait / service split", s.Queue, s.Service)
		}
	}
	if len(seen) != 3 {
		t.Errorf("distinct step ids = %d, want 3", len(seen))
	}
	if _, ok := appQueueGauge(tr); !ok {
		t.Error("no app.queue gauge was sampled while scheduling the plan's steps")
	}
}

// wantAssembleFromDispatchStart checks the one server.assemble span of a
// packed or plan response: its encoding is interleaved with the entries' runs,
// so the span carries the encode time from where the dispatch began.
func wantAssembleFromDispatchStart(t *testing.T, byStage map[string][]trace.Span) {
	t.Helper()
	asm, dispatch := byStage[trace.StageAssemble], byStage[trace.StageDispatch]
	if len(asm) != 1 || len(dispatch) != 1 || !asm[0].Start.Equal(dispatch[0].Start) {
		t.Errorf("server.assemble spans %+v, want one starting with server.dispatch %+v", asm, dispatch)
	}
}

func TestTraceSignedPackSpans(t *testing.T) {
	// A client with header providers writes the body once and frames it per
	// attempt; an attempt still records one client.pack span, as it does
	// without providers, whatever it sends.
	for _, kind := range retriedKinds {
		t.Run(kind.name, func(t *testing.T) {
			tr := trace.New(256)
			sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
				cc.Tracer = tr
				cc.HeaderProviders = []HeaderProvider{headerProviderFunc(func([]byte) ([]*xmldom.Element, error) {
					return nil, nil
				})}
			})
			kind.send(t, sys.client)
			byStage := spansByStage(tr.Snapshot())
			for _, stage := range []string{trace.StageClientPack, trace.StageClientSend, trace.StageClientUnpack} {
				if len(byStage[stage]) != 1 {
					t.Errorf("stage %s: %d spans, want 1", stage, len(byStage[stage]))
				}
			}
		})
	}
}

func TestTraceDisabledRecordsNothing(t *testing.T) {
	// The default configuration (no tracer) must work exactly as before and
	// emit no SPI-Trace header.
	sys := newSystem(t, nil)
	if _, err := sys.client.Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
		t.Fatal(err)
	}
	var tr *trace.Tracer
	if tr.Enabled() {
		t.Error("nil tracer claims enabled")
	}
}

func TestTraceServerOnlyBeginsOwnTrace(t *testing.T) {
	// Tracing only the server side: no SPI-Trace header arrives, so the
	// server starts a local trace and the server-side spans still correlate.
	tr := trace.New(256)
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.Tracer = tr
	})
	if _, err := sys.client.Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
		t.Fatal(err)
	}
	byStage := spansByStage(tr.Snapshot())
	if len(byStage[trace.StageClientPack]) != 0 || len(byStage[trace.StageClientSend]) != 0 {
		t.Error("client spans recorded despite untraced client")
	}
	var id uint64
	for _, stage := range []string{trace.StageProtocol, trace.StageDispatch, trace.StageApp, trace.StageAssemble} {
		spans := byStage[stage]
		if len(spans) != 1 {
			t.Fatalf("stage %s: %d spans, want 1", stage, len(spans))
		}
		if spans[0].Trace == 0 {
			t.Errorf("stage %s: zero trace id, want server-local id", stage)
		}
		if id == 0 {
			id = spans[0].Trace
		} else if spans[0].Trace != id {
			t.Errorf("stage %s: trace id %d, want %d", stage, spans[0].Trace, id)
		}
	}
}

func TestDebugStatsEndpoint(t *testing.T) {
	tr := trace.New(256)
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.Tracer = tr
		cc.Tracer = tr
		sc.DebugEndpoints = true
	})
	if _, err := sys.client.Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
		t.Fatal(err)
	}
	spansByStage(tr.Snapshot())
	hc := &httpx.Client{Dial: sys.link.Dial}
	defer hc.Close()
	resp, err := hc.DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/stats", nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET /spi/stats: HTTP %d: %s", resp.StatusCode, resp.Body)
	}
	var snap struct {
		Server struct {
			Envelopes int64
		} `json:"server"`
		Stages []struct {
			Stage string
			Spans int64
		} `json:"stages"`
	}
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, resp.Body)
	}
	if snap.Server.Envelopes < 1 {
		t.Errorf("Envelopes = %d, want >= 1", snap.Server.Envelopes)
	}
	hasApp := false
	for _, s := range snap.Stages {
		if s.Stage == trace.StageApp && s.Spans >= 1 {
			hasApp = true
		}
	}
	if !hasApp {
		t.Errorf("stats carried no server.app stage summary: %s", resp.Body)
	}
}

// TestDebugStatsRuntime checks the "runtime" object of GET /spi/stats: it
// carries the five GC fields, and its cycle count advances across a
// collection.
func TestDebugStatsRuntime(t *testing.T) {
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) { sc.DebugEndpoints = true })
	hc := &httpx.Client{Dial: sys.link.Dial}
	defer hc.Close()
	read := func() map[string]float64 {
		t.Helper()
		resp, err := hc.DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/stats", nil))
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Runtime map[string]float64 `json:"runtime"`
		}
		if err := json.Unmarshal(resp.Body, &snap); err != nil {
			t.Fatalf("stats not JSON: %v\n%s", err, resp.Body)
		}
		for _, key := range []string{"gc_cycles", "gc_cpu_seconds", "heap_goal_bytes", "heap_live_bytes", "gc_percent",
			"heap_objects_bytes", "heap_unused_bytes", "heap_free_bytes", "stacks_bytes", "metadata_bytes", "profiling_buckets_bytes"} {
			if _, ok := snap.Runtime[key]; !ok {
				t.Errorf("runtime.%s missing from /spi/stats: %s", key, resp.Body)
			}
		}
		return snap.Runtime
	}
	before := read()
	runtime.GC()
	after := read()
	if after["gc_cycles"] <= before["gc_cycles"] {
		t.Errorf("runtime.gc_cycles %v -> %v across runtime.GC()", before["gc_cycles"], after["gc_cycles"])
	}
	for _, key := range []string{"heap_objects_bytes", "stacks_bytes", "metadata_bytes"} {
		if after[key] <= 0 {
			t.Errorf("runtime.%s = %v on a running server, want above zero", key, after[key])
		}
	}
}

func TestDebugPprofEndpoint(t *testing.T) {
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.DebugEndpoints = true
	})
	hc := &httpx.Client{Dial: sys.link.Dial}
	defer hc.Close()
	resp, err := hc.DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/pprof/goroutine", nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET /spi/pprof/goroutine: HTTP %d", resp.StatusCode)
	}
	if !strings.Contains(string(resp.Body), "goroutine") {
		t.Errorf("profile body does not mention goroutines: %.120s", resp.Body)
	}
	if resp, err = hc.DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/pprof/nonsense", nil)); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != 404 {
		t.Errorf("unknown profile: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestDebugEndpointsOffByDefault(t *testing.T) {
	sys := newSystem(t, nil)
	hc := &httpx.Client{Dial: sys.link.Dial}
	defer hc.Close()
	resp, err := hc.DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/stats", nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Errorf("debug endpoint reachable without DebugEndpoints: HTTP %d", resp.StatusCode)
	}
}

// jsonKeys lists every key path of a JSON document, sorted: an object's
// keys joined by dots, an array's elements under "[]".
func jsonKeys(t *testing.T, doc []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, doc)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				p := path + "." + k
				seen[p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		}
	}
	walk("", v)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k[1:])
	}
	sort.Strings(keys)
	return []byte(strings.Join(keys, "\n") + "\n")
}

// TestDebugStatsKeys pins the key set of a traced server's /spi/stats
// document after a call, a fault and a packed message: what a reader of
// the document may look up.
func TestDebugStatsKeys(t *testing.T) {
	tr := trace.New(1024)
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.Tracer = tr
		sc.DebugEndpoints = true
	})
	if _, err := sys.client.Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.client.Call("Echo", "fail"); err == nil {
		t.Fatal("Echo.fail did not fault")
	}
	b := sys.client.NewBatch()
	b.Add("Echo", "echo", soapenc.F("m", "y"))
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	hc := &httpx.Client{Dial: sys.link.Dial}
	defer hc.Close()
	resp, err := hc.DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/stats", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	checkGolden(t, "stats_keys_server.txt", jsonKeys(t, resp.Body))
}

// checkGolden compares got with testdata/name; -update rewrites the file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
