package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/soapenc"
	"repro/internal/trace"
)

// packedEchoOnce sends one packed batch of m echo calls.
func packedEchoOnce(b *testing.B, env *Env, m int, arg soapenc.Field) {
	b.Helper()
	batch := env.Client.NewBatch()
	for i := 0; i < m; i++ {
		batch.Add("Echo", "echo", arg)
	}
	if err := batch.Send(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPackedEcho is the acceptance benchmark for the tracing fast
// path: the disabled variant (nil tracer, the default configuration) and
// the enabled variant run the identical packed-echo workload. Compare
// ns/op between sub-benchmarks; disabled must sit within noise of a
// pre-tracing build (<2% — its only cost is one nil check per hop).
func BenchmarkPackedEcho(b *testing.B) {
	const m = 16
	arg := soapenc.F("data", strings.Repeat("a", 10))
	for _, mode := range []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"tracing=disabled", nil},
		{"tracing=enabled", trace.New(4096)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			env, err := NewEnv(EnvOptions{Tracer: mode.tracer})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			packedEchoOnce(b, env, m, arg) // warm pools and caches
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				packedEchoOnce(b, env, m, arg)
			}
		})
	}
}

// BenchmarkSerialEcho is the unpacked baseline in both tracing modes.
func BenchmarkSerialEcho(b *testing.B) {
	arg := soapenc.F("data", strings.Repeat("a", 10))
	for _, mode := range []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"tracing=disabled", nil},
		{"tracing=enabled", trace.New(4096)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			env, err := NewEnv(EnvOptions{Tracer: mode.tracer})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			if _, err := env.Client.Call("Echo", "echo", arg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.Client.Call("Echo", "echo", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracerRecord prices the disabled hop in isolation: a nil
// tracer's Enabled check plus nothing else.
func BenchmarkTracerRecord(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var tr *trace.Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr.Enabled() {
				tr.Record(trace.Span{})
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tr := trace.New(4096)
		span := trace.Span{Trace: 1, Stage: trace.StageApp, ID: 0,
			Op: "Echo.echo", Queue: time.Microsecond, Service: time.Millisecond}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr.Enabled() {
				tr.Record(span)
			}
		}
	})
}

func TestTraceExperiment(t *testing.T) {
	skipTiming(t)
	r, err := RunTrace(16, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Modes) != 2 {
		t.Fatalf("modes = %d", len(r.Modes))
	}
	for _, mode := range r.Modes {
		if mode.SpansDropped != 0 {
			t.Errorf("%s: %d spans dropped — ring undersized for the workload", mode.Name, mode.SpansDropped)
		}
		stages := make(map[string]TraceStageRow)
		for _, row := range mode.Stages {
			stages[row.Stage] = row
		}
		for _, stage := range []string{trace.StageProtocol, trace.StageDispatch,
			trace.StageApp, trace.StageAssemble} {
			if stages[stage].Spans == 0 {
				t.Errorf("%s: no %s spans", mode.Name, stage)
			}
		}
		if got := stages[trace.StageApp].Spans; got != 32 {
			t.Errorf("%s: app spans = %d, want 32 (16 requests x 2 reps)", mode.Name, got)
		}
	}
	serial, packed := r.Modes[0], r.Modes[1]
	count := func(m TraceModeResult, stage string) int64 {
		for _, row := range m.Stages {
			if row.Stage == stage {
				return row.Spans
			}
		}
		return 0
	}
	// The packing story in span counts: 32 protocol traversals collapse to 2.
	if count(serial, trace.StageProtocol) != 32 || count(packed, trace.StageProtocol) != 2 {
		t.Errorf("protocol spans serial/packed = %d/%d, want 32/2",
			count(serial, trace.StageProtocol), count(packed, trace.StageProtocol))
	}
	var b strings.Builder
	r.Print(&b)
	for _, want := range []string{"server.app", "queue-mean", "svc-p95", "Our Approach"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("trace table missing %q:\n%s", want, b.String())
		}
	}
}
