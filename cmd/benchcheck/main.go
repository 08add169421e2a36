// Command benchcheck runs the key micro- and throughput benchmarks
// programmatically and writes a machine-readable JSON snapshot — the
// perf-trajectory guard. Each PR appends its snapshot (BENCH_prN.json) so
// regressions between PRs diff as numbers, not as vibes.
//
// Usage:
//
//	benchcheck                 # writes BENCH_local.json (gitignored scratch)
//	benchcheck -out BENCH_prN.json
//	                           # a PR's snapshot, named explicitly so a
//	                           # bare run never overwrites a committed one
//	benchcheck -benchtime 2s   # more stable numbers (default 1s)
//	benchcheck -baseline BENCH_pr24.json,BENCH_pr30.json
//	                           # compare mode: exit non-zero when a row's
//	                           # allocs/op grew more than 2% (35% on the
//	                           # timing-dependent rows) or its bytes/op more
//	                           # than 35% vs the chain's first file that
//	                           # records it; ns/op is printed, not judged
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/msgcache"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/stage"
	"repro/internal/trace"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	timing      bool    // the row's gate class (row.timing); not written
}

// Report is the written snapshot.
type Report struct {
	GoVersion string   `json:"go_version"`
	Benchtime string   `json:"benchtime"`
	Machine   Machine  `json:"machine"`
	Results   []Result `json:"results"`
}

// Machine says what a snapshot was measured on: ns/op from two different
// boxes do not gate each other (snapshots before PR 13 carry none).
type Machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func readMachine() Machine {
	m := Machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Kernel: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if _, rest, ok := strings.Cut(string(raw), "model name"); ok {
			line, _, _ := strings.Cut(rest, "\n")
			m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), ":"))
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(raw))
	}
	return m
}

// row is one gated benchmark: its name, its gate class and its timed body.
type row struct {
	name string
	// timing marks a row whose allocs/op move with scheduling: how many
	// single calls one coalescer window catches, how many reads and wake-ups
	// a thousand pipelined connections' bursts take. Over five runs of the
	// gate on a 2-vCPU box the coalesced row spread 4.2 % and the connection
	// fleets 0.3–0.5 %; every other row repeated its count within 0.2 %, most
	// exactly. A timing row keeps bytesTolerancePct on allocs/op too; every
	// other row is held to allocTolerancePct.
	timing bool
	bench  func(b *testing.B)
	sweep  func() error // instead of bench: one iteration, see measure
	// note, when set, is printed under the row's line once it has run: a
	// figure that tells what moved its allocs/op. Never written or gated.
	note func() string
}

// group is rows that share a fixture: open, when set, builds it before the
// first row runs, so listing the table starts nothing, and returns its close.
type group struct {
	open func() (close func(), err error)
	rows []row
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	testing.Init() // registers test.benchtime before we touch it
	out := flag.String("out", "BENCH_local.json", "output JSON path")
	benchtime := flag.Duration("benchtime", time.Second, "minimum run time per benchmark")
	baseline := flag.String("baseline", "", "comma-separated baseline chain to compare against, first file wins per benchmark (empty disables)")
	flag.Parse()
	// testing.Benchmark honours the package-level benchtime flag.
	if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		return fmt.Errorf("set benchtime: %w", err)
	}

	report := Report{GoVersion: runtime.Version(), Benchtime: benchtime.String(), Machine: readMachine()}
	groups := table()
	for i, g := range groups {
		groups[i] = group{} // its fixture is garbage once its rows have run
		results, err := g.run()
		if err != nil {
			return err
		}
		report.Results = append(report.Results, results...)
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Results))
	if *baseline == "" {
		return nil
	}
	return compare(*baseline, report)
}

// run opens g's fixture, measures its rows in order and closes the fixture.
func (g group) run() ([]Result, error) {
	if g.open != nil {
		close, err := g.open()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.rows[0].name, err)
		}
		defer close()
	}
	var out []Result
	for _, r := range g.rows {
		res, err := r.measure()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		if res.NsPerOp > 0 {
			res.OpsPerSec = 1e9 / res.NsPerOp
		}
		fmt.Printf("%-32s %12d ops %14.1f ns/op %10.0f ops/s %8d allocs/op\n",
			res.Name, res.N, res.NsPerOp, res.OpsPerSec, res.AllocsPerOp)
		if r.note != nil {
			fmt.Printf("%-32s %s\n", "", r.note())
		}
		out = append(out, res)
	}
	return out, nil
}

// measure runs r's bench under testing.Benchmark. A row with a sweep instead
// is one whose bytes depend on how many garbage collections an iteration
// happens to span: a cycle drains the buffer pools of ten thousand
// connections, and the sweep that follows refills them at its own expense, so
// on a slow minute the same code allocates twice as much (78–194 MB a sweep
// on this box in one afternoon). Its sweep runs n times, each measured by
// itself, and the run that allocated least — the one the pools carried — is
// kept, whatever the benchtime.
func (r row) measure() (Result, error) {
	if r.sweep == nil {
		b := testing.Benchmark(r.bench)
		return Result{Name: r.name, N: b.N, NsPerOp: float64(b.T.Nanoseconds()) / float64(b.N),
			AllocsPerOp: b.AllocsPerOp(), BytesPerOp: b.AllocedBytesPerOp(), timing: r.timing}, nil
	}
	const n = 3
	var best Result
	for i := 0; i < n; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := r.sweep(); err != nil {
			return Result{}, err
		}
		ns := float64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&after)
		res := Result{Name: r.name, N: n, NsPerOp: ns, timing: r.timing,
			AllocsPerOp: int64(after.Mallocs - before.Mallocs), BytesPerOp: int64(after.TotalAlloc - before.TotalAlloc)}
		if i == 0 || res.BytesPerOp < best.BytesPerOp {
			best = res
		}
	}
	return best, nil
}

// table is every gated row, in the order they run and are reported.
func table() []group {
	return []group{
		// --- codec micro-benchmarks ---------------------------------------
		envelopeRows(),
		// The packed request's two spellings, through the server's streaming
		// decode walk. The long form is what gateway sub-batches, coalesced
		// batches and clients older than the batch-default framing send, so
		// its cost stays gated next to the form the client sends now.
		group{rows: []row{
			{name: "soap/decode-16-entry-long", bench: decodePacked(packedEchoDoc(16, true, false), 16)},
			{name: "soap/decode-16-entry-default", bench: decodePacked(packedEchoDoc(16, false, false), 16)},
		}},
		denseRows(),
		// The sixteen parameters of that request through soapenc.DecodeParams,
		// spelled the old way and today's: an untyped leaf is a string without
		// resolving xsi and xsd for it first.
		group{rows: []row{
			paramRow("soapenc/decode-16-typed-strings", true),
			paramRow("soapenc/decode-16-untyped-strings", false),
			// Batch.Send against a connection that swallows the request and
			// answers from memory with a whole-message fault, the cheapest
			// reply there is to read: what is left is NewBatch, 16 Adds, the
			// streamed request document and its one write.
			{name: "client/encode-batch-16", bench: encodeBatch(core.ClientConfig{})},
			// The Send of client/encode-batch-16 answered with a 16-entry echo
			// reply instead of a fault: what is left beside that row is the
			// reply's bytes read into resolved calls.
			{name: "client/read-packed-reply-16", bench: readPackedReply},
			// The same Send from a client with a header provider, one that
			// makes nothing: what is left beside client/encode-batch-16 is
			// handing the provider the body and framing its block in front of
			// it.
			{name: "client/encode-batch-16-signed", bench: encodeBatch(core.ClientConfig{HeaderProviders: []core.HeaderProvider{fixedProvider{}}})},
		}},
		serverAnswerRows(),
		subBatchRows(),
		group{rows: []row{
			{name: "msgcache/render-to-hit", bench: func(b *testing.B) {
				// Splice onto a pooled emitter; the first iteration builds the
				// template. allocs/op here must stay 0.
				c := msgcache.New()
				params := []soapenc.Field{soapenc.F("message", "hello"), soapenc.F("count", int32(3))}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					em := xmltext.AcquireEmitter()
					if ok, err := c.RenderTo(em, "Echo", "urn:spi:Echo", "echo", params); err != nil || !ok {
						b.Fatalf("ok=%v err=%v", ok, err)
					}
					xmltext.ReleaseEmitter(em)
				}
			}},
			{name: "trace/record-nil", bench: func(b *testing.B) {
				var tr *trace.Tracer
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if tr.Enabled() {
						tr.Record(trace.Span{})
					}
				}
			}},
			{name: "trace/record-enabled", bench: func(b *testing.B) {
				tr := trace.New(4096)
				span := trace.Span{Trace: 1, Stage: trace.StageApp, Service: time.Millisecond}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tr.Record(span)
				}
			}},
			// --- application stage -----------------------------------------
			// One Submit and its run on a one-worker pool: the hand-off every
			// operation makes. It must stay at 0 allocs/op.
			{name: "stage/submit-run", bench: func(b *testing.B) {
				pool, err := stage.NewPool("bench", 1, 64)
				if err != nil {
					b.Fatal(err)
				}
				defer pool.Close()
				done := make(chan struct{}, 1)
				task := func() { done <- struct{}{} }
				submitRun := func() {
					if err := pool.Submit(task); err != nil {
						b.Fatal(err)
					}
					<-done
				}
				submitRun()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					submitRun()
				}
			}},
			// The server's fan-out: a 16-entry packed message submits 16 tasks
			// to the 32-worker application stage, then waits for all of them.
			// It must stay at 0 allocs/op, as the stage package's
			// TestSteadyStateSubmitAllocatesNothing holds the same shape.
			{name: "stage/fanout-16", bench: func(b *testing.B) {
				pool, err := stage.NewPool("bench", 32, 1024)
				if err != nil {
					b.Fatal(err)
				}
				defer pool.Close()
				var wg sync.WaitGroup
				task := func() { wg.Done() }
				fanout := func() {
					wg.Add(16)
					for i := 0; i < 16; i++ {
						if err := pool.Submit(task); err != nil {
							b.Fatal(err)
						}
					}
					wg.Wait()
				}
				fanout()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fanout()
				}
			}},
			// --- latency telemetry -----------------------------------------
			// What every operation execution and every envelope pays to be
			// timed: record must stay at 0 allocs/op, and a snapshot must cost
			// the same however many samples went in.
			{name: "metrics/record", bench: func(b *testing.B) {
				var rec metrics.Recorder
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec.Record(time.Duration(i) * time.Microsecond)
				}
			}},
			{name: "metrics/record-parallel", bench: func(b *testing.B) {
				// The application stage's shape: 32 workers, 4 operations.
				var recs [4]metrics.Recorder
				const workers = 32
				var wg sync.WaitGroup
				b.ReportAllocs()
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < b.N; i += workers {
							recs[w%len(recs)].Record(time.Duration(i) * time.Microsecond)
						}
					}(w)
				}
				wg.Wait()
			}},
			snapshotRow("metrics/snapshot-after-1k", 1000),
			snapshotRow("metrics/snapshot-after-1M", 1_000_000),
		}},
		// --- end-to-end hot paths -----------------------------------------
		e2eRows("e2e/serial-echo", direct(bench.EnvOptions{}), func(c *core.Client) error {
			_, err := c.Call("Echo", "echo", echoArg)
			return err
		}),
		e2eRows("e2e/packed-echo-16", direct(bench.EnvOptions{}), sendBatch16),
		e2eRows("e2e/packed-echo-16-traced", func() (*core.Client, func(), error) {
			return direct(bench.EnvOptions{Tracer: trace.New(8192)})() // the ring is made when the row runs
		}, sendBatch16),
		// The feature-cost row: WS-Security verification (entries held until
		// the signature checks out). The gap to bare e2e/packed-echo-16 is its
		// price per batch.
		e2eRows("e2e/packed-echo-16-wsse", direct(bench.EnvOptions{WSSecurity: true}), sendBatch16),
		// --- gateway scatter–gather ---------------------------------------
		e2eRows("e2e/gw-packed-16-1-backend", behindGateway(bench.GatewayOptions{Backends: 1, Network: netsim.Fast(), AppWorkers: 8}), sendBatch16),
		e2eRows("e2e/gw-packed-16-4-backends", behindGateway(bench.GatewayOptions{Backends: 4, Network: netsim.Fast(), AppWorkers: 8}), sendBatch16),
		// --- control plane: load-aware routing on a skewed fleet ----------
		// Four backends, one at 4× the per-op service time, behind
		// least-loaded routing on the execution time each backend states on
		// its replies. Guards the loop end to end: reply → derate → shard
		// placement.
		e2eRows("e2e/gw-weighted-skewed-4", behindGateway(bench.GatewayOptions{
			Backends: 4, Network: netsim.Fast(), AppWorkers: 4,
			WorkTimes: []time.Duration{
				200 * time.Microsecond, 200 * time.Microsecond,
				200 * time.Microsecond, 800 * time.Microsecond,
			},
			Policy: gateway.LeastLoaded,
		}), sendBatch16),
		coalescedRows(),
		// --- transport tier -----------------------------------------------
		keepAliveRows(),
		// The scaling rows guard the pipelined fleet path at 1k and 10k
		// connections — the C10k regime — where any per-exchange overhead in
		// the pipelined reader/writer loops multiplies by the connection count.
		pipelinedRows("transport/pipelined-1k-conns", 1024, 4),
		pipelinedRows("transport/pipelined-10k-conns", 10_000, 2),
	}
}

// envelopeRows decode and encode a plain envelope of 64 echo entries, the
// document writeEchoEnvelope writes (TestEchoEnvelope).
func envelopeRows() group {
	doc := envelopeAround(strings.Repeat(echoEntry, 64), 0)
	return group{rows: []row{
		{name: "soap/decode-64-entry", bench: func(b *testing.B) {
			// The server's decode hot path: a pooled StreamDecoder over the
			// request bytes, every body entry completed, then Finish;
			// interned names, arena-backed trees, the arena recycled per
			// request.
			a := xmldom.AcquireArena()
			defer xmldom.ReleaseArena(a)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n, err := streamDecodeEntries(doc, a); err != nil || n != 64 {
					b.Fatalf("decoded %d entries: %v", n, err)
				}
				a.Reset()
			}
		}},
		{name: "soap/decode-64-entry-heap", bench: func(b *testing.B) {
			// soap.Decode: the same decoder on the heap, for callers that
			// keep the envelope, kept for the ablation delta.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := soap.Decode(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "soap/encode-64-entry", bench: func(b *testing.B) {
			// The encode hot path: a pooled stream encoder writes the
			// envelope, values to bytes, without intermediate buffers.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := soap.NewStreamEncoder()
				if _, err := writeEchoEnvelope(enc, 64); err != nil {
					b.Fatal(err)
				}
				enc.Release()
			}
		}},
	}}
}

// decodePacked walks doc, a packed request of n entries, as the dispatch does.
func decodePacked(doc []byte, n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got, err := streamDecodePacked(doc); err != nil || got != n {
				b.Fatalf("decoded %d entries: %v", got, err)
			}
		}
	}
}

// denseRows are the large-payload regime: a packed response of eight 16 KiB
// strings in which one byte in 32 is one of <&>", as the benchmark's payload
// pool is. Written through the streamed entry writer the server uses; read
// back in the spelling that writer picks (one CDATA section a value) and in
// the escaped spelling a third party or an older peer sends.
func denseRows() group {
	values := denseValues(8, 16<<10)
	enc := soap.NewStreamEncoder()
	sections := bytes.Clone(encodeDense(enc, values, (*xmltext.Emitter).Text))
	escaped := bytes.Clone(encodeDense(enc, values, func(em *xmltext.Emitter, s string) {
		em.RawString(xmltext.EscapeText(s))
	}))
	enc.Release()
	if n, m := bytes.Count(sections, []byte("<![CDATA[")), bytes.Count(escaped, []byte("<![CDATA[")); n != len(values) || m != 0 {
		panic(fmt.Sprintf("%d and %d CDATA sections in the documents, want %d and 0", n, m, len(values)))
	}
	return group{rows: []row{
		{name: "soap/encode-8x16k", bench: func(b *testing.B) {
			// The buffer's one growth to 128 KiB is paid before the clock
			// starts: spread over b.N it would make bytes/op a function of
			// the benchtime.
			enc := soap.NewStreamEncoder()
			defer enc.Release()
			encodeDense(enc, values, (*xmltext.Emitter).Text)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encodeDense(enc, values, (*xmltext.Emitter).Text)
			}
		}},
		{name: "soap/decode-8x16k", bench: decodePacked(sections, len(values))},
		{name: "soap/decode-8x16k-escaped", bench: decodePacked(escaped, len(values))},
	}}
}

// encodeDense writes a Parallel_Response of values into enc, whose emitter it
// resets first so that one encoder — and one grown buffer — serves a whole row.
func encodeDense(enc *soap.StreamEncoder, values []string, charData func(em *xmltext.Emitter, s string)) []byte {
	em := enc.Emitter()
	em.Reset()
	enc.Begin(soap.V11, nil)
	em.Start(xmltext.Name{Prefix: core.PrefixPack, Local: core.ElemParallelResponse})
	em.Attr(xmltext.Name{Prefix: "xmlns", Local: core.PrefixPack}, core.NSPack)
	em.Attr(xmltext.Name{Prefix: "xmlns", Local: "m"}, "urn:spi:Echo")
	for _, v := range values {
		em.Start(xmltext.Name{Prefix: "m", Local: "echoResponse"})
		em.Start(xmltext.Name{Local: "data"})
		charData(em, v)
		em.End()
		em.End()
	}
	em.End()
	doc, err := enc.Finish()
	if err != nil {
		panic(err)
	}
	return doc
}

// paramRow decodes the parameters of a 16-entry packed echo request.
func paramRow(name string, typed bool) row {
	env, err := soap.Decode(bytes.NewReader(packedEchoDoc(16, false, typed)))
	if err != nil {
		panic(err)
	}
	entries := env.Body[0].ChildElements()
	return row{name: name, bench: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, el := range entries {
				if p, err := soapenc.DecodeParams(el); err != nil || len(p) != 1 {
					b.Fatalf("decoded %v: %v", p, err)
				}
			}
		}
	}}
}

// echoEntry is one entry of writeEchoEnvelope's document.
const echoEntry = `<m:echo xmlns:m="urn:spi:Echo"><data>payload</data></m:echo>`

// echoArg is the 10-byte parameter of every echo call the rows make.
var echoArg = soapenc.F("data", strings.Repeat("a", 10))

// sendBatch16 sends one Batch of sixteen echo calls.
func sendBatch16(c *core.Client) error {
	batch := c.NewBatch()
	for j := 0; j < 16; j++ {
		batch.Add("Echo", "echo", echoArg)
	}
	return batch.Send()
}

// faultClient is a client configured as cfg whose faultConn answers reply.
func faultClient(b *testing.B, cfg core.ClientConfig, reply []byte) *core.Client {
	cfg.Dial = func() (net.Conn, error) { return &faultConn{reply: reply}, nil }
	cfg.KeepAlive = true
	client, err := core.NewClient(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return client
}

// encodeBatch sends sixteen-call batches from a client configured as cfg.
func encodeBatch(cfg core.ClientConfig) func(b *testing.B) {
	return func(b *testing.B) {
		client := faultClient(b, cfg, cannedFault)
		defer client.Close()
		var f *soap.Fault
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sendBatch16(client); !errors.As(err, &f) {
				b.Fatalf("want the canned fault, got %v", err)
			}
		}
	}
}

func readPackedReply(b *testing.B) {
	client := faultClient(b, core.ClientConfig{}, cannedReply16)
	defer client.Close()
	calls := make([]*core.Call, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch := client.NewBatch()
		for j := range calls {
			calls[j] = batch.Add("Echo", "echo", echoArg)
		}
		if err := batch.Send(); err != nil {
			b.Fatal(err)
		}
		for _, c := range calls {
			if got, err := c.Wait(); err != nil || len(got) != 1 {
				b.Fatalf("resolved %v: %v", got, err)
			}
		}
	}
}

// serverAnswerRows are the server's two whole-message answers: one single
// call through HandleHTTP on the staged server (decode, one stage hand-off, the
// response document), and a whole-message fault rendered on its own.
func serverAnswerRows() group {
	var env *bench.Env
	single := envelopeAround(`<m:echo xmlns:m="urn:spi:Echo"><data>`+strings.Repeat("a", 10)+`</data></m:echo>`, 0)
	return group{
		open: func() (_ func(), err error) {
			env, err = bench.NewEnv(bench.EnvOptions{})
			return func() { env.Close() }, err
		},
		rows: []row{
			{name: "core/handle-single-echo", bench: func(b *testing.B) {
				ctx := context.Background()
				req := httpx.NewRequest("POST", "/services/Echo", single)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					resp := env.Server.HandleHTTP(ctx, req)
					if resp.StatusCode != 200 {
						b.Fatalf("HTTP %d: %s", resp.StatusCode, resp.Body)
					}
					resp.Release()
				}
			}},
			{name: "core/fault-response", bench: func(b *testing.B) {
				f := soap.ClientFault("expected exactly one body entry, got %d", 2)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.GatewayFaultResponse(f, soap.V11).Release()
				}
			}},
		},
	}
}

// subBatchRows are the gateway's two hops for the 16-entry request a Batch
// sends, cut for two round-robin backends: the sub-batch it writes for one of
// them, that document through a backend's decode walk, the backend's reply
// split into segments, and sixteen segments gathered back into the one
// Parallel_Response the client reads.
func subBatchRows() group {
	sr, fault := core.ParseScatterRequest(packedEchoDoc(16, false, false), "")
	if fault != nil {
		panic(fault)
	}
	var shard []*core.ScatterEntry
	for i := 0; i < len(sr.Entries); i += 2 {
		shard = append(shard, sr.Entries[i])
	}
	subDoc, err := core.BuildSubBatch(sr.Version, sr.Headers, shard)
	if err != nil {
		panic(err)
	}
	var reply []byte
	var segs [][]byte
	return group{
		open: func() (func(), error) {
			env, err := bench.NewEnv(bench.EnvOptions{Coupled: true})
			if err != nil {
				return nil, fmt.Errorf("starting a backend: %w", err)
			}
			resp := env.Server.HandleHTTP(context.Background(), httpx.NewRequest("POST", "/services", subDoc))
			reply = append([]byte(nil), resp.Body...)
			resp.Release()
			env.Close()
			split, err := sr.SplitResponse(reply, shard)
			if segs = split.Segments; err != nil || len(segs) != len(shard) {
				return nil, fmt.Errorf("splitting the backend's reply: %d segments: %v", len(segs), err)
			}
			return func() {}, nil
		},
		rows: []row{
			{name: "core/subbatch-build-8of16", bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.BuildSubBatch(sr.Version, sr.Headers, shard); err != nil {
						b.Fatal(err)
					}
				}
			}},
			{name: "soap/decode-subbatch-8", bench: func(b *testing.B) { decodePacked(subDoc, 8)(b) }},
			{name: "core/gather-split-8", bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sr.SplitResponse(reply, shard); err != nil {
						b.Fatal(err)
					}
				}
			}},
			{name: "core/encode-packed-response-16", bench: func(b *testing.B) {
				ctx := context.Background()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					col := sr.NewCollector()
					for slot := range sr.Entries {
						col.Deliver(slot, segs[slot/2])
					}
					resp, _, err := col.Assemble(ctx, sr.Version, nil)
					if err != nil {
						b.Fatal(err)
					}
					resp.Release()
				}
			}},
		},
	}
}

// snapshotRow snapshots a recorder that holds samples samples.
func snapshotRow(name string, samples int) row {
	var rec metrics.Recorder
	for i := 0; i < samples; i++ {
		rec.Record(time.Duration(i) * time.Microsecond)
	}
	return row{name: name, bench: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rec.Snapshot().Count != samples {
				b.Fatal("snapshot lost samples")
			}
		}
	}}
}

// direct starts a client and a server over a simulated link.
func direct(opts bench.EnvOptions) func() (*core.Client, func(), error) {
	return func() (*core.Client, func(), error) {
		env, err := bench.NewEnv(opts)
		if err != nil {
			return nil, nil, err
		}
		return env.Client, env.Close, nil
	}
}

// behindGateway starts a gateway in front of its backends and a client of it.
func behindGateway(opts bench.GatewayOptions) func() (*core.Client, func(), error) {
	return func() (*core.Client, func(), error) {
		env, err := bench.NewGatewayEnv(opts)
		if err != nil {
			return nil, nil, err
		}
		return env.Client, env.Close, nil
	}
}

// e2eRows is one row of send on the client that start starts.
func e2eRows(name string, start func() (*core.Client, func(), error), send func(*core.Client) error) group {
	var client *core.Client
	return group{
		open: func() (close func(), err error) {
			client, close, err = start()
			return close, err
		},
		rows: []row{{name: name, bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := send(client); err != nil {
					b.Fatal(err)
				}
			}
		}}},
	}
}

// coalescedRows is the gateway's cross-client coalescing: 16 independent
// single-call clients fire concurrently per iteration, and the gateway pools
// them into packed batches. Guards the coalescer's end-to-end latency (settle
// step + batch round trip + split-back). Its note is the batches the
// coalescer flushed per burst of 16 calls in the measured run: how many
// single calls one window caught, which is what moves the row's allocs/op
// with scheduling, told apart from a change in what a batch costs.
func coalescedRows() group {
	fleet := make([]*core.Client, 16)
	var env *bench.GatewayEnv
	var batchesPerBurst float64
	return group{
		open: func() (_ func(), err error) {
			env, err = bench.NewGatewayEnv(bench.GatewayOptions{
				Backends: 2, Network: netsim.Fast(), AppWorkers: 8,
				Coalesce: gateway.CoalesceConfig{Enabled: true, MaxBatch: 16},
			})
			if err != nil {
				return nil, err
			}
			for i := range fleet {
				if fleet[i], err = env.NewClient(); err != nil {
					return nil, err
				}
			}
			return func() {
				for _, c := range fleet {
					c.Close()
				}
				env.Close()
			}, nil
		},
		rows: []row{{name: "e2e/gw-coalesced-singles-16", timing: true, bench: func(b *testing.B) {
			b.StopTimer()
			before := env.Gateway.Stats().CoalesceBatches
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, len(fleet))
				for j := range fleet {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						_, errs[j] = fleet[j].Call("Echo", "echo", echoArg)
					}(j)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			batchesPerBurst = float64(env.Gateway.Stats().CoalesceBatches-before) / float64(b.N)
		}, note: func() string {
			return fmt.Sprintf("%.2f coalesced batches per burst", batchesPerBurst)
		}}},
	}
}

// keepAliveRows guard the pooled per-connection read buffers: allocs/op on a
// steady keep-alive exchange is the number the bufpool exists to hold down.
// The -ctx twin runs the same exchange under a cancellable context, the shape
// of a gateway's backend exchange, whose context the client watches for the
// exchange's length.
func keepAliveRows() group {
	var f *bench.TransportFleet
	var ctx context.Context
	return group{
		open: func() (_ func(), err error) {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(context.Background())
			f, err = bench.NewTransportFleet(1, 0)
			return func() { cancel(); f.Close() }, err
		},
		rows: []row{
			{name: "transport/keepalive-echo", bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f.Echo(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
			}},
			{name: "transport/keepalive-echo-ctx", bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f.Echo(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}},
		},
	}
}

// pipelinedRows sweeps conns pipelined connections, calls calls on each.
func pipelinedRows(name string, conns, calls int) group {
	var f *bench.TransportFleet
	return group{
		open: func() (_ func(), err error) {
			if f, err = bench.NewTransportFleet(conns, 8); err != nil {
				return nil, err
			}
			// One sweep before measuring: the first exchange on each
			// connection allocates its buffers, and whether that lands inside
			// the measured iterations would otherwise depend on how many of
			// them the benchtime allows — bytes/op is judged.
			return f.Close, f.Sweep(calls)
		},
		rows: []row{{name: name, timing: true, sweep: func() error { return f.Sweep(calls) }}},
	}
}

// The allowed growth, in percent: of allocs/op on every row not marked
// timing, and of bytes/op on every row and allocs/op on a timing row.
const allocTolerancePct, bytesTolerancePct = 2, 35

// compare checks the report against a baseline: any benchmark whose
// allocs/op grew by more than allocTolerancePct percent (bytesTolerancePct on
// a timing row), or whose bytes/op grew by more than bytesTolerancePct
// percent, fails the run; a row recorded at 0 allocs/op fails on any
// allocation. Both repeat from run to run on any machine; ns/op is printed
// beside them and not judged, because on the shared 2-vCPU box it moves by
// half between minutes with no code change. The spec is a comma-separated
// list of snapshots; each benchmark is compared against the first file that
// records it. Benchmarks present on only one side are reported but do not
// fail — snapshots gain benchmarks as the codebase grows.
func compare(spec string, cur Report) error {
	byName := make(map[string]Result)
	for _, path := range strings.Split(spec, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		var base Report
		if err := json.Unmarshal(blob, &base); err != nil {
			return fmt.Errorf("baseline %s: %w", path, err)
		}
		for _, r := range base.Results {
			if _, ok := byName[r.Name]; !ok {
				byName[r.Name] = r
			}
		}
	}
	limit := 1 + bytesTolerancePct/100.0
	var failures []string
	fmt.Printf("\ncompare vs %s (allocs/op within %d%%, %d%% on timing-dependent rows; bytes/op within %d%%; ns/op shown, not judged):\n",
		spec, allocTolerancePct, bytesTolerancePct, bytesTolerancePct)
	for _, r := range cur.Results {
		b, ok := byName[r.Name]
		if !ok {
			fmt.Printf("  %-32s new benchmark, no baseline\n", r.Name)
			continue
		}
		delete(byName, r.Name)
		verdict := "ok"
		allocLimit := 1 + allocTolerancePct/100.0
		if r.timing {
			allocLimit = limit
		}
		if float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*allocLimit {
			verdict = "REGRESSION(allocs/op)"
			failures = append(failures, fmt.Sprintf("%s: %d -> %d allocs/op", r.Name, b.AllocsPerOp, r.AllocsPerOp))
		} else if b.BytesPerOp > 0 && float64(r.BytesPerOp) > float64(b.BytesPerOp)*limit {
			verdict = "REGRESSION(bytes/op)"
			failures = append(failures, fmt.Sprintf("%s: %d -> %d bytes/op", r.Name, b.BytesPerOp, r.BytesPerOp))
		}
		fmt.Printf("  %-32s allocs/op %+7.1f%%  bytes/op %+7.1f%%  (ns/op %+7.1f%%)  %s\n", r.Name,
			pctDelta(float64(r.AllocsPerOp), float64(b.AllocsPerOp)), pctDelta(float64(r.BytesPerOp), float64(b.BytesPerOp)),
			pctDelta(r.NsPerOp, b.NsPerOp), verdict)
	}
	for name := range byName {
		fmt.Printf("  %-32s dropped (present only in baseline)\n", name)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past tolerance:\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Println("no regressions past tolerance")
	return nil
}

// pctDelta returns the percent change from base to cur (negative = better).
func pctDelta(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// packedEchoDoc is a Parallel_Method of n Echo.echo calls with a 10-byte
// payload, as Batch writes it (see internal/core/testdata/wire/) or, with
// long set, as it wrote it before the batch-default framing: namespace,
// correlation id and service restated on every entry. With typed set every
// string says it is one, under an Envelope that declares xsi and xsd: the
// spelling of before the untyped-string rule, which peers may still send.
func packedEchoDoc(n int, long, typed bool) []byte {
	var b strings.Builder
	b.WriteString(`<spi:Parallel_Method xmlns:spi="` + core.NSPack + `"`)
	if !long {
		b.WriteString(` xmlns:m="urn:spi:Echo" spi:service="Echo"`)
	}
	b.WriteString(`>`)
	for i := 0; i < n; i++ {
		b.WriteString(`<m:echo`)
		if long {
			fmt.Fprintf(&b, ` xmlns:m="urn:spi:Echo" spi:id="%d" spi:service="Echo"`, i)
		}
		if typed {
			b.WriteString(`><data xsi:type="xsd:string">aaaaaaaaaa</data></m:echo>`)
		} else {
			b.WriteString(`><data>aaaaaaaaaa</data></m:echo>`)
		}
	}
	b.WriteString(`</spi:Parallel_Method>`)
	var decls soap.Decls
	if typed {
		decls = soap.DeclXSI | soap.DeclXSD
	}
	return envelopeAround(b.String(), decls)
}

// envelopeAround frames a SOAP 1.1 body with the encoder's own envelope,
// declaring decls on it, so a sample cannot drift from what the client puts on
// the wire.
func envelopeAround(body string, decls soap.Decls) []byte {
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(soap.V11, nil)
	enc.Emitter().Mark(decls)
	enc.Emitter().RawString(body)
	doc, err := enc.Finish()
	if err != nil {
		panic(err)
	}
	return append([]byte(nil), doc...)
}

// denseValues makes n strings of size bytes each, printable ASCII with one
// byte in 32 drawn from <&>" — the density of the benchmark's payload pool.
func denseValues(n, size int) []string {
	rng := rand.New(rand.NewSource(1))
	out := make([]string, n)
	for i := range out {
		b := make([]byte, size)
		for j := range b {
			if b[j] = byte('a' + rng.Intn(26)); rng.Intn(32) == 0 {
				b[j] = `<&>"`[rng.Intn(4)]
			}
		}
		out[i] = string(b)
	}
	return out
}

// streamDecodePacked walks a packed request the way the server's dispatch
// does — preamble, Parallel_Method start, one NextChild per entry, finish —
// and returns the number of entries.
func streamDecodePacked(doc []byte) (int, error) {
	arena := xmldom.AcquireArena()
	defer xmldom.ReleaseArena(arena)
	d := soap.AcquireStreamDecoder(doc, arena)
	defer d.Release()
	if err := d.ReadPreamble(); err != nil {
		return 0, err
	}
	pm, err := d.NextEntryStart()
	if err != nil || pm == nil {
		return 0, fmt.Errorf("no body entry: %v", err)
	}
	n := 0
	for {
		el, err := d.NextChild(pm)
		if err != nil {
			return n, err
		}
		if el == nil {
			break
		}
		n++
	}
	_, err = d.Finish()
	return n, err
}

// streamDecodeEntries decodes an envelope the way the server's dispatch does
// a body of plain entries — preamble, each entry completed, finish — in a, and
// returns the number of entries.
func streamDecodeEntries(doc []byte, a *xmldom.Arena) (int, error) {
	d := soap.AcquireStreamDecoder(doc, a)
	defer d.Release()
	if err := d.ReadPreamble(); err != nil {
		return 0, err
	}
	n := 0
	for {
		el, err := d.NextEntryStart()
		if err != nil {
			return n, err
		}
		if el == nil {
			break
		}
		if err := d.CompleteEntry(el); err != nil {
			return n, err
		}
		n++
	}
	_, err := d.Finish()
	return n, err
}

// faultConn swallows what is written to it and answers each request with
// reply: cannedFault, a whole-message fault, or cannedReply16.
type faultConn struct{ reply, pending []byte }

var cannedFault = func() []byte {
	resp := core.GatewayFaultResponse(&soap.Fault{Code: soap.FaultServer, String: "canned"}, soap.V11)
	defer resp.Release()
	return []byte(fmt.Sprintf("HTTP/1.1 500 Internal Server Error\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: %d\r\n\r\n%s", len(resp.Body), resp.Body))
}()

// cannedReply16 is a 16-entry echo reply in the spelling a server writes:
// xmlns:m once on Parallel_Response, an spi:id on every entry.
var cannedReply16 = func() []byte {
	var body strings.Builder
	body.WriteString(`<s:Envelope xmlns:s="` + soap.NSEnvelope + `"><s:Body>`)
	body.WriteString(`<spi:Parallel_Response xmlns:spi="` + core.NSPack + `" xmlns:m="urn:spi:Echo">`)
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&body, `<m:echoResponse spi:id="%d"><data>aaaaaaaaaa</data></m:echoResponse>`, i)
	}
	body.WriteString(`</spi:Parallel_Response></s:Body></s:Envelope>`)
	return []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: %d\r\n\r\n%s", body.Len(), body.String()))
}()

func (c *faultConn) Write(b []byte) (int, error) {
	if len(c.pending) == 0 {
		c.pending = c.reply
	}
	return len(b), nil
}

func (c *faultConn) Read(b []byte) (int, error) {
	if len(c.pending) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (*faultConn) Close() error                     { return nil }
func (*faultConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (*faultConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (*faultConn) SetDeadline(time.Time) error      { return nil }
func (*faultConn) SetReadDeadline(time.Time) error  { return nil }
func (*faultConn) SetWriteDeadline(time.Time) error { return nil }

// fixedProvider is a header provider that makes nothing: the same block for
// every message.
type fixedProvider struct{}

var fixedBlock = func() []*xmldom.Element {
	h := xmldom.NewElement(xmltext.Name{Prefix: "t", Local: "Token"})
	h.DeclareNamespace("t", "urn:bench:token")
	h.SetText("fixed")
	return []*xmldom.Element{h}
}()

func (fixedProvider) MakeHeaders([]byte) ([]*xmldom.Element, error) { return fixedBlock, nil }

// writeEchoEnvelope streams n echo request entries into one envelope, each as
// the client writes a single call.
func writeEchoEnvelope(enc *soap.StreamEncoder, n int) ([]byte, error) {
	params := []soapenc.Field{soapenc.F("data", "payload")}
	enc.Begin(soap.V11, nil)
	em := enc.Emitter()
	for i := 0; i < n; i++ {
		em.Start(xmltext.Name{Prefix: "m", Local: "echo"})
		em.Attr(xmltext.Name{Prefix: "xmlns", Local: "m"}, "urn:spi:Echo")
		if err := soapenc.EncodeParamsTo(em, params); err != nil {
			return nil, err
		}
		em.End()
	}
	return enc.Finish()
}
