// Command benchmark is the repository's end-to-end benchmark: it builds
// cmd/spiserver and cmd/spigateway, runs them as separate processes on
// loopback TCP, drives them from two keep-alive connections, checks every
// reply, and reports end-to-end metrics or — in a separate traced pass —
// a per-layer cost table. BENCHMARK.json at the repository root declares
// its workloads, metrics and bounds; README.md in this directory defines
// them.
//
//	go run ./benchmark --workload packed16-10b --seed 1 --seconds 16 --trace 0
//	go run ./benchmark --workload all --runs 3 --out a.json
//	go run ./benchmark --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/metrics"
)

const (
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median, and the last set-up is the one the run measures on.
	setupReps = 3
	// warmupTime is how long a set-up gives the warm-up: the callers run
	// their fixed number of exchanges, then everything idles until this
	// much time has passed since the warm-up began. The exchanges take a
	// fifth to a half of it on the reference box, at a speed that moves by
	// a quarter from one minute to the next; the slack keeps that out of
	// setup_s, and anything that slows spawning or readiness still shows.
	warmupTime = time.Second
)

// outDir, under the checkout root, receives the built binaries, the
// result file and the span dumps.
const outDir = ".bench_build"

// metricDef declares one metric: its name, its unit and which way is
// better. BENCHMARK.json carries the same declarations.
type metricDef struct{ Name, Unit, Better string }

// endToEnd are the metrics the driver holds to a bound, printed as the
// last line of a --trace 0 run. They are the ones that repeat closely on
// the reference box; README.md ("Demoted metrics") has the measurements
// that sent the timing metrics to the per-layer list.
var endToEnd = []metricDef{
	{"wire_bytes_per_call", "bytes", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// loadLayer are the per-layer metrics the load phases give; every run
// prints them.
var loadLayer = []metricDef{
	{"calls_per_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"}, {"lat_p90_ms", "ms", "lower"}, {"lat_p99_ms", "ms", "lower"},
	{"cpu_us_per_call", "us", "lower"},
	{"failed_share", "share", "lower"},
	{"spiserver.cpu_us_per_call", "us", "lower"}, {"spigateway.cpu_us_per_call", "us", "lower"},
	{"spiserver.rss_peak_mb", "MB", "lower"}, {"spigateway.rss_peak_mb", "MB", "lower"},
	{"httpx.dials", "count", "lower"},
	{"loadgen.cpu_us_per_call", "us", "lower"}, {"loadgen.sched_lag_p99_ms", "ms", "lower"},
	{"loadgen.achieved_rate_share", "share", "higher"}, {"loadgen.open_backlog_end", "count", "lower"},
	{"bench.ready_s", "s", "lower"}, {"bench.build_s", "s", "lower"},
}

// tracedLayer are the per-layer metrics only a --trace 1 run has: the
// children's own /spi/stats over the closed phase, and the traced pass.
var tracedLayer = []metricDef{
	{"xmltext.tokenize_ns", "ns", "lower"}, {"xmltext.tokenize_allocs", "count", "lower"},
	{"xmldom.parse_ns", "ns", "lower"}, {"xmldom.parse_allocs", "count", "lower"},
	{"soap.decode_ns", "ns", "lower"}, {"soap.decode_allocs", "count", "lower"},
	{"soapenc.decode_ns", "ns", "lower"}, {"soapenc.encode_ns", "ns", "lower"},
	{"soap.encode_ns", "ns", "lower"}, {"soap.encode_allocs", "count", "lower"},
	{"registry.invoke_ns", "ns", "lower"},
	{"stage.handoff_ns", "ns", "lower"},
	{"httpx.read_request_ns", "ns", "lower"}, {"httpx.read_request_allocs", "count", "lower"},
	{"httpx.write_response_ns", "ns", "lower"}, {"httpx.write_response_allocs", "count", "lower"},
	{"httpx.write_request_ns", "ns", "lower"}, {"httpx.read_response_ns", "ns", "lower"},
	{"msgcache.render_ns", "ns", "lower"},
	{"client.call_ns", "ns", "lower"},
	{"core.handle_ns", "ns", "lower"}, {"core.handle_allocs", "count", "lower"}, {"core.self_ns", "ns", "lower"},
	{"core.scatter_parse_ns", "ns", "lower"}, {"core.subbatch_build_ns", "ns", "lower"},
	{"core.gather_split_ns", "ns", "lower"}, {"core.gather_assemble_ns", "ns", "lower"},
	{"gateway.handle_ns", "ns", "lower"}, {"gateway.handle_allocs", "count", "lower"},
	{"gateway.backend_rtt_ns", "ns", "lower"}, {"gateway.self_ns", "ns", "lower"},
	{"budget.sum_ns", "ns", "lower"}, {"budget.residual_share", "share", "lower"},
	{"core.parse_us_per_msg", "us", "lower"}, {"core.dispatch_us_per_msg", "us", "lower"},
	{"core.encode_us_per_msg", "us", "lower"}, {"core.encode_bytes_per_msg", "bytes", "lower"},
	{"core.calls_per_envelope", "count", "higher"},
	{"core.faults", "count", "lower"}, {"core.item_faults", "count", "lower"},
	{"stage.tasks_per_msg", "count", "lower"}, {"stage.exec_us_per_task", "us", "lower"},
	{"stage.rejected", "count", "lower"},
	{"gateway.subbatches_per_msg", "count", "lower"}, {"gateway.passthrough_share", "share", "higher"},
	{"gateway.backend_skew", "share", "lower"}, {"gateway.failovers", "count", "lower"},
	{"gateway.degraded", "count", "lower"},
	{"bench.span_overhead_ns", "ns", "lower"}, {"bench.trace_replays", "count", "higher"},
}

// perLayer is what a --trace 1 run prints as its last line.
var perLayer = append(append([]metricDef(nil), loadLayer...), tracedLayer...)

// advisoryBounds are the regression bounds issue 11 wanted on the timing
// metrics. The reference box cannot hold run-to-run spread inside them,
// so the driver does not gate on them; -compare still judges paired sets
// of runs against them, and says unresolved when the spread is wider.
var advisoryBounds = map[string]float64{
	"calls_per_s":     0.08,
	"lat_p50_ms":      0.10,
	"lat_p90_ms":      0.15,
	"lat_p99_ms":      0.15,
	"cpu_us_per_call": 0.06,
}

// metricValue is one reported metric. Windows holds the values the
// reported median was taken over, where the metric has windows.
type metricValue struct {
	Value        float64   `json:"value"`
	Unit         string    `json:"unit"`
	WindowSpread float64   `json:"window_spread,omitempty"`
	Windows      []float64 `json:"windows,omitempty"`
}

// runResult is one run of one workload, as stored in the result file.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   float64          `json:"seconds"`
	OpenRate  float64          `json:"open_rate_per_s"`
	Correct   bool             `json:"correct"`
	Valid     bool             `json:"valid"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  map[string]int64 `json:"failures"`
	// Metrics holds the end-to-end metrics and the load phases'
	// per-layer metrics, and in a traced run the traced ones as well.
	Metrics  map[string]metricValue `json:"metrics"`
	SpanDump string                 `json:"span_dump,omitempty"`

	layers *traceResult // the traced pass behind the per-layer metrics
}

// resultFile is a set of runs on one machine and commit.
type resultFile struct {
	Machine machineRecord `json:"machine"`
	Runs    []runResult   `json:"runs"`
}

func main() {
	workloadName := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the generated payloads")
	seconds := flag.Float64("seconds", 12, "measured seconds per run: half open loop, half closed loop")
	trace := flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	runs := flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, …")
	out := flag.String("out", "", "result file (default "+outDir+"/result.json under the checkout root)")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if *compare {
		err = compareFiles(os.Stdout, flag.Args())
	} else {
		err = benchMain(ctx, *workloadName, *seed, *seconds, *trace != 0, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func benchMain(ctx context.Context, workloadName string, seed int64, seconds float64, trace bool, runs int, out string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	selected := workloads
	if workloadName != "all" {
		w, err := findWorkload(workloadName)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if seconds <= 0 || runs < 1 {
		return errors.New("-seconds and -runs must be positive")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, outDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(dir, "result.json")
	}
	bins, err := buildBinaries(ctx, root, dir)
	if err != nil {
		return err
	}
	fmt.Println("traffic crosses the host loopback interface between separate processes, not a link; netsim is not used")

	file := resultFile{Machine: readMachine(root)}
	allCorrect := true
	for _, w := range selected {
		for i := 0; i < runs; i++ {
			cfg := runConfig{w: w, seed: seed + int64(i), seconds: seconds, trace: trace,
				bins: bins, dumpDir: dir, timeout: exchangeTimeout, warmup: warmupTime}
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			file.Runs = append(file.Runs, *res)
			printRun(os.Stdout, res)
			allCorrect = allCorrect && res.Correct
		}
	}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	// The contract line goes last: the final run's verdict and metrics.
	last := file.Runs[len(file.Runs)-1]
	fmt.Println(contractLine(&last))
	if !allCorrect {
		return errors.New("a run produced wrong or missing replies")
	}
	return nil
}

// contractLine is the one-line JSON the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func contractLine(r *runResult) string {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]contractMetric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = contractMetric{r.Metrics[d.Name].Value, d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line)
}

// printRun prints every metric of the run by name with its unit.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n%s  seed %d  %.3gs open loop at %.0f exchanges/s + %.3gs closed loop, %d callers\n",
		r.Workload, r.Seed, r.Seconds/2, r.OpenRate, r.Seconds/2, numCallers)
	fmt.Fprintf(w, "  calls attempted %d, failed %d %v  correct=%v  load generator valid=%v\n",
		r.Attempted, r.Failed, r.Failures, r.Correct, r.Valid)
	defs := append(append([]metricDef(nil), endToEnd...), loadLayer...)
	if r.Trace {
		defs = append(defs, tracedLayer...)
	}
	fmt.Fprintf(w, "  %-30s %16s %-6s %s\n", "metric", "value", "unit", "window spread (max-min)/median")
	for _, d := range defs {
		m := r.Metrics[d.Name]
		spread := ""
		if len(m.Windows) > 0 {
			spread = fmt.Sprintf("%.1f%% of %d", 100*m.WindowSpread, len(m.Windows))
		}
		fmt.Fprintf(w, "  %-30s %16.4f %-6s %s\n", d.Name, m.Value, d.Unit, spread)
	}
	if r.layers != nil {
		printLayerTable(w, r.layers, exchangeNs(r))
		fmt.Fprintf(w, "  spans written to %s\n", r.SpanDump)
	}
}

// exchangeNs is how long one closed-loop exchange took a caller: the
// callers run side by side, so it is their number over the exchange rate.
func exchangeNs(r *runResult) float64 {
	w, _ := findWorkload(r.Workload)
	return numCallers * float64(w.Pack) * 1e9 / r.Metrics["calls_per_s"].Value
}

// runConfig is everything one run of one workload needs.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	bins    binaries
	dumpDir string
	timeout time.Duration // per exchange
	warmup  time.Duration // per set-up
}

// liveSetup is a workload set up and ready for its first timed request.
type liveSetup struct {
	cl      *cluster
	callers []*caller
	tally   *tally
	// wireBytesPerCall is the bytes written to and read from the callers'
	// sockets per call over the warm-up, a fixed sequence of payloads.
	wireBytesPerCall float64
	// ready and total are how long the set-up took up to the verified
	// preflight, and in all.
	ready, total time.Duration
}

func (s *liveSetup) stop() {
	for _, c := range s.callers {
		c.client.Close()
	}
	s.cl.stop()
}

// setUp spawns fresh processes, proves them ready with one verified
// exchange per caller, and warms them up: a fixed number of exchanges,
// then idle until cfg.warmup has passed. What it returns is ready for its
// first timed request.
func setUp(ctx context.Context, cfg runConfig, pay *payloads) (*liveSetup, error) {
	start := time.Now()
	cl, err := startCluster(cfg.bins, cfg.w)
	if err != nil {
		return nil, err
	}
	s := &liveSetup{cl: cl, tally: &tally{}}
	for id := 0; id < numCallers; id++ {
		c, err := newCaller(id, cfg.w, pay, cl.target(), cfg.timeout, s.tally)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.callers = append(s.callers, c)
	}
	for _, c := range s.callers {
		if err := c.preflight(); err != nil {
			s.stop()
			return nil, err
		}
	}
	s.ready = time.Since(start)
	wireBytes := warmup(ctx, s.callers)
	s.wireBytesPerCall = float64(wireBytes) / float64(numCallers*cfg.w.Warmup*cfg.w.Pack)
	select {
	case <-time.After(cfg.warmup - (time.Since(start) - s.ready)):
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err == nil && s.tally.failed() > 0 {
		err = fmt.Errorf("%d calls failed during warm-up", s.tally.failed())
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	s.total = time.Since(start)
	return s, nil
}

// runWorkload measures one workload once. Every process it starts is
// stopped and reaped before it returns, whatever the outcome.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	pay := newPayloads(cfg.seed)
	var setups, readies []float64
	var live *liveSetup
	for i := 0; i < setupReps; i++ {
		if live != nil {
			live.stop()
		}
		var err error
		if live, err = setUp(ctx, cfg, pay); err != nil {
			return nil, err
		}
		setups = append(setups, live.total.Seconds())
		readies = append(readies, live.ready.Seconds())
	}
	defer live.stop()
	cl, callers, t := live.cl, live.callers, live.tally

	// The open-loop phase goes first: it issues a fixed number of
	// exchanges, so the memory read after it follows a fixed amount of
	// work. The closed-loop phase then runs as fast as the machine allows.
	phase := time.Duration(cfg.seconds / 2 * float64(time.Second))
	open, err := runOpen(ctx, callers, cfg.w.OpenRate, phase)
	if err != nil {
		return nil, err
	}
	serverRSS, gatewayRSS, err := cl.rssPeaks()
	if err != nil {
		return nil, err
	}
	var before, after sutStats
	if cfg.trace {
		if before, err = cl.fetchStats(); err != nil {
			return nil, err
		}
	}
	closed, err := runClosed(ctx, callers, t, phase, cl.sampleCPU)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if after, err = cl.fetchStats(); err != nil {
			return nil, err
		}
	}
	if err := cl.check(); err != nil {
		return nil, err
	}

	res := &runResult{
		Workload: cfg.w.Name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, OpenRate: cfg.w.OpenRate,
		Attempted: t.attempted(), Failed: t.failed(),
		Failures: map[string]int64{"transport": t.transport.Load(), "timeouts": t.timeouts.Load(),
			"faults": t.faults.Load(), "echoes": t.echoes.Load()},
		Metrics: map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	put := func(name string, windows []float64) {
		res.Metrics[name] = metricValue{Value: median(windows), Unit: unitOf(name), WindowSpread: windowSpread(windows), Windows: windows}
	}
	single := func(name string, v float64) { res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)} }

	win, err := newWindowRates(closed)
	if err != nil {
		return nil, err
	}
	p50, p90, p99 := open.latencyWindows()
	lagP99, achieved, backlog := open.audit()
	res.Valid = lagP99 <= time.Millisecond && achieved >= 0.99
	dials := int64(0)
	for _, c := range callers {
		dials += c.wire.dials.Load()
	}
	single("wire_bytes_per_call", live.wireBytesPerCall)
	single("rss_peak_mb", serverRSS+gatewayRSS)
	put("setup_s", setups)
	put("calls_per_s", win.callsPerS)
	put("lat_p50_ms", p50)
	put("lat_p90_ms", p90)
	put("lat_p99_ms", p99)
	put("cpu_us_per_call", win.cpuPerCall)
	single("failed_share", float64(res.Failed)/float64(res.Attempted))
	put("spiserver.cpu_us_per_call", win.serverCPU)
	put("spigateway.cpu_us_per_call", win.gatewayCPU)
	single("spiserver.rss_peak_mb", serverRSS)
	single("spigateway.rss_peak_mb", gatewayRSS)
	single("httpx.dials", float64(dials))
	put("loadgen.cpu_us_per_call", win.selfCPU)
	single("loadgen.sched_lag_p99_ms", lagP99.Seconds()*1e3)
	single("loadgen.achieved_rate_share", achieved)
	single("loadgen.open_backlog_end", float64(backlog))
	put("bench.ready_s", readies)
	single("bench.build_s", cfg.bins.BuildSeconds)
	if !cfg.trace {
		return res, nil
	}

	for name, v := range statsRows(before, after) {
		single(name, v)
	}

	// The traced pass runs after the load phases, never during them.
	callers[0].wire.mu.Lock()
	reqWire, respWire := callers[0].wire.request, callers[0].wire.response
	callers[0].wire.mu.Unlock()
	rp, err := newReplay(cfg.w, reqWire, respWire)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	rows, err := rp.rows(ctx, cl)
	if err != nil {
		return nil, err
	}
	tr, err := runTrace(ctx, rows)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		single(row.name+"_ns", tr.medianNs[row.name])
		if row.allocs {
			single(row.name+"_allocs", tr.allocs[row.name])
		}
	}
	single("core.self_ns", tr.selfNs("core.handle"))
	single("gateway.self_ns", tr.medianNs["gateway.handle"]-tr.medianNs["gateway.backend_rtt"])
	single("bench.span_overhead_ns", tr.spanOverhead)
	single("bench.trace_replays", float64(tr.replays))
	single("budget.sum_ns", tr.budgetNs())
	single("budget.residual_share", 1-tr.budgetNs()/exchangeNs(res))
	for _, d := range tracedLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			single(d.Name, 0) // a row this workload's topology does not have
		}
	}
	res.layers = tr
	res.SpanDump = filepath.Join(cfg.dumpDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.w.Name, cfg.seed))
	if err := dumpSpans(res.SpanDump, tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// windowRates are the closed phase's per-window rates, from its
// boundaries.
type windowRates struct {
	callsPerS                                  []float64
	cpuPerCall, serverCPU, gatewayCPU, selfCPU []float64 // µs of CPU per correct call
}

func newWindowRates(b []boundary) (windowRates, error) {
	var r windowRates
	const usPerTick = 1e6 / clockTick
	for i := 1; i < len(b); i++ {
		prev, cur := b[i-1], b[i]
		calls := float64(cur.ok - prev.ok)
		if calls == 0 {
			return r, errors.New("a window completed no call")
		}
		server := float64(cur.proc.serverTicks-prev.proc.serverTicks) * usPerTick / calls
		gateway := float64(cur.proc.gatewayTicks-prev.proc.gatewayTicks) * usPerTick / calls
		r.callsPerS = append(r.callsPerS, calls/cur.at.Sub(prev.at).Seconds())
		r.serverCPU = append(r.serverCPU, server)
		r.gatewayCPU = append(r.gatewayCPU, gateway)
		r.cpuPerCall = append(r.cpuPerCall, server+gateway)
		r.selfCPU = append(r.selfCPU, float64(cur.self-prev.self)*usPerTick/calls)
	}
	return r, nil
}

// latencyWindows cuts the schedule into phaseWindows equal runs of slots
// and returns each window's exact median and 99th percentile, in ms.
func (o openResult) latencyWindows() (p50, p90, p99 []float64) {
	n := len(o.samples)
	for w := 0; w < phaseWindows; w++ {
		part := o.samples[w*n/phaseWindows : (w+1)*n/phaseWindows]
		lat := make([]float64, len(part))
		for i, s := range part {
			lat[i] = s.latency.Seconds() * 1e3
		}
		sort.Float64s(lat)
		p50 = append(p50, sortedQuantile(lat, 0.50))
		p90 = append(p90, sortedQuantile(lat, 0.90))
		p99 = append(p99, sortedQuantile(lat, 0.99))
	}
	return p50, p90, p99
}

// audit is the load generator checking itself: how late it woke for a
// slot it was idle and waiting for, what share of the schedule completed
// correctly inside the phase, and how many exchanges were still
// outstanding when the phase ended.
func (o openResult) audit() (lagP99 time.Duration, achieved float64, backlog int) {
	var lags []float64
	done := 0
	for _, s := range o.samples {
		if s.slept {
			lags = append(lags, float64(s.lag))
		}
		if s.done > o.d {
			backlog++
		} else if s.ok {
			done++
		}
	}
	return time.Duration(quantile(lags, 0.99)), float64(done) / float64(len(o.samples)), backlog
}

// statsRows turns the children's /spi/stats movement over the closed
// phase into the cross-check rows: the servers' own account of the
// phases the traced pass times from outside.
func statsRows(before, after sutStats) map[string]float64 {
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	b, a := before.server, after.server
	envelopes := float64(a.Envelopes - b.Envelopes)
	// meanUs is the mean of the samples a recorder gained between the two
	// snapshots, in microseconds.
	meanUs := func(a, b metrics.Summary) float64 {
		return per(float64(a.Total-b.Total)/1e3, float64(a.Count-b.Count))
	}
	rows := map[string]float64{
		"core.parse_us_per_msg":     meanUs(a.ParsePhase, b.ParsePhase),
		"core.dispatch_us_per_msg":  meanUs(a.DispatchPhase, b.DispatchPhase),
		"core.encode_us_per_msg":    meanUs(a.EncodePhase, b.EncodePhase),
		"core.encode_bytes_per_msg": per(float64(a.EncodeIO.Bytes-b.EncodeIO.Bytes), envelopes),
		"core.calls_per_envelope":   per(float64(a.Requests-b.Requests), envelopes),
		"core.faults":               float64(a.Faults - b.Faults),
		"core.item_faults":          float64(a.ItemFaults - b.ItemFaults),
		"stage.tasks_per_msg":       per(float64(a.AppStage.Submitted-b.AppStage.Submitted), envelopes),
		"stage.rejected":            float64(a.AppStage.Rejected - b.AppStage.Rejected),
	}
	var execAfter, execBefore metrics.Summary
	for name, op := range a.Operations {
		execAfter.Total, execAfter.Count = execAfter.Total+op.Total, execAfter.Count+op.Count
		execBefore.Total, execBefore.Count = execBefore.Total+b.Operations[name].Total, execBefore.Count+b.Operations[name].Count
	}
	rows["stage.exec_us_per_task"] = meanUs(execAfter, execBefore)

	gb, ga := before.gateway, after.gateway
	gwEnvelopes := float64(ga.Envelopes - gb.Envelopes)
	rows["gateway.subbatches_per_msg"] = per(float64(ga.Scattered-gb.Scattered), float64(ga.Packed-gb.Packed))
	rows["gateway.passthrough_share"] = per(float64(ga.Passthrough-gb.Passthrough), gwEnvelopes)
	rows["gateway.failovers"] = float64(ga.Failovers - gb.Failovers)
	rows["gateway.degraded"] = float64(ga.Degraded - gb.Degraded)
	lo, hi := 0.0, 0.0
	for i, be := range ga.Backends {
		moved := float64(be.Exchanges)
		if i < len(gb.Backends) {
			moved -= float64(gb.Backends[i].Exchanges)
		}
		if i == 0 || moved < lo {
			lo = moved
		}
		if moved > hi {
			hi = moved
		}
	}
	rows["gateway.backend_skew"] = per(hi, lo)
	return rows
}

// printLayerTable prints the traced rows with their place in the span
// tree, their self time and their allocation counts, then the budget and
// what it leaves unexplained of one closed-loop exchange.
func printLayerTable(w io.Writer, tr *traceResult, exchangeNs float64) {
	fmt.Fprintf(w, "\n  traced pass: %d replays of the captured exchange after %d warm-ups, median span per layer\n", tr.replays, tr.replays/10)
	fmt.Fprintf(w, "  %-24s %-22s %12s %12s %10s\n", "layer", "inside", "span ns", "self ns", "allocs")
	for _, name := range tr.order {
		allocs := ""
		if n, ok := tr.allocs[name]; ok {
			allocs = fmt.Sprintf("%.0f", n)
		}
		fmt.Fprintf(w, "  %-24s %-22s %12.0f %12.0f %10s\n", name, tr.parents[name], tr.medianNs[name], tr.selfNs(name), allocs)
	}
	budget := tr.budgetNs()
	fmt.Fprintf(w, "  budget: rows inside %q sum to %.0f ns of the %.0f ns one closed-loop exchange takes; residual %.1f%% (kernel, loopback, scheduling, contention)\n",
		spanExchange, budget, exchangeNs, 100*(1-budget/exchangeNs))
}
