package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	builtBins binaries
	buildErr  error
	buildDir  string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// testBinaries builds spiserver and spigateway once for the whole test
// binary, into a directory of its own so survivors can be told apart from
// any other spiserver on the machine.
func testBinaries(t *testing.T) binaries {
	t.Helper()
	buildOnce.Do(func() {
		var root string
		if root, buildErr = repoRoot(); buildErr != nil {
			return
		}
		if buildDir, buildErr = os.MkdirTemp("", "spi-benchmark-test-"); buildErr != nil {
			return
		}
		builtBins, buildErr = buildBinaries(context.Background(), root, buildDir)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBins
}

// survivors lists the live processes running one of the test's binaries.
func survivors(bins binaries) []string {
	exes, _ := filepath.Glob("/proc/[0-9]*/exe") // the pattern is well-formed
	var found []string
	for _, exe := range exes {
		target, err := os.Readlink(exe)
		if err != nil {
			continue // not ours to read, or gone already
		}
		target = strings.TrimSuffix(target, " (deleted)")
		if target == bins.Server || target == bins.Gateway {
			found = append(found, exe+" -> "+target)
		}
	}
	return found
}

func TestParseListening(t *testing.T) {
	for line, want := range map[string]string{
		"spiserver: listening on 127.0.0.1:40123":                                           "127.0.0.1:40123",
		"spigateway: listening on 127.0.0.1:40124, policy round-robin, 2 backend(s):":       "127.0.0.1:40124",
		"spiserver: listening on [::]:8080":                                                 "[::]:8080",
		"  /services/Echo — returns the data whatever it received (§4.1)":                   "",
		"spigateway: zero-copy passthrough for single calls":                                "",
		"spiserver: listening on ":                                                          "",
		"spigateway: polling backend Admin services every 250ms, not listening on anything": "anything",
	} {
		got, ok := parseListening(line)
		if got != want || ok != (want != "") {
			t.Errorf("parseListening(%q) = %q, %v; want %q", line, got, ok, want)
		}
	}
}

func TestClusterStartsAndStopsEveryChild(t *testing.T) {
	bins := testBinaries(t)
	cl, err := startCluster(bins, workload{Gateway: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(survivors(bins)); n != 3 {
		t.Errorf("%d children running, want gateway + 2 servers", n)
	}
	if err := cl.check(); err != nil {
		t.Error(err)
	}
	if _, err := cl.sampleCPU(); err != nil {
		t.Error(err)
	}
	if server, gateway, err := cl.rssPeaks(); err != nil || server <= 0 || gateway <= 0 {
		t.Errorf("rss peaks %v, %v, %v", server, gateway, err)
	}
	cl.stop()
	if left := survivors(bins); len(left) != 0 {
		t.Errorf("children survived stop: %v", left)
	}
}

// A run that fails half-way through set-up — here the gateway binary is
// missing after both servers are up — must not leave the servers behind.
func TestFailedRunLeavesNoChild(t *testing.T) {
	bins := testBinaries(t)
	broken := bins
	broken.Gateway = filepath.Join(t.TempDir(), "no-such-gateway")
	w, _ := findWorkload("gw-single-10b")
	_, err := runWorkload(context.Background(), runConfig{w: w, seed: 1, seconds: 0.4, bins: broken,
		dumpDir: t.TempDir(), timeout: exchangeTimeout})
	if err == nil {
		t.Fatal("run with a missing gateway binary succeeded")
	}
	if left := survivors(bins); len(left) != 0 {
		t.Errorf("children survived a failed run: %v", left)
	}

	// A child that exits instead of listening is reported, not waited for.
	broken = bins
	broken.Server = "/bin/false"
	if _, err := startCluster(broken, workload{}); err == nil || !strings.Contains(err.Error(), "exited before listening") {
		t.Errorf("startCluster with a dying server: %v", err)
	}
}

// An interrupt arrives as a cancelled context (main wires SIGINT and
// SIGTERM to it); the run must return promptly with every child reaped.
func TestInterruptedRunLeavesNoChild(t *testing.T) {
	bins := testBinaries(t)
	w, _ := findWorkload("gw-packed16-10b")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for len(survivors(bins)) < 3 {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := runWorkload(ctx, runConfig{w: w, seed: 1, seconds: 60, bins: bins,
		dumpDir: t.TempDir(), timeout: exchangeTimeout})
	cancel()
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("interrupted run took %v to return", took)
	}
	if left := survivors(bins); len(left) != 0 {
		t.Errorf("children survived an interrupted run: %v", left)
	}

	// The same while a load phase is running: the phase gives up at once.
	cfg := runConfig{w: w, seed: 1, bins: bins, timeout: exchangeTimeout}
	live, err := setUp(context.Background(), cfg, newPayloads(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := runClosed(ctx, live.callers, live.tally, time.Minute, live.cl.sampleCPU); err == nil {
		t.Error("interrupted closed-loop phase reported success")
	}
	if _, err := runOpen(ctx, live.callers, w.OpenRate, time.Minute); err == nil {
		t.Error("interrupted open-loop phase reported success")
	}
	live.stop()
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("interrupted phases took %v to stop", took)
	}
	if left := survivors(bins); len(left) != 0 {
		t.Errorf("children survived an interrupted phase: %v", left)
	}
}

// The smoke run drives one workload end to end with sub-second phases:
// fresh processes, both load phases, the checker, the traced pass, the
// span dump and the contract line.
func TestSmokeRun(t *testing.T) {
	bins := testBinaries(t)
	w, _ := findWorkload("packed16-10b")
	dir := t.TempDir()
	res, err := runWorkload(context.Background(), runConfig{w: w, seed: 3, seconds: 0.8, trace: true, bins: bins,
		dumpDir: dir, timeout: exchangeTimeout})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1000 {
		t.Errorf("correct=%v attempted=%d failed=%d %v", res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	if left := survivors(bins); len(left) != 0 {
		t.Errorf("children survived the run: %v", left)
	}
	want := map[string]float64{
		"httpx.dials":             2,
		"core.calls_per_envelope": 16,
		"stage.tasks_per_msg":     16,
		"failed_share":            0,
		"gateway.handle_ns":       0,
	}
	for name, v := range want {
		if got := res.Metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	for _, name := range []string{"calls_per_s", "lat_p50_ms", "cpu_us_per_call", "wire_bytes_per_call",
		"rss_peak_mb", "setup_s", "xmltext.tokenize_ns", "core.handle_ns", "client.call_ns", "budget.sum_ns"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, res.Metrics[name].Value)
		}
	}
	if n := len(res.Metrics["setup_s"].Windows); n != setupReps {
		t.Errorf("setup_s is the median of %d set-ups, want %d", n, setupReps)
	}

	raw, err := os.ReadFile(res.SpanDump)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	perMsg := len(res.layers.order) + 2 // the rows, the exchange root, the empty span
	if len(spans) != res.layers.replays*perMsg || res.layers.replays < minTraceReplays {
		t.Errorf("%d spans dumped, want %d replays × %d", len(spans), res.layers.replays, perMsg)
	}

	for _, traced := range []bool{false, true} {
		res.Trace = traced
		var line struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(line.Metrics) != len(defs) || !line.Correct || line.Attempted != res.Attempted {
			t.Errorf("trace=%v: contract line has %d metrics, want %d", traced, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace=%v: contract line lacks %s in %s", traced, d.Name, d.Unit)
			}
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in main.go and
// workloads.go are what the harness prints. They must name the same
// things in the same units.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s/%s, harness %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := spec.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s/%s, harness %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if _, ok := advisoryBounds[d.Name]; ok && i >= len(loadLayer) {
			t.Errorf("%s has an advisory bound but untraced runs do not measure it", d.Name)
		}
	}
}
