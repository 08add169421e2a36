package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// testContainer deploys the ops the gateway suites exercise. Identical
// containers back every server in a farm and the direct server of the
// differential tests, so any byte divergence comes from the gateway.
func testContainer(tb testing.TB) *registry.Container {
	tb.Helper()
	c := registry.NewContainer()
	echo := c.MustAddService("Echo", "urn:spi:Echo", "test echo")
	echo.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return params, nil
	}, "identity")
	echo.MustRegister("empty", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return []soapenc.Field{soapenc.F("s", "")}, nil
	}, "empty string result")
	echo.MustRegister("none", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return nil, nil
	}, "no results at all")
	echo.MustRegister("fail", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return nil, errors.New("deliberate failure")
	}, "always faults")
	echo.MustRegister("nap", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		var ms int64
		for _, p := range params {
			if p.Name == "ms" {
				if v, ok := p.Value.(int64); ok {
					ms = v
				}
			}
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return []soapenc.Field{soapenc.F("slept", ms)}, nil
	}, "sleeps ms milliseconds — randomizes completion order")
	echo.MarkIdempotent("echo", "empty", "none", "nap")
	// The travel agent's vendors: their search replies carry arrays.
	if _, err := services.DeployTravel(c, services.Options{}); err != nil {
		tb.Fatal(err)
	}
	return c
}

// farm is K backend SPI servers behind one gateway, everything linked over
// in-memory networks.
type farm struct {
	gw     *Gateway
	gwLink *netsim.Link
	links  []*netsim.Link
}

// newFarm spins the backends and the gateway. mutate tweaks the gateway
// config after the backends are wired in.
func newFarm(tb testing.TB, k int, mutate func(*Config)) *farm {
	tb.Helper()
	f := &farm{}
	var backends []BackendConfig
	for i := 0; i < k; i++ {
		link := netsim.NewLink(netsim.Fast())
		lis, err := link.Listen()
		if err != nil {
			tb.Fatal(err)
		}
		srv, err := core.NewServer(core.ServerConfig{
			Container: testContainer(tb), AppWorkers: 8, AppQueue: 64,
		})
		if err != nil {
			tb.Fatal(err)
		}
		go srv.Serve(lis)
		tb.Cleanup(func() { srv.Close(); link.Close() })
		f.links = append(f.links, link)
		backends = append(backends, BackendConfig{Name: fmt.Sprintf("b%d", i), Dial: link.Dial})
	}
	cfg := Config{
		Backends:       backends,
		Registry:       testContainer(tb),
		DebugEndpoints: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f.gw = gw
	f.gwLink = netsim.NewLink(netsim.Fast())
	glis, err := f.gwLink.Listen()
	if err != nil {
		tb.Fatal(err)
	}
	go gw.Serve(glis)
	tb.Cleanup(func() { gw.Close(); f.gwLink.Close() })
	return f
}

// client connects a core SPI client to the gateway endpoint.
func (f *farm) client(tb testing.TB, mutate func(*core.ClientConfig)) *core.Client {
	tb.Helper()
	cfg := core.ClientConfig{Dial: f.gwLink.Dial, Timeout: 5 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	cli, err := core.NewClient(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cli.Close() })
	return cli
}

// raw returns a plain HTTP client pointed at the gateway.
func (f *farm) raw() *httpx.Client {
	return &httpx.Client{Dial: f.gwLink.Dial, KeepAlive: true, Timeout: 5 * time.Second}
}

func TestPackedScatterRoundTrip(t *testing.T) {
	for k := 1; k <= 4; k++ {
		t.Run(fmt.Sprintf("backends=%d", k), func(t *testing.T) {
			f := newFarm(t, k, nil)
			cli := f.client(t, nil)
			b := cli.NewBatch()
			var calls []*core.Call
			for i := 0; i < 12; i++ {
				calls = append(calls, b.Add("Echo", "echo", soapenc.F("i", int64(i))))
			}
			if err := b.Send(); err != nil {
				t.Fatal(err)
			}
			for i, call := range calls {
				results, err := call.Wait()
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if len(results) != 1 || !soapenc.Equal(results[0].Value, int64(i)) {
					t.Errorf("call %d results = %v", i, results)
				}
			}
			st := f.gw.Stats()
			if st.Packed != 1 {
				t.Errorf("Packed = %d, want 1", st.Packed)
			}
			if st.Scattered < 1 || st.Scattered > int64(k) {
				t.Errorf("Scattered = %d, want 1..%d", st.Scattered, k)
			}
			var exch int64
			for _, bs := range st.Backends {
				exch += bs.Exchanges
			}
			if exch != st.Scattered {
				t.Errorf("backend exchanges = %d, scattered = %d", exch, st.Scattered)
			}
		})
	}
}

func TestPerItemFaultsThroughGateway(t *testing.T) {
	f := newFarm(t, 3, nil)
	cli := f.client(t, nil)
	b := cli.NewBatch()
	ok := b.Add("Echo", "echo", soapenc.F("msg", "fine"))
	bad := b.Add("Echo", "fail")
	unknown := b.Add("NoSuchService", "echo")
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Wait(); err != nil {
		t.Errorf("echo entry: %v", err)
	}
	var fault *soap.Fault
	if _, err := bad.Wait(); !errors.As(err, &fault) || fault.Code != soap.FaultServer {
		t.Errorf("fail entry err = %v", err)
	}
	if _, err := unknown.Wait(); !errors.As(err, &fault) || fault.Code != soap.FaultClient {
		t.Errorf("unknown service err = %v", err)
	}
}

func TestProxySingleCall(t *testing.T) {
	f := newFarm(t, 2, nil)
	cli := f.client(t, nil)
	results, err := cli.Call("Echo", "echo", soapenc.F("msg", "direct"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !soapenc.Equal(results[0].Value, "direct") {
		t.Errorf("results = %v", results)
	}
	if st := f.gw.Stats(); st.Proxied != 1 {
		t.Errorf("Proxied = %d, want 1", st.Proxied)
	}
}

func TestGatewayEndpointErrors(t *testing.T) {
	f := newFarm(t, 1, nil)
	raw := f.raw()
	defer raw.Close()

	resp, err := raw.Post("/elsewhere", "text/xml", []byte("<x/>"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Errorf("bad path status = %d, want 404", resp.StatusCode)
	}
	resp.Release()

	req := httpx.NewRequest("PUT", "/services/", []byte("<x/>"))
	resp, err = raw.DoCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 405 {
		t.Errorf("PUT status = %d, want 405", resp.StatusCode)
	}
	resp.Release()

	resp, err = raw.Post("/services", "text/xml", []byte("this is not xml"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 || !strings.Contains(string(resp.Body), "malformed envelope") {
		t.Errorf("garbage POST = %d %q", resp.StatusCode, resp.Body)
	}
	resp.Release()
}

func TestStatsEndpoint(t *testing.T) {
	f := newFarm(t, 2, nil)
	cli := f.client(t, nil)
	b := cli.NewBatch()
	for i := 0; i < 4; i++ {
		b.Add("Echo", "echo", soapenc.F("i", int64(i)))
	}
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}

	raw := f.raw()
	defer raw.Close()
	resp, err := raw.DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/stats", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %q", resp.StatusCode, resp.Body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var snap struct {
		Gateway Stats `json:"gateway"`
	}
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if snap.Gateway.Packed != 1 || len(snap.Gateway.Backends) != 2 {
		t.Errorf("snapshot = %+v", snap.Gateway)
	}
	if snap.Gateway.Policy != "round-robin" {
		t.Errorf("policy = %q", snap.Gateway.Policy)
	}
}

// TestGatewayDebugPprof: a gateway serving /spi/stats serves the runtime
// profiles under /spi/pprof/ too, from the server's debug handler, and
// refuses any other debug path as a server does.
func TestGatewayDebugPprof(t *testing.T) {
	srv, err := core.NewServer(core.ServerConfig{Container: testContainer(t), DebugEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gw := newFarm(t, 1, nil).gw
	for _, c := range []struct {
		target, ct string
		status     int
	}{
		{"/spi/pprof/goroutine", "text/plain; charset=utf-8", 200},
		{"/spi/pprof/nonsense", "text/plain", 404},
		{"/spi/other", "text/plain", 404},
	} {
		resp := gw.Handle(context.Background(), httpx.NewRequest("GET", c.target, nil))
		if resp.StatusCode != c.status || resp.Header.Get("Content-Type") != c.ct {
			t.Errorf("GET %s: HTTP %d %q, want %d %q", c.target, resp.StatusCode, resp.Header.Get("Content-Type"), c.status, c.ct)
		}
		if c.status == 200 && !strings.Contains(string(resp.Body), "goroutine") {
			t.Errorf("GET %s: the profile does not mention goroutines: %.120s", c.target, resp.Body)
		}
		want := srv.HandleHTTP(context.Background(), httpx.NewRequest("GET", c.target, nil))
		if c.status != 200 && !bytes.Equal(resp.Body, want.Body) {
			t.Errorf("GET %s: the gateway answers %q, the server %q", c.target, resp.Body, want.Body)
		}
		resp.Release()
		want.Release()
	}
}

// TestStatsEndpointRuntime checks the "runtime" object of the gateway's
// /spi/stats: it carries the five GC fields, and its cycle count advances
// across a collection.
func TestStatsEndpointRuntime(t *testing.T) {
	f := newFarm(t, 1, nil)
	raw := f.raw()
	defer raw.Close()
	read := func() map[string]float64 {
		t.Helper()
		resp, err := raw.DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/stats", nil))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Release()
		var snap struct {
			Runtime map[string]float64 `json:"runtime"`
		}
		if err := json.Unmarshal(resp.Body, &snap); err != nil {
			t.Fatalf("unmarshal: %v", err)
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
	if after := read(); after["gc_cycles"] <= before["gc_cycles"] {
		t.Errorf("runtime.gc_cycles %v -> %v across runtime.GC()", before["gc_cycles"], after["gc_cycles"])
	}
}

func TestFailoverToHealthyBackend(t *testing.T) {
	f := newFarm(t, 2, nil)
	// Kill every dial to backend 0: sub-batches assigned there must fail
	// over to backend 1 and still succeed.
	f.links[0].FailDials(1 << 30)

	cli := f.client(t, nil)
	b := cli.NewBatch()
	var calls []*core.Call
	for i := 0; i < 8; i++ {
		calls = append(calls, b.Add("Echo", "echo", soapenc.F("i", int64(i))))
	}
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		if _, err := call.Wait(); err != nil {
			t.Fatalf("call %d after failover: %v", i, err)
		}
	}
	st := f.gw.Stats()
	if st.Failovers < 1 {
		t.Errorf("Failovers = %d, want >= 1", st.Failovers)
	}
}

// TestFailoverBackoffUsesRetrySleep: the wait between a failed sub-batch and
// its failover goes through Retry.Sleep, with the policy's backoff.
func TestFailoverBackoffUsesRetrySleep(t *testing.T) {
	const base = 7 * time.Millisecond
	var mu sync.Mutex
	var slept []time.Duration
	f := newFarm(t, 2, func(cfg *Config) {
		cfg.Retry = &core.RetryPolicy{MaxAttempts: 3, BaseDelay: base, Sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return ctx.Err()
		}}
	})
	f.links[0].FailDials(1 << 30)

	cli := f.client(t, nil)
	b := cli.NewBatch()
	var calls []*core.Call
	for i := 0; i < 8; i++ {
		calls = append(calls, b.Add("Echo", "echo", soapenc.F("i", int64(i))))
	}
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		if _, err := call.Wait(); err != nil {
			t.Fatalf("call %d after failover: %v", i, err)
		}
	}
	if st := f.gw.Stats(); st.Failovers < 1 {
		t.Fatalf("Failovers = %d, want >= 1", st.Failovers)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) == 0 {
		t.Fatal("Retry.Sleep was never called: the failover backoff slept on its own timer")
	}
	for _, d := range slept {
		if d != base {
			t.Errorf("Retry.Sleep(%v), want the first backoff %v", d, base)
		}
	}
}

func TestEjectionAndRecovery(t *testing.T) {
	f := newFarm(t, 2, func(cfg *Config) {
		cfg.FailureThreshold = 2
		cfg.ReprobeAfter = 30 * time.Millisecond
	})
	b0 := f.gw.backends[0]
	ended := windowEnds(f.gw, b0)
	f.links[0].FailDials(1 << 30)

	cli := f.client(t, nil)
	send := func(rounds int) {
		t.Helper()
		for round := 0; round < rounds; round++ {
			b := cli.NewBatch()
			for i := 0; i < 6; i++ {
				b.Add("Echo", "echo", soapenc.F("i", int64(i)))
			}
			if err := b.Send(); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(3)
	st := f.gw.Stats()
	if st.Backends[0].Ejections < 1 {
		t.Fatalf("backend 0 ejections = %d, want >= 1", st.Backends[0].Ejections)
	}

	// Heal the link: the probe at the end of the window closes the circuit,
	// and traffic reaches backend 0 again.
	f.links[0].FailDials(0)
	awaitWindowEnd(t, ended, "backend 0 to recover", func() bool {
		return !f.gw.Stats().Backends[0].Ejected && f.gw.consecutiveFails(b0) == 0
	})
	ex := f.gw.Stats().Backends[0].Exchanges
	send(4)
	if st = f.gw.Stats(); st.Backends[0].Ejected || f.gw.consecutiveFails(b0) != 0 || st.Backends[0].Exchanges == ex {
		t.Fatalf("after recovery: %+v, %d consecutive failures", st.Backends[0], f.gw.consecutiveFails(b0))
	}
}

// consecutiveFails reads the circuit's failure count.
func (g *Gateway) consecutiveFails(b *backend) int {
	ms, _ := g.fleet.snapshot(time.Now())
	return ms[b.index].fails
}

// windowEnds gives b a window timer that ends the window as the gateway's
// does, probe included, and then reports it: a test waits on the report
// instead of sleeping. Call it before b sees traffic.
func windowEnds(g *Gateway, b *backend) <-chan struct{} {
	ended := make(chan struct{}, 1)
	b.window.Stop()
	b.window = time.AfterFunc(time.Hour, func() {
		g.do(b, g.fleet.windowEnded(b.index, time.Now()))
		select {
		case ended <- struct{}{}:
		default:
		}
	})
	b.window.Stop()
	return ended
}

// awaitWindowEnd waits, window end by window end, until cond holds.
func awaitWindowEnd(t *testing.T, ended <-chan struct{}, what string, cond func() bool) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-ended:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestActiveProbeRecovers(t *testing.T) {
	f := newFarm(t, 2, func(cfg *Config) {
		cfg.FailureThreshold = 1
		cfg.ReprobeAfter = 20 * time.Millisecond
	})
	b0 := f.gw.backends[0]
	ended := windowEnds(f.gw, b0)
	f.links[0].FailDials(1 << 30)

	cli := f.client(t, nil)
	b := cli.NewBatch()
	for i := 0; i < 4; i++ {
		b.Add("Echo", "echo", soapenc.F("i", int64(i)))
	}
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}

	f.links[0].FailDials(0)
	// The probe at the end of the ejection window closes the circuit
	// without any client traffic.
	awaitWindowEnd(t, ended, "the probe to recover backend 0", func() bool {
		return f.gw.consecutiveFails(b0) == 0
	})
}

// TestCloseWaitsForProbe closes the gateway while a probe is inside its
// dial: Close ends the probe's context and returns only once the probe has
// finished, so no probe uses a backend's client after Close.
func TestCloseWaitsForProbe(t *testing.T) {
	entered := make(chan struct{}, 1)
	var running atomic.Int32
	gw, err := New(Config{
		Backends: []BackendConfig{{Name: "b0", DialCtx: func(ctx context.Context) (net.Conn, error) {
			running.Add(1)
			defer running.Add(-1)
			select {
			case entered <- struct{}{}:
			default:
			}
			<-ctx.Done()
			// Still running a moment after its context has ended.
			time.Sleep(20 * time.Millisecond)
			return nil, ctx.Err()
		}}},
		FailureThreshold: 1,
		ReprobeAfter:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.noteFailure(gw.backends[0]) // opens the circuit: the probe comes when its window ends
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the probe never dialled")
	}
	gw.Close()
	if n := running.Load(); n != 0 {
		t.Errorf("Close returned with %d probe dials running", n)
	}
}

func TestPolicyAssignment(t *testing.T) {
	entries := func(ops ...string) []*core.ScatterEntry {
		var es []*core.ScatterEntry
		for i, op := range ops {
			es = append(es, &core.ScatterEntry{Slot: i, ID: i, Service: "Echo", Op: op})
		}
		return es
	}

	// byIndex spreads the returned shards over the backends' indices so the
	// assertions below can address backends positionally.
	byIndex := func(shards []shard) map[int][]*core.ScatterEntry {
		out := make(map[int][]*core.ScatterEntry)
		for _, sh := range shards {
			out[sh.b.index] = sh.entries
		}
		return out
	}

	t.Run("round-robin", func(t *testing.T) {
		f := newFarm(t, 3, nil)
		f.gw.rr.Store(0)
		shards := byIndex(f.gw.assign(entries("a", "b", "c", "d", "e", "f")))
		for i := 0; i < 3; i++ {
			if len(shards[i]) != 2 {
				t.Errorf("shard %d has %d entries, want 2", i, len(shards[i]))
			}
		}
	})

	t.Run("op-affinity", func(t *testing.T) {
		f := newFarm(t, 3, func(cfg *Config) { cfg.Policy = OpAffinity })
		shards := byIndex(f.gw.assign(entries("x", "x", "x", "y", "y", "y")))
		// Same op must land on the same backend.
		perOp := map[string]int{}
		for bi, shard := range shards {
			for _, e := range shard {
				if prev, seen := perOp[e.Op]; seen && prev != bi {
					t.Errorf("op %s split across backends %d and %d", e.Op, prev, bi)
				}
				perOp[e.Op] = bi
			}
		}
	})

	t.Run("least-loaded", func(t *testing.T) {
		f := newFarm(t, 3, func(cfg *Config) { cfg.Policy = LeastLoaded })
		// Pretend backend 0 is busy: everything should avoid it.
		setReserved(f.gw, 0, 100)
		shards := byIndex(f.gw.assign(entries("a", "b", "c", "d")))
		if len(shards[0]) != 0 {
			t.Errorf("busy backend got %d entries", len(shards[0]))
		}
		if len(shards[1])+len(shards[2]) != 4 {
			t.Errorf("idle backends got %d entries, want 4", len(shards[1])+len(shards[2]))
		}
		if len(shards[1]) != 2 || len(shards[2]) != 2 {
			t.Errorf("uneven spread: %d/%d", len(shards[1]), len(shards[2]))
		}
	})

	t.Run("weighted-skew", func(t *testing.T) {
		f := newFarm(t, 2, func(cfg *Config) { cfg.Policy = LeastLoaded })
		// Backend 0 carries 3× the weight of backend 1: at equal load and
		// speed it must absorb three quarters of the entries.
		f.gw.backends[0].weight.Store(3)
		shards := byIndex(f.gw.assign(entries("a", "b", "c", "d", "e", "f", "g", "h")))
		if len(shards[0]) != 6 || len(shards[1]) != 2 {
			t.Errorf("weighted spread %d/%d, want 6/2", len(shards[0]), len(shards[1]))
		}
	})

	t.Run("draining-excluded", func(t *testing.T) {
		f := newFarm(t, 3, nil)
		setDraining(t, f.gw, "b1", true)
		shards := byIndex(f.gw.assign(entries("a", "b", "c", "d", "e", "f")))
		if len(shards[1]) != 0 {
			t.Errorf("draining backend got %d entries", len(shards[1]))
		}
		if len(shards[0])+len(shards[2]) != 6 {
			t.Errorf("routable backends got %d entries, want 6", len(shards[0])+len(shards[2]))
		}
	})

	t.Run("faulted-entries-skipped", func(t *testing.T) {
		f := newFarm(t, 2, nil)
		es := entries("a", "b")
		es[0].Fault = soap.ClientFault("broken")
		total := 0
		for _, sh := range f.gw.assign(es) {
			total += len(sh.entries)
		}
		if total != 1 {
			t.Errorf("assigned %d entries, want 1 (faulted entry skipped)", total)
		}
	})
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"round-robin": RoundRobin, "least-loaded": LeastLoaded,
		"op-affinity": OpAffinity, "weighted": LeastLoaded,
		"bogus": RoundRobin, "": RoundRobin,
	}
	for s, want := range cases {
		if got := ParsePolicy(s); got != want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", s, got, want)
		}
	}
	if RoundRobin.String() != "round-robin" || LeastLoaded.String() != "least-loaded" || OpAffinity.String() != "op-affinity" {
		t.Error("Policy.String mismatch")
	}
}

func TestGatewayShutdown(t *testing.T) {
	f := newFarm(t, 2, nil)
	cli := f.client(t, nil)
	if _, err := cli.Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
		t.Fatal(err)
	}
	if err := f.gw.Shutdown(time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestStatsEndpointMatchesEncodingJSON holds a gateway's served /spi/stats
// to encoding/json byte for byte: the document read back into its types and
// written again with json.MarshalIndent must be the bytes served, for a
// parsing gateway of two backends and a coalescing one, after a packed
// message, single calls and a fault.
func TestStatsEndpointMatchesEncodingJSON(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		f := newFarm(t, 2, func(cfg *Config) { cfg.Coalesce.Enabled = coalesce })
		cli := f.client(t, nil)
		b := cli.NewBatch()
		b.Add("Echo", "echo", soapenc.F("m", "x"))
		b.Add("Echo", "echo", soapenc.F("m", "<&>"))
		if err := b.Send(); err != nil {
			t.Fatal(err)
		}
		for i := range 3 {
			if _, err := cli.Call("Echo", "echo", soapenc.F("m", fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
		if r := post(t, f.raw(), "/services/", soap.V11.ContentType(), []byte("not xml")); r.status != 500 {
			t.Fatalf("status %d, want 500", r.status)
		}
		resp, err := f.raw().DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/stats", nil))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Gateway *Stats               `json:"gateway,omitempty"`
			Runtime metrics.RuntimeStats `json:"runtime"`
		}
		if err := json.Unmarshal(resp.Body, &doc); err != nil {
			t.Fatalf("not JSON: %v\n%s", err, resp.Body)
		}
		if coalesce && (doc.Gateway.CoalesceSizes == nil || doc.Gateway.FaultCodes == nil) {
			t.Fatalf("coalescing gateway without batch sizes or fault codes: %s", resp.Body)
		}
		want, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(resp.Body, want) {
			t.Errorf("coalesce %v: served and encoding/json differ\n got:\n%s\nwant:\n%s", coalesce, resp.Body, want)
		}
		resp.Release()
	}
}

// TestStatsEndpointKeys pins the key set of a coalescing gateway's
// /spi/stats document after a packed message, a coalesced call and a fault:
// what a reader of the document may look up.
func TestStatsEndpointKeys(t *testing.T) {
	f := newFarm(t, 2, func(cfg *Config) { cfg.Coalesce.Enabled = true })
	cli := f.client(t, nil)
	b := cli.NewBatch()
	b.Add("Echo", "echo", soapenc.F("m", "x"))
	b.Add("Echo", "echo", soapenc.F("m", "y"))
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call("Echo", "echo", soapenc.F("m", "z")); err != nil {
		t.Fatal(err)
	}
	if r := post(t, f.raw(), "/services/", soap.V11.ContentType(), []byte("not xml")); r.status != 500 {
		t.Fatalf("status %d, want 500", r.status)
	}
	resp, err := f.raw().DoCtx(context.Background(), httpx.NewRequest("GET", "/spi/stats", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	var doc any
	if err := json.Unmarshal(resp.Body, &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, resp.Body)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				seen[path+k] = true
				walk(path+k+".", e)
			}
		case []any:
			for _, e := range v {
				walk(strings.TrimSuffix(path, ".")+"[].", e)
			}
		}
	}
	walk("", doc)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := []byte(strings.Join(keys, "\n") + "\n")
	path := filepath.Join("testdata", "stats_keys_gateway.txt")
	if *updateCorpus {
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
