package gateway

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// The control-plane tier pins the cluster-level guarantees: the gateway's
// self-hosted Admin service, the membership poller driving the Weighted
// policy, graceful drain under live load (zero lost or duplicated
// entries), and dynamic add/remove. Backends here run with
// AdminService enabled so the poller has something real to scrape.

// adminFarm is a farm whose backends self-host the Admin service and count
// every echo they serve, with an optional per-backend service time so
// fleets can be skewed.
type adminFarm struct {
	*farm
	served []*atomic.Int64 // echo invocations per backend, by config order
}

func newAdminFarm(tb testing.TB, k int, work []time.Duration, mutate func(*Config)) *adminFarm {
	tb.Helper()
	af := &adminFarm{farm: &farm{}, served: make([]*atomic.Int64, k)}
	var backends []BackendConfig
	for i := 0; i < k; i++ {
		link := netsim.NewLink(netsim.Fast())
		lis, err := link.Listen()
		if err != nil {
			tb.Fatal(err)
		}
		count := &atomic.Int64{}
		af.served[i] = count
		var delay time.Duration
		if work != nil {
			delay = work[i]
		}
		c := registry.NewContainer()
		echo := c.MustAddService("Echo", "urn:spi:Echo", "counting echo")
		echo.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			count.Add(1)
			if delay > 0 {
				time.Sleep(delay)
			}
			return params, nil
		}, "identity with per-backend service time")
		echo.MarkIdempotent("echo")
		srv, err := core.NewServer(core.ServerConfig{
			Container: c, AppWorkers: 8, AppQueue: 64, AdminService: true,
		})
		if err != nil {
			tb.Fatal(err)
		}
		go srv.Serve(lis)
		tb.Cleanup(func() { srv.Close(); link.Close() })
		af.links = append(af.links, link)
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
	af.gw = gw
	af.gwLink = netsim.NewLink(netsim.Fast())
	glis, err := af.gwLink.Listen()
	if err != nil {
		tb.Fatal(err)
	}
	go gw.Serve(glis)
	tb.Cleanup(func() { gw.Close(); af.gwLink.Close() })
	return af
}

// waitFor polls cond until it holds or the timeout fires.
func waitFor(tb testing.TB, timeout time.Duration, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatalf("timed out after %v waiting for %s", timeout, what)
}

// postEnvelope sends one single-call envelope to the Admin endpoint and
// returns a copy of the response body.
func postEnvelope(tb testing.TB, c *httpx.Client, target string, doc []byte) []byte {
	tb.Helper()
	resp, err := c.Post(target, soap.V11.ContentType(), doc, "SOAPAction", `""`)
	if err != nil {
		tb.Fatalf("POST %s: %v", target, err)
	}
	defer resp.Release()
	return append([]byte(nil), resp.Body...)
}

// adminGetStats runs one GetStats exchange against the given endpoint.
func adminGetStats(tb testing.TB, c *httpx.Client, target string) admin.Stats {
	tb.Helper()
	body := postEnvelope(tb, c, target, admin.GetStatsRequest(soap.V11))
	st, err := admin.ParseStatsResponse(body)
	if err != nil {
		tb.Fatalf("GetStats: %v", err)
	}
	return st
}

// adminSetState runs one SetState exchange and fails the test on a fault.
func adminSetState(tb testing.TB, c *httpx.Client, target string, weight int64, drain *bool) {
	tb.Helper()
	doc, err := admin.SetStateRequest(soap.V11, weight, drain)
	if err != nil {
		tb.Fatal(err)
	}
	body := postEnvelope(tb, c, target, doc)
	if _, err := admin.ParseStatsResponse(body); err != nil {
		// SetState responds with SetStateResponse, not GetStatsResponse, so
		// the parser always errors — but a *soap.Fault means the node said no.
		if f, ok := err.(*soap.Fault); ok {
			tb.Fatalf("SetState faulted: %v", f)
		}
	}
}

func boolPtr(b bool) *bool { return &b }

func TestGatewayAdminService(t *testing.T) {
	f := newFarm(t, 2, func(cfg *Config) {
		cfg.AdminService = true
		cfg.AdminWeight = 2
	})
	c := f.raw()
	defer c.Close()

	st := adminGetStats(t, c, "/services/Admin")
	if st.Role != "gateway" {
		t.Errorf("Role = %q, want gateway", st.Role)
	}
	if st.Weight != 2 || st.Draining {
		t.Errorf("Weight/Draining = %d/%v, want 2/false", st.Weight, st.Draining)
	}

	// SetState changes the advertised weight and drain flag.
	adminSetState(t, c, "/services/Admin", 5, boolPtr(true))
	st = adminGetStats(t, c, "/services/Admin")
	if st.Weight != 5 || !st.Draining {
		t.Errorf("after SetState: Weight/Draining = %d/%v, want 5/true", st.Weight, st.Draining)
	}

	// The Admin intercept must not shadow ordinary services: a regular call
	// still proxies through to a backend.
	cli := f.client(t, nil)
	results, err := cli.Call("Echo", "echo", soapenc.F("msg", "still works"))
	if err != nil {
		t.Fatalf("Echo through admin-enabled gateway: %v", err)
	}
	if len(results) != 1 || !soapenc.Equal(results[0].Value, "still works") {
		t.Errorf("results = %v", results)
	}

	// Requests counted by the data plane show up in the admin snapshot.
	st = adminGetStats(t, c, "/services/Admin")
	if st.Envelopes < 1 {
		t.Errorf("Envelopes = %d, want >= 1", st.Envelopes)
	}
}

func TestGatewayWithoutAdminServiceProxiesAdminTarget(t *testing.T) {
	// With AdminService off, POSTs to <prefix>Admin are not intercepted;
	// the admin-enabled backends answer instead (Role "server").
	f := newAdminFarm(t, 1, nil, nil)
	c := f.raw()
	defer c.Close()
	st := adminGetStats(t, c, "/services/Admin")
	if st.Role != "server" {
		t.Errorf("Role = %q, want server (proxied to backend)", st.Role)
	}
}

func TestMembershipPollUpdatesRouting(t *testing.T) {
	f := newAdminFarm(t, 2, nil, func(cfg *Config) {
		cfg.Policy = Weighted
		cfg.Membership = MembershipConfig{
			Enabled:      true,
			PollInterval: 20 * time.Millisecond,
			StaleAfter:   10 * time.Second, // no staleness in this test
		}
	})

	// The poller reaches both backends.
	waitFor(t, 5*time.Second, "first admin poll of every backend", func() bool {
		for _, bs := range f.gw.Stats().Backends {
			if bs.StatsAgeMs < 0 {
				return false
			}
		}
		return true
	})
	for _, bs := range f.gw.Stats().Backends {
		if bs.EffWeight < 0.5 || bs.EffWeight > 1.0 {
			t.Errorf("%s: idle EffWeight = %v, want ~1.0", bs.Name, bs.EffWeight)
		}
	}

	// Raising b0's advertised weight via its own Admin service propagates
	// into the gateway's effective weight within a few polls.
	b0 := &httpx.Client{Dial: f.links[0].Dial, KeepAlive: true, Timeout: 5 * time.Second}
	defer b0.Close()
	adminSetState(t, b0, "/services/Admin", 5, nil)
	waitFor(t, 5*time.Second, "b0 effective weight to follow advertised weight 5", func() bool {
		return f.gw.Stats().Backends[0].EffWeight >= 4.0
	})

	// An advertised drain is applied edge-triggered: b0 leaves assignment...
	adminSetState(t, b0, "/services/Admin", 0, boolPtr(true))
	waitFor(t, 5*time.Second, "b0 to be marked draining", func() bool {
		return f.gw.Stats().Backends[0].Draining
	})
	before := f.served[0].Load()
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
		if _, err := call.Wait(); err != nil {
			t.Fatalf("call %d during drain: %v", i, err)
		}
	}
	if got := f.served[0].Load(); got != before {
		t.Errorf("draining backend served %d new entries, want 0", got-before)
	}

	// ...and an advertised resume brings it back.
	adminSetState(t, b0, "/services/Admin", 0, boolPtr(false))
	waitFor(t, 5*time.Second, "b0 to resume", func() bool {
		return !f.gw.Stats().Backends[0].Draining
	})
}

func TestWeightedConvergenceSkewedFleet(t *testing.T) {
	// A 4-backend fleet with one backend at a much higher service time: the
	// membership poller must observe the slow backend's occupancy and shrink
	// its effective weight, so it receives well under its fair share.
	duration := 1200 * time.Millisecond
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	slow := 3
	f := newAdminFarm(t, 4, []time.Duration{0, 0, 0, 4 * time.Millisecond}, func(cfg *Config) {
		cfg.Policy = Weighted
		cfg.Membership = MembershipConfig{
			Enabled:      true,
			PollInterval: 15 * time.Millisecond,
			StaleAfter:   10 * time.Second,
		}
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := f.client(t, nil)
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				b := cli.NewBatch()
				var calls []*core.Call
				for i := 0; i < 8; i++ {
					calls = append(calls, b.Add("Echo", "echo", soapenc.F("v", int64(w*1_000_000+iter*100+i))))
				}
				if err := b.Send(); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				for _, call := range calls {
					if _, err := call.Wait(); err != nil {
						select {
						case errs <- err:
						default:
						}
					}
				}
			}
		}(w)
	}
	time.Sleep(duration)
	during := f.gw.Stats() // snapshot while the fleet is loaded
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("load error: %v", err)
	}

	var total int64
	counts := make([]int64, 4)
	for i, c := range f.served {
		counts[i] = c.Load()
		total += counts[i]
	}
	t.Logf("entries served per backend: %v (total %d); effective weights under load: %v %v %v %v",
		counts, total,
		during.Backends[0].EffWeight, during.Backends[1].EffWeight,
		during.Backends[2].EffWeight, during.Backends[3].EffWeight)
	if total == 0 {
		t.Fatal("no entries served")
	}
	// The slow backend's effective weight must have dropped below its
	// configured weight 1 while loaded.
	if ew := during.Backends[slow].EffWeight; ew >= 0.95 {
		t.Errorf("slow backend EffWeight = %v under load, want < 0.95", ew)
	}
	// And it must receive materially less than its fair 1/4 share.
	fair := total / 4
	if counts[slow] >= fair*3/4 {
		t.Errorf("slow backend served %d entries, want < 3/4 of fair share %d", counts[slow], fair)
	}
	for i := 0; i < 4; i++ {
		if i != slow && counts[i] <= counts[slow] {
			t.Errorf("fast backend %d served %d entries, slow served %d — want strictly more", i, counts[i], counts[slow])
		}
	}
}

func TestDrainReleasesPoolAndResumeRedials(t *testing.T) {
	f := newAdminFarm(t, 2, nil, nil) // default round-robin shards across both
	cli := f.client(t, nil)

	send := func(n int) {
		t.Helper()
		b := cli.NewBatch()
		var calls []*core.Call
		for i := 0; i < n; i++ {
			calls = append(calls, b.Add("Echo", "echo", soapenc.F("i", int64(i))))
		}
		if err := b.Send(); err != nil {
			t.Fatal(err)
		}
		for i, call := range calls {
			if _, err := call.Wait(); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
	}

	send(8)
	waitFor(t, 2*time.Second, "b0 to pool a keep-alive connection", func() bool {
		return f.gw.Stats().Backends[0].Idle > 0
	})

	if err := f.gw.DrainBackend("b0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "b0 drain to complete and release its pool", func() bool {
		st := f.gw.Stats()
		return st.Backends[0].Draining && st.Backends[0].InFlight == 0 &&
			st.Backends[0].Idle == 0 && st.Drained == 1
	})

	// While drained, new work goes exclusively to b1.
	ex0 := f.gw.Stats().Backends[0].Exchanges
	before := f.served[0].Load()
	send(8)
	st := f.gw.Stats()
	if st.Backends[0].Exchanges != ex0 {
		t.Errorf("drained backend exchanges grew %d -> %d", ex0, st.Backends[0].Exchanges)
	}
	if got := f.served[0].Load(); got != before {
		t.Errorf("drained backend served %d new entries, want 0", got-before)
	}

	// Resume re-admits it; connections re-dial on demand.
	if err := f.gw.ResumeBackend("b0"); err != nil {
		t.Fatal(err)
	}
	send(8)
	st = f.gw.Stats()
	if st.Backends[0].Draining {
		t.Error("b0 still marked draining after resume")
	}
	if st.Backends[0].Exchanges == ex0 {
		t.Error("resumed backend received no exchanges")
	}
	if f.served[0].Load() == before {
		t.Error("resumed backend served no entries")
	}

	// Unknown names are errors.
	if err := f.gw.DrainBackend("nope"); err == nil {
		t.Error("DrainBackend(nope) = nil error")
	}
	if err := f.gw.ResumeBackend("nope"); err == nil {
		t.Error("ResumeBackend(nope) = nil error")
	}
}

func TestDrainUnderLoadNoLossNoDup(t *testing.T) {
	// The headline chaos guarantee: cycling graceful drains through a loaded
	// fleet loses nothing and duplicates nothing. Every call is validated
	// against its own unique payload — a lost entry surfaces as a missing
	// response slot (transport error), a duplicated or misrouted one as a
	// wrong value. Drains are graceful, so unlike the crash-chaos suite the
	// bar is zero errors of any kind.
	cycles := 3
	if testing.Short() {
		cycles = 1
	}
	f := newAdminFarm(t, 3, nil, func(cfg *Config) { cfg.Policy = Weighted })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 256)
	var delivered atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := f.client(t, nil)
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				b := cli.NewBatch()
				calls := make([]*core.Call, 10)
				for i := range calls {
					calls[i] = b.Add("Echo", "echo", soapenc.F("v", int64(w*1_000_000+iter*1_000+i)))
				}
				if err := b.Send(); err != nil {
					select {
					case errCh <- fmt.Errorf("worker %d send: %w", w, err):
					default:
					}
					return
				}
				for i, call := range calls {
					want := int64(w*1_000_000 + iter*1_000 + i)
					results, err := call.Wait()
					if err != nil {
						select {
						case errCh <- fmt.Errorf("worker %d call %d: %w", w, i, err):
						default:
						}
						continue
					}
					if len(results) != 1 || !soapenc.Equal(results[0].Value, want) {
						select {
						case errCh <- fmt.Errorf("worker %d call %d: got %v, want %d", w, i, results, want):
						default:
						}
						continue
					}
					delivered.Add(1)
				}
			}
		}(w)
	}

	// Cycle a graceful drain through every backend while the load runs,
	// never taking more than one out at a time.
	names := []string{"b0", "b1", "b2"}
	for c := 0; c < cycles; c++ {
		for bi, name := range names {
			drainedBefore := f.gw.Stats().Drained
			if err := f.gw.DrainBackend(name); err != nil {
				t.Fatal(err)
			}
			// Wait for the drain to COMPLETE — the Drained counter ticks when
			// the waiter has seen in-flight hit zero and released the pool —
			// not merely for in-flight to read zero, which the waiter (on its
			// own ticker) may not have observed yet.
			waitFor(t, 5*time.Second, name+" drain to complete under load", func() bool {
				st := f.gw.Stats()
				bs := st.Backends[bi]
				return bs.Draining && bs.InFlight == 0 && st.Drained > drainedBefore
			})
			time.Sleep(20 * time.Millisecond) // hold it out while traffic flows
			if err := f.gw.ResumeBackend(name); err != nil {
				t.Fatal(err)
			}
			ex := f.gw.Stats().Backends[bi].Exchanges
			waitFor(t, 5*time.Second, name+" to take traffic after resume", func() bool {
				return f.gw.Stats().Backends[bi].Exchanges > ex
			})
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if delivered.Load() == 0 {
		t.Fatal("no calls delivered")
	}
	st := f.gw.Stats()
	if st.Drained < int64(cycles*len(names)) {
		t.Errorf("Drained = %d, want >= %d", st.Drained, cycles*len(names))
	}
	t.Logf("delivered %d calls across %d drain cycles (drained=%d, failovers=%d)",
		delivered.Load(), cycles*len(names), st.Drained, st.Failovers)
}

func TestMembershipAddRemoveUnderLoad(t *testing.T) {
	f := newAdminFarm(t, 2, nil, func(cfg *Config) { cfg.Policy = Weighted })

	// A third admin-enabled backend stood up out of band.
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	count := &atomic.Int64{}
	c := registry.NewContainer()
	echo := c.MustAddService("Echo", "urn:spi:Echo", "counting echo")
	echo.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		count.Add(1)
		return params, nil
	}, "identity")
	echo.MarkIdempotent("echo")
	srv, err := core.NewServer(core.ServerConfig{Container: c, AppWorkers: 8, AppQueue: 64, AdminService: true})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close(); link.Close() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli := f.client(t, nil)
		for iter := 0; ; iter++ {
			select {
			case <-stop:
				return
			default:
			}
			b := cli.NewBatch()
			calls := make([]*core.Call, 8)
			for i := range calls {
				calls[i] = b.Add("Echo", "echo", soapenc.F("v", int64(iter*100+i)))
			}
			if err := b.Send(); err != nil {
				select {
				case errCh <- err:
				default:
				}
				return
			}
			for i, call := range calls {
				results, err := call.Wait()
				if err != nil {
					select {
					case errCh <- fmt.Errorf("iter %d call %d: %w", iter, i, err):
					default:
					}
					continue
				}
				want := int64(iter*100 + i)
				if len(results) != 1 || !soapenc.Equal(results[0].Value, want) {
					select {
					case errCh <- fmt.Errorf("iter %d call %d: got %v, want %d", iter, i, results, want):
					default:
					}
				}
			}
		}
	}()

	// Join the new backend: it starts taking entries.
	if err := f.gw.AddBackend(BackendConfig{Name: "b2", Dial: link.Dial}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "added backend to appear in stats", func() bool {
		return len(f.gw.Stats().Backends) == 3
	})
	waitFor(t, 5*time.Second, "added backend to serve entries", func() bool {
		return count.Load() > 0
	})

	// Duplicate names and missing dialers are rejected without disturbing
	// the live set.
	if err := f.gw.AddBackend(BackendConfig{Name: "b1", Dial: link.Dial}); err == nil {
		t.Error("AddBackend with duplicate name = nil error")
	}
	if err := f.gw.AddBackend(BackendConfig{Name: "b9"}); err == nil {
		t.Error("AddBackend without dialer = nil error")
	}

	// Remove one of the originals mid-load: it vanishes from stats, the
	// load keeps flowing over the survivors.
	if err := f.gw.RemoveBackend("b0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "removed backend to leave stats", func() bool {
		st := f.gw.Stats()
		if len(st.Backends) != 2 {
			return false
		}
		for _, bs := range st.Backends {
			if bs.Name == "b0" {
				return false
			}
		}
		return true
	})
	if err := f.gw.RemoveBackend("b0"); err == nil {
		t.Error("second RemoveBackend(b0) = nil error")
	}
	served1 := f.served[1].Load()
	waitFor(t, 5*time.Second, "survivors to serve entries after removal", func() bool {
		return f.served[1].Load() > served1
	})

	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
