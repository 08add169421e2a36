package gateway

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
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
// self-hosted Admin service and its per-backend SetState, LeastLoaded
// converging on the load that replies state, graceful drain under live load
// (zero lost or duplicated entries), and dynamic add/remove.

// adminFarm is a farm whose backends count every echo they serve, and run
// an optional per-backend hook inside each echo so fleets can be skewed.
type adminFarm struct {
	*farm
	served []*atomic.Int64 // echo invocations per backend, by config order
}

// newAdminFarm is a counting farm whose backends self-host the Admin service.
func newAdminFarm(tb testing.TB, k int, work []func(), mutate func(*Config)) *adminFarm {
	return newCountingFarm(tb, k, true, work, mutate)
}

func newCountingFarm(tb testing.TB, k int, adminService bool, work []func(), mutate func(*Config)) *adminFarm {
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
		var hook func()
		if work != nil {
			hook = work[i]
		}
		c := registry.NewContainer()
		echo := c.MustAddService("Echo", "urn:spi:Echo", "counting echo")
		echo.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			count.Add(1)
			if hook != nil {
				hook()
			}
			return params, nil
		}, "identity with per-backend service time")
		echo.MarkIdempotent("echo")
		srv, err := core.NewServer(core.ServerConfig{
			Container: c, AppWorkers: 8, AppQueue: 64, AdminService: adminService,
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

// adminGetStats scrapes the node behind cli as the exporter does: GetStats
// through the client, then admin.StatsFromFields.
func adminGetStats(tb testing.TB, cli *core.Client) admin.Stats {
	tb.Helper()
	results, err := cli.Call(admin.ServiceName, admin.OpGetStats)
	if err != nil {
		tb.Fatalf("GetStats: %v", err)
	}
	st, err := admin.StatsFromFields(results)
	if err != nil {
		tb.Fatalf("GetStats: %v", err)
	}
	return st
}

// setState calls SetState through cli. An empty backend leaves out the
// backend parameter (the node's own state), weight <= 0 the weight parameter
// and drain nil the drain parameter.
func setState(cli *core.Client, backend string, weight int64, drain *bool) error {
	var params []soapenc.Field
	if backend != "" {
		params = append(params, soapenc.F("backend", backend))
	}
	if weight > 0 {
		params = append(params, soapenc.F("weight", weight))
	}
	if drain != nil {
		params = append(params, soapenc.F("drain", *drain))
	}
	_, err := cli.Call(admin.ServiceName, admin.OpSetState, params...)
	return err
}

// adminSetState runs one SetState exchange and fails the test on an error.
func adminSetState(tb testing.TB, cli *core.Client, backend string, weight int64, drain *bool) {
	tb.Helper()
	if err := setState(cli, backend, weight, drain); err != nil {
		tb.Fatalf("SetState: %v", err)
	}
}

// teeConn keeps a copy of every byte read from its connection.
type teeConn struct {
	net.Conn
	mu   *sync.Mutex
	read *bytes.Buffer
}

func (c teeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.read.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

// recordingClient is a client of the farm's gateway speaking v, and a func
// that returns the first reply it read.
func recordingClient(tb testing.TB, f *farm, v soap.Version) (*core.Client, func() *httpx.Response) {
	tb.Helper()
	var mu sync.Mutex
	var read bytes.Buffer
	cli := f.client(tb, func(cfg *core.ClientConfig) {
		cfg.SOAP12 = v == soap.V12
		cfg.Dial = func() (net.Conn, error) {
			conn, err := f.gwLink.Dial()
			return teeConn{conn, &mu, &read}, err
		}
	})
	return cli, func() *httpx.Response {
		mu.Lock()
		defer mu.Unlock()
		resp, err := httpx.ReadResponse(bufio.NewReader(bytes.NewReader(read.Bytes())), 0)
		if err != nil {
			tb.Fatal(err)
		}
		return resp
	}
}

func boolPtr(b bool) *bool { return &b }

// setDraining drains or resumes the named backend through the state the
// gateway's Admin SetState backend=… call sets.
func setDraining(tb testing.TB, g *Gateway, name string, d bool) {
	tb.Helper()
	b, ok := g.Backend(name)
	if !ok {
		tb.Fatalf("no backend named %q", name)
	}
	b.SetDraining(d)
}

func TestGatewayAdminService(t *testing.T) {
	f := newFarm(t, 2, func(cfg *Config) { cfg.AdminService = true })
	c := f.client(t, nil)

	st := adminGetStats(t, c)
	if st.Role != "gateway" {
		t.Errorf("Role = %q, want gateway", st.Role)
	}
	if st.Weight != 1 || st.Draining {
		t.Errorf("Weight/Draining = %d/%v, want 1/false", st.Weight, st.Draining)
	}
	adminSetState(t, c, "", 2, nil)
	if st = adminGetStats(t, c); st.Weight != 2 || st.Draining {
		t.Errorf("after SetState weight=2: Weight/Draining = %d/%v, want 2/false", st.Weight, st.Draining)
	}

	// SetState changes the advertised weight and drain flag.
	adminSetState(t, c, "", 5, boolPtr(true))
	st = adminGetStats(t, c)
	if st.Weight != 5 || !st.Draining {
		t.Errorf("after SetState: Weight/Draining = %d/%v, want 5/true", st.Weight, st.Draining)
	}

	// The Admin intercept must not shadow ordinary services: a regular call
	// still proxies through to a backend.
	results, err := c.Call("Echo", "echo", soapenc.F("msg", "still works"))
	if err != nil {
		t.Fatalf("Echo through admin-enabled gateway: %v", err)
	}
	if len(results) != 1 || !soapenc.Equal(results[0].Value, "still works") {
		t.Errorf("results = %v", results)
	}

	// Requests counted by the data plane show up in the admin snapshot.
	st = adminGetStats(t, c)
	if st.Envelopes < 1 {
		t.Errorf("Envelopes = %d, want >= 1", st.Envelopes)
	}
}

func TestGatewayWithoutAdminServiceProxiesAdminTarget(t *testing.T) {
	// With AdminService off, POSTs to <prefix>Admin are not intercepted;
	// the admin-enabled backends answer instead (Role "server").
	f := newAdminFarm(t, 1, nil, nil)
	st := adminGetStats(t, f.client(t, nil))
	if st.Role != "server" {
		t.Errorf("Role = %q, want server (proxied to backend)", st.Role)
	}
}

// TestGatewayAdminSetStateBackend: the gateway's Admin SetState with a
// backend parameter sets that backend's weight and drains and resumes it,
// with no poll in between; an unknown backend is the pinned Client fault.
func TestGatewayAdminSetStateBackend(t *testing.T) {
	f := newCountingFarm(t, 2, false, nil, func(cfg *Config) {
		cfg.Policy = LeastLoaded
		cfg.AdminService = true
	})
	c := f.client(t, nil)

	adminSetState(t, c, "b0", 5, nil)
	if bs := f.gw.Stats().Backends[0]; bs.Weight != 5 || bs.EffWeight != 5 {
		t.Errorf("b0 Weight/EffWeight = %d/%v after SetState, want 5/5", bs.Weight, bs.EffWeight)
	}
	if st := adminGetStats(t, c); st.Weight != 1 || st.Draining {
		t.Errorf("gateway's own Weight/Draining = %d/%v, want 1/false: the backend parameter must leave them", st.Weight, st.Draining)
	}
	// A weight past maxWeight would overflow the assignment loop's
	// cross-multiplication: it faults and leaves the weight alone.
	if err := setState(c, "b0", maxWeight+1, nil); !strings.Contains(fmt.Sprint(err), "exceeds") {
		t.Errorf("SetState weight %d answered %v, want a fault", maxWeight+1, err)
	}
	if w := f.gw.Stats().Backends[0].Weight; w != 5 {
		t.Errorf("b0 Weight = %d after the rejected SetState, want 5", w)
	}

	// A drain takes b0 out of assignment at once...
	adminSetState(t, c, "b0", 0, boolPtr(true))
	if !f.gw.Stats().Backends[0].Draining {
		t.Fatal("b0 not draining after SetState drain=true")
	}
	send := func() {
		t.Helper()
		b := f.client(t, nil).NewBatch()
		var calls []*core.Call
		for i := 0; i < 12; i++ {
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
	before := f.served[0].Load()
	send()
	if got := f.served[0].Load(); got != before {
		t.Errorf("draining backend served %d new entries, want 0", got-before)
	}

	// ...and a resume brings it back.
	adminSetState(t, c, "b0", 0, boolPtr(false))
	if f.gw.Stats().Backends[0].Draining {
		t.Fatal("b0 still draining after SetState drain=false")
	}
	send()
	if f.served[0].Load() == before {
		t.Error("resumed backend served no entries")
	}

	// The pinned documents: a client's SetState naming a backend, and the
	// fault for one the gateway does not have.
	for _, v := range []struct {
		tag string
		ver soap.Version
	}{{"11", soap.V11}, {"12", soap.V12}} {
		cli := f.client(t, func(cfg *core.ClientConfig) { cfg.SOAP12 = v.ver == soap.V12 })
		adminSetState(t, cli, "b1", 4, boolPtr(true))
		if bs := f.gw.Stats().Backends[1]; bs.Weight != 4 || !bs.Draining {
			t.Errorf("SOAP %s: b1 Weight/Draining = %d/%v, want 4/true", v.tag, bs.Weight, bs.Draining)
		}
		setDraining(t, f.gw, "b1", false)

		cli, reply := recordingClient(t, f.farm, v.ver)
		if err := setState(cli, "b9", 4, nil); err == nil {
			t.Errorf("SOAP %s: SetState backend=b9 answered no fault", v.tag)
		}
		want, err := os.ReadFile(filepath.Join("..", "core", "testdata", "admin_fault_backend"+v.tag+".xml"))
		if err != nil {
			t.Fatal(err)
		}
		if resp := reply(); resp.StatusCode != 500 || !bytes.Equal(resp.Body, want) {
			t.Errorf("SOAP %s: unknown backend answered %d\n got: %s\nwant: %s", v.tag, resp.StatusCode, resp.Body, want)
		}
	}
}

// TestLoadConvergenceOnReplies: a backend that turns slow is derated by the
// execution time its own sub-batch replies state, with no Admin service and
// no poller anywhere. Four backends run a counting echo; mid-run a channel
// gate switches backend 3 from no work to 4 ms per operation. Within 32
// sub-batch replies after the switch its effective weight is under 0.5, and
// from then on it serves under 3/4 of its fair share of entries.
func TestLoadConvergenceOnReplies(t *testing.T) {
	const slow = 3
	rest := int64(8000)
	if testing.Short() {
		rest = 2000
	}
	gate := make(chan struct{})
	work := make([]func(), 4)
	work[slow] = func() {
		select {
		case <-gate:
			time.Sleep(4 * time.Millisecond)
		default:
		}
	}
	f := newCountingFarm(t, 4, false, work, func(cfg *Config) { cfg.Policy = LeastLoaded })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 12; w++ {
		cli := f.client(t, nil)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
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
	defer func() {
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("load error: %v", err)
		}
	}()
	counts := func() (c [4]int64, total int64) {
		for i, n := range f.served {
			c[i] = n.Load()
			total += c[i]
		}
		return c, total
	}

	// Switch once every backend has served (and so stated) some work.
	waitFor(t, 10*time.Second, "every backend to serve entries", func() bool {
		c, _ := counts()
		return min(c[0], c[1], c[2], c[3]) >= 64
	})
	at := f.gw.Stats().Backends[slow]
	close(gate)

	// A reply after the switch answers a sub-batch in flight at the switch or
	// one sent since: their sum bounds the replies it took.
	var derated BackendStats
	waitFor(t, 10*time.Second, "the slow backend's effective weight to drop below 0.5", func() bool {
		derated = f.gw.Stats().Backends[slow]
		return derated.EffWeight < 0.5
	})
	if replies := at.InFlight + derated.Exchanges - at.Exchanges; replies > 32 {
		t.Errorf("EffWeight %v < 0.5 only after up to %d sub-batch replies, want <= 32", derated.EffWeight, replies)
	}

	base, baseTotal := counts()
	waitFor(t, 30*time.Second, "the rest of the run", func() bool {
		_, total := counts()
		return total-baseTotal >= rest
	})
	end, endTotal := counts()
	served := end[slow] - base[slow]
	fair := (endTotal - baseTotal) / 4
	t.Logf("after the switch: slow backend derated to %v, then served %d of %d entries (fair share %d)",
		derated.EffWeight, served, endTotal-baseTotal, fair)
	if served >= fair*3/4 {
		t.Errorf("slow backend served %d entries, want < 3/4 of its fair share %d", served, fair)
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
	if f.gw.Stats().Backends[0].Idle == 0 {
		t.Fatal("b0 pooled no keep-alive connection")
	}

	// Nothing is in flight, so the drain completes inside SetDraining.
	setDraining(t, f.gw, "b0", true)
	if st := f.gw.Stats(); !st.Backends[0].Draining || st.Backends[0].InFlight != 0 ||
		st.Backends[0].Idle != 0 || st.Drained != 1 {
		t.Fatalf("after the drain: Draining %v, InFlight %d, Idle %d, Drained %d; want true, 0, 0, 1",
			st.Backends[0].Draining, st.Backends[0].InFlight, st.Backends[0].Idle, st.Drained)
	}

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
	setDraining(t, f.gw, "b0", false)
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
	if _, ok := f.gw.Backend("nope"); ok {
		t.Error("Backend(nope) found a backend")
	}
}

// TestDrainCompletesWithLastExchange drains the one backend of a farm while
// one exchange is held inside it, through each of the two forwards that
// count an exchange in flight: a relayed single call and a sub-batch. The
// drain completes when that exchange returns, before the client has its
// answer: a resume before then releases nothing and counts nothing, and a
// re-drain counts once.
func TestDrainCompletesWithLastExchange(t *testing.T) {
	paths := []struct {
		name string
		send func(cli *core.Client) error
	}{
		{"relay", func(cli *core.Client) error {
			_, err := cli.Call("Echo", "echo", soapenc.F("m", "x"))
			return err
		}},
		{"sub-batch", func(cli *core.Client) error {
			b := cli.NewBatch()
			calls := []*core.Call{b.Add("Echo", "echo", soapenc.F("m", "a")), b.Add("Echo", "echo", soapenc.F("m", "b"))}
			if err := b.Send(); err != nil {
				return err
			}
			for _, c := range calls {
				if _, err := c.Wait(); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	rows := []struct {
		name    string
		states  []bool // SetDraining calls made while the exchange is held
		drained int64
		idle    int
	}{
		{"drain", []bool{true}, 1, 0},
		{"resume", []bool{true, false}, 0, 1},
		{"re-drain", []bool{true, false, true}, 1, 0},
	}
	for _, p := range paths {
		for _, r := range rows {
			t.Run(p.name+"/"+r.name, func(t *testing.T) {
				started, gate := make(chan struct{}, 2), make(chan struct{})
				f := newAdminFarm(t, 1, []func(){func() {
					started <- struct{}{}
					<-gate
				}}, nil)
				cli := f.client(t, nil)
				done := make(chan error, 1)
				go func() { done <- p.send(cli) }()
				select {
				case <-started:
				case <-time.After(5 * time.Second):
					t.Fatal("the held exchange never reached the backend")
				}
				for _, d := range r.states {
					setDraining(t, f.gw, "b0", d)
				}
				if st := f.gw.Stats(); st.Drained != 0 || st.Backends[0].InFlight != 1 {
					t.Fatalf("with the exchange held: Drained %d, InFlight %d; want 0, 1", st.Drained, st.Backends[0].InFlight)
				}
				close(gate)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if st := f.gw.Stats(); st.Drained != r.drained || st.Backends[0].Idle != r.idle {
					t.Errorf("once the call returned: Drained %d, Idle %d; want %d, %d",
						st.Drained, st.Backends[0].Idle, r.drained, r.idle)
				}
			})
		}
	}

	// A shard assigned to the backend but not yet sent is in flight too: a
	// drain set in between stays pending until the shard's exchange returns,
	// and then releases the connection that exchange pooled.
	t.Run("assigned/drain", func(t *testing.T) {
		f := newAdminFarm(t, 1, nil, nil)
		doc := packedDoc(soap.V11, []string{`<m:echo xmlns:m="urn:spi:Echo"><p0>a</p0></m:echo>`})
		sr, pf := core.ParseScatterRequest(doc, "Echo")
		if pf != nil {
			t.Fatal(pf)
		}
		shards := f.gw.assign(sr.Entries)
		setDraining(t, f.gw, "b0", true)
		if st := f.gw.Stats(); st.Drained != 0 || st.Backends[0].Entries != 1 {
			t.Fatalf("with the shard assigned: Drained %d, Entries %d; want 0, 1", st.Drained, st.Backends[0].Entries)
		}
		col := sr.NewCollector()
		for _, sh := range f.gw.buildSubBatches(sr, shards, col) {
			f.gw.sendShard(context.Background(), sh, sr, col)
		}
		if st := f.gw.Stats(); st.Drained != 1 || st.Backends[0].Idle != 0 || f.served[0].Load() != 1 {
			t.Errorf("once the shard returned: Drained %d, Idle %d, served %d; want 1, 0, 1",
				st.Drained, st.Backends[0].Idle, f.served[0].Load())
		}
	})

	t.Run("idle/re-drain", func(t *testing.T) {
		f := newAdminFarm(t, 1, nil, nil)
		if _, err := f.client(t, nil).Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
			t.Fatal(err)
		}
		for want := int64(1); want <= 2; want++ {
			setDraining(t, f.gw, "b0", true)
			if st := f.gw.Stats(); st.Drained != want || st.Backends[0].Idle != 0 {
				t.Errorf("drain %d: Drained %d, Idle %d; want %d, 0", want, st.Drained, st.Backends[0].Idle, want)
			}
			setDraining(t, f.gw, "b0", false)
		}
	})
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
	f := newAdminFarm(t, 3, nil, func(cfg *Config) { cfg.Policy = LeastLoaded })

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
			setDraining(t, f.gw, name, true)
			// Wait for the drain to COMPLETE — the Drained counter ticks when
			// the backend's last exchange in flight returns and releases the
			// pool — while the load keeps the backend's shards in flight.
			waitFor(t, 5*time.Second, name+" drain to complete under load", func() bool {
				st := f.gw.Stats()
				bs := st.Backends[bi]
				return bs.Draining && bs.InFlight == 0 && st.Drained > drainedBefore
			})
			time.Sleep(20 * time.Millisecond) // hold it out while traffic flows
			setDraining(t, f.gw, name, false)
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
