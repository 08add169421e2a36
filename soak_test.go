package spi_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spi "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// TestSoak hammers a full deployment with a randomized mixture of every
// client interface — single calls, futures, explicit batches, execution
// plans and the auto-batcher — concurrently, against all deployed services.
// It is a leak/deadlock/corruption hunt: every call must resolve, every
// result must be self-consistent, and the server must stay healthy
// throughout. Skipped in -short mode.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	env, err := bench.NewEnv(bench.EnvOptions{Travel: true})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	auto := spi.NewAutoBatcher(env.Client, 64)
	defer auto.Close()

	const (
		workers  = 12
		opsEach  = 60
		deadline = 60 * time.Second
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*opsEach)
	done := make(chan struct{})

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsEach; i++ {
				payload := fmt.Sprintf("w%d-i%d", w, i)
				switch rng.Intn(5) {
				case 0: // plain call
					res, err := env.Client.Call("Echo", "echo", spi.F("data", payload))
					if err != nil {
						errs <- fmt.Errorf("call: %w", err)
						continue
					}
					if !spi.ValueEqual(res[0].Value, payload) {
						errs <- fmt.Errorf("call result mismatch: %v", res)
					}
				case 1: // future
					call := env.Client.Go("WeatherService", "GetWeather", spi.F("CityName", "Beijing"))
					if _, err := call.Wait(); err != nil {
						errs <- fmt.Errorf("go: %w", err)
					}
				case 2: // explicit batch across services
					b := env.Client.NewBatch()
					e := b.Add("Echo", "echo", spi.F("data", payload))
					q := b.Add("Airline1", "QueryFlights",
						spi.F("from", "A"), spi.F("to", "B"), spi.F("date", "2006-09-26"))
					if err := b.Send(); err != nil {
						errs <- fmt.Errorf("batch: %w", err)
						continue
					}
					if res, err := e.Wait(); err != nil || !spi.ValueEqual(res[0].Value, payload) {
						errs <- fmt.Errorf("batch echo: %v %v", res, err)
					}
					if res, err := q.Wait(); err != nil || len(res) == 0 {
						errs <- fmt.Errorf("batch query: %v %v", res, err)
					}
				case 3: // execution plan with a dependency
					p := env.Client.NewPlan()
					first := p.Add("Echo", "echo", spi.F("data", payload))
					second := p.Add("Echo", "echo", spi.F("data", first.Ref("data")))
					if err := p.Send(); err != nil {
						errs <- fmt.Errorf("plan: %w", err)
						continue
					}
					if res, err := second.Wait(); err != nil || !spi.ValueEqual(res[0].Value, payload) {
						errs <- fmt.Errorf("plan chain: %v %v", res, err)
					}
				default: // auto-batched call
					res, err := auto.Call("Echo", "echoSize", spi.F("data", payload))
					if err != nil {
						errs <- fmt.Errorf("auto: %w", err)
						continue
					}
					if !spi.ValueEqual(res[0].Value, int64(len(payload))) {
						errs <- fmt.Errorf("auto size: %v", res)
					}
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatal("soak test deadlocked")
	}
	close(errs)
	n := 0
	for err := range errs {
		if n < 10 {
			t.Error(err)
		}
		n++
	}
	if n > 0 {
		t.Fatalf("%d errors total", n)
	}

	st := env.Server.Stats()
	if st.Requests < workers*opsEach {
		t.Errorf("server executed %d requests, expected >= %d", st.Requests, workers*opsEach)
	}
	if st.Faults != 0 {
		t.Errorf("server produced %d whole-message faults during clean soak", st.Faults)
	}
	// The travel suite remains usable afterwards.
	if _, err := services.RunTravelAgent(env.Client, services.DefaultItinerary(), true); err != nil {
		t.Errorf("travel agent after soak: %v", err)
	}
}

// churnBackend is one admin-enabled backend SPI server for the membership
// soak, standing on its own in-memory link.
type churnBackend struct {
	dial func() (net.Conn, error)
}

func newChurnBackend(t *testing.T) *churnBackend {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	c := registry.NewContainer()
	echo := c.MustAddService("Echo", "urn:spi:Echo", "soak echo")
	echo.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return params, nil
	}, "identity")
	echo.MarkIdempotent("echo")
	srv, err := core.NewServer(core.ServerConfig{
		Container: c, AppWorkers: 8, AppQueue: 64, AdminService: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close(); link.Close() })
	return &churnBackend{dial: link.Dial}
}

// TestSoakMembershipChurn keeps a packed workload flowing through a gateway
// whose backends are drained and resumed, one at a time, through the state
// the Admin SetState backend=… call sets. The invariants are the drain
// contract's — no spi:id is ever lost or duplicated (every call resolves
// exactly once, with its own payload), failures surface only as the
// documented fault codes, and the fleet is fully healthy afterwards.
// Skipped in -short mode.
func TestSoakMembershipChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}

	var backends []gateway.BackendConfig
	for i := 0; i < 3; i++ {
		backends = append(backends, gateway.BackendConfig{
			Name: fmt.Sprintf("b%d", i), Dial: newChurnBackend(t).dial,
		})
	}
	meta := registry.NewContainer()
	metaEcho := meta.MustAddService("Echo", "urn:spi:Echo", "metadata only")
	metaEcho.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return params, nil
	}, "identity")
	metaEcho.MarkIdempotent("echo")

	gw, err := gateway.New(gateway.Config{
		Backends: backends,
		Policy:   gateway.LeastLoaded,
		Registry: meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwLink := netsim.NewLink(netsim.Fast())
	glis, err := gwLink.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(glis)
	t.Cleanup(func() { gw.Close(); gwLink.Close() })

	waitStats := func(what string, cond func(gateway.Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond(gw.Stats()) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("churn soak: timed out waiting for %s", what)
	}
	backendStat := func(st gateway.Stats, name string) (gateway.BackendStats, bool) {
		for _, bs := range st.Backends {
			if bs.Name == name {
				return bs, true
			}
		}
		return gateway.BackendStats{}, false
	}

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 256)
	var delivered, faulted atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := core.NewClient(core.ClientConfig{Dial: gwLink.Dial, Timeout: 10 * time.Second})
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				b := cli.NewBatch()
				calls := make([]*core.Call, 8)
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
						var f *soap.Fault
						ok := errors.As(err, &f) &&
							(f.Code == core.FaultCodeBusy || f.Code == core.FaultCodeTimeout || f.Code == core.FaultCodeCancelled)
						if !ok {
							select {
							case errCh <- fmt.Errorf("worker %d call %d failed outside the contract: %w", w, i, err):
							default:
							}
						} else {
							faulted.Add(1)
						}
						continue
					}
					if len(results) != 1 || !spi.ValueEqual(results[0].Value, want) {
						select {
						case errCh <- fmt.Errorf("worker %d call %d answered with %v, want %d", w, i, results, want):
						default:
						}
						continue
					}
					delivered.Add(1)
				}
			}
		}(w)
	}

	// The churn script: every step runs while the workload flows, and at
	// most one member is out of rotation at a time.
	const rounds = 3
	for r := 0; r < rounds; r++ {
		// Drain an original, hold it out, resume it.
		victim := fmt.Sprintf("b%d", r%3)
		state, ok := gw.Backend(victim)
		if !ok {
			t.Fatalf("no backend %s", victim)
		}
		state.SetDraining(true)
		waitStats(victim+" drain to complete", func(st gateway.Stats) bool {
			bs, ok := backendStat(st, victim)
			return ok && bs.Draining && bs.InFlight == 0
		})
		time.Sleep(30 * time.Millisecond)
		state.SetDraining(false)
		waitStats(victim+" to take traffic after resume", func(st gateway.Stats) bool {
			bs, ok := backendStat(st, victim)
			return ok && !bs.Draining
		})
	}

	close(stop)
	wg.Wait()
	close(errCh)
	n := 0
	for err := range errCh {
		if n < 10 {
			t.Error(err)
		}
		n++
	}
	if n > 0 {
		t.Fatalf("%d contract violations total", n)
	}
	if delivered.Load() == 0 {
		t.Fatal("no calls delivered")
	}

	// After the churn: a clean batch must fully succeed and the in-flight
	// gauges must be back to zero.
	cli, err := core.NewClient(core.ClientConfig{Dial: gwLink.Dial, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	b := cli.NewBatch()
	calls := make([]*core.Call, 12)
	for i := range calls {
		calls[i] = b.Add("Echo", "echo", soapenc.F("v", int64(i)))
	}
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		results, err := call.Wait()
		if err != nil {
			t.Fatalf("clean call %d: %v", i, err)
		}
		if len(results) != 1 || !spi.ValueEqual(results[0].Value, int64(i)) {
			t.Fatalf("clean call %d results = %v", i, results)
		}
	}
	st := gw.Stats()
	var inflight int64
	for _, bs := range st.Backends {
		inflight += bs.InFlight
	}
	if inflight != 0 {
		t.Errorf("in-flight gauge leaked: %d", inflight)
	}
	t.Logf("drain churn soak: %d delivered, %d documented faults, drained=%d over %d rounds",
		delivered.Load(), faulted.Load(), st.Drained, rounds)
}

// TestSoakC10kPipelined holds ten thousand pipelined keep-alive
// connections open against one server and drives concurrent bursts over
// every one of them at once — the C10k regime the transport tier is built
// for. Every call carries a globally-unique payload and every packed batch
// tags its entries with spi:ids, so a lost, duplicated or cross-wired
// response anywhere in the pipelined read/write loops shows up as a value
// mismatch or a missing delivery. Skipped in -short mode.
func TestSoakC10kPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		conns        = 10_000
		callsPerConn = 3
		dialWave     = 128 // netsim's accept backlog; a real SYN queue bound
	)

	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	c := registry.NewContainer()
	echo := c.MustAddService("Echo", "urn:spi:Echo", "soak echo")
	echo.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return params, nil
	}, "identity")
	srv, err := core.NewServer(core.ServerConfig{
		Container: c, AppWorkers: 16, AppQueue: 64 * 1024,
		PipelineWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close(); link.Close() })

	// Establish the fleet in accept-backlog-sized waves; each client's
	// first call dials its one pipelined connection, which then stays open
	// for the rest of the soak.
	fleet := make([]*core.Client, conns)
	t.Cleanup(func() {
		for _, cl := range fleet {
			if cl != nil {
				cl.Close()
			}
		}
	})
	for lo := 0; lo < conns; lo += dialWave {
		hi := lo + dialWave
		if hi > conns {
			hi = conns
		}
		var wg sync.WaitGroup
		errCh := make(chan error, hi-lo)
		for i := lo; i < hi; i++ {
			cl, err := core.NewClient(core.ClientConfig{
				Dial: link.Dial, KeepAlive: true, Timeout: 120 * time.Second,
				PipelineWindow: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			fleet[i] = cl
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				want := int64(i)
				res, err := fleet[i].Call("Echo", "echo", soapenc.F("v", want))
				if err != nil {
					errCh <- fmt.Errorf("conn %d warm: %w", i, err)
					return
				}
				if len(res) != 1 || !spi.ValueEqual(res[0].Value, want) {
					errCh <- fmt.Errorf("conn %d warm answered %v, want %d", i, res, want)
				}
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	}

	// The burst: every connection fires its calls concurrently — tens of
	// thousands of exchanges in flight across ten thousand pipelined
	// connections. Every 10th connection sends a packed batch instead, so
	// the spi:id assembly path rides the same pipelined transport.
	var delivered atomic.Int64
	errCh := make(chan error, 256)
	var wg sync.WaitGroup
	for i := range fleet {
		if i%10 == 0 {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				b := fleet[i].NewBatch()
				calls := make([]*core.Call, 4)
				for j := range calls {
					calls[j] = b.Add("Echo", "echo", soapenc.F("v", int64(i*100+j)))
				}
				if err := b.Send(); err != nil {
					select {
					case errCh <- fmt.Errorf("conn %d batch: %w", i, err):
					default:
					}
					return
				}
				for j, call := range calls {
					want := int64(i*100 + j)
					res, err := call.Wait()
					if err != nil {
						select {
						case errCh <- fmt.Errorf("conn %d entry %d: %w", i, j, err):
						default:
						}
						continue
					}
					if len(res) != 1 || !spi.ValueEqual(res[0].Value, want) {
						select {
						case errCh <- fmt.Errorf("conn %d entry %d answered %v, want %d (spi:id cross-wired)", i, j, res, want):
						default:
						}
						continue
					}
					delivered.Add(1)
				}
			}(i)
			continue
		}
		for j := 0; j < callsPerConn; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				want := int64(i)*100 + int64(j)
				res, err := fleet[i].Call("Echo", "echo", soapenc.F("v", want))
				if err != nil {
					select {
					case errCh <- fmt.Errorf("conn %d call %d: %w", i, j, err):
					default:
					}
					return
				}
				if len(res) != 1 || !spi.ValueEqual(res[0].Value, want) {
					select {
					case errCh <- fmt.Errorf("conn %d call %d answered %v, want %d (response cross-wired)", i, j, res, want):
					default:
					}
					return
				}
				delivered.Add(1)
			}(i, j)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		t.Fatal("C10k soak deadlocked")
	}
	close(errCh)
	n := 0
	for err := range errCh {
		if n < 10 {
			t.Error(err)
		}
		n++
	}
	if n > 0 {
		t.Fatalf("%d violations total", n)
	}
	batches := (conns + 9) / 10
	want := int64(batches*4 + (conns-batches)*callsPerConn)
	if got := delivered.Load(); got != want {
		t.Fatalf("delivered %d results, want %d: responses lost or duplicated", got, want)
	}
	if st := srv.Stats(); st.Faults != 0 {
		t.Errorf("server produced %d faults during clean soak", st.Faults)
	}
	t.Logf("C10k soak: %d connections, %d results delivered", conns, delivered.Load())
}
