package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/soapenc"
)

// GatewayEnv is a scale-out deployment: K backend SPI servers behind one
// scatter–gather gateway, each server on its own simulated link, plus a
// client that talks only to the gateway.
type GatewayEnv struct {
	Client  *core.Client
	Gateway *gateway.Gateway

	links   []*netsim.Link
	servers []*core.Server
	gwLink  *netsim.Link
}

// GatewayOptions configures a scale-out environment.
type GatewayOptions struct {
	// Backends is the farm width (default 1).
	Backends int
	// Network is the per-hop link configuration (default LAN100 — both
	// the client→gateway and the gateway→backend hops pay wire costs).
	Network netsim.Config
	// AppWorkers narrows each backend's application stage so the farm, not
	// the protocol stage, is the bottleneck (default 4).
	AppWorkers int
	// WorkTime is per-operation backend work (zero: none): with real work
	// per entry, adding backends shows in the batch latency.
	WorkTime time.Duration
	// WorkTimes overrides WorkTime per backend (index i for backend i),
	// skewing the fleet — the regime the control-plane experiments probe.
	WorkTimes []time.Duration
	// Policy selects the sharding strategy (default round-robin).
	Policy gateway.Policy
	// MaxActivePerBackend bounds concurrent gateway→backend exchanges
	// (zero: unbounded), the protective cap any production front tier
	// places on its backends.
	MaxActivePerBackend int
	// Coalesce configures cross-client coalescing of single calls at the
	// gateway (zero: off).
	Coalesce gateway.CoalesceConfig
}

// NewGatewayEnv builds and starts the farm.
func NewGatewayEnv(opt GatewayOptions) (*GatewayEnv, error) {
	if opt.Backends <= 0 {
		opt.Backends = 1
	}
	if opt.Network.IsZero() {
		opt.Network = netsim.LAN100()
	}
	if opt.AppWorkers <= 0 {
		opt.AppWorkers = 4
	}
	env := &GatewayEnv{}
	fail := func(err error) (*GatewayEnv, error) {
		env.Close()
		return nil, err
	}

	registryContainer := registry.NewContainer()
	if err := services.DeployEcho(registryContainer, services.Options{}); err != nil {
		return fail(err)
	}
	if svc, ok := registryContainer.Service("Echo"); ok {
		svc.MarkIdempotent("echo", "echoSize")
	}

	var backends []gateway.BackendConfig
	for i := 0; i < opt.Backends; i++ {
		work := opt.WorkTime
		if i < len(opt.WorkTimes) {
			work = opt.WorkTimes[i]
		}
		container := registry.NewContainer()
		if err := services.DeployEcho(container, services.Options{WorkTime: work}); err != nil {
			return fail(err)
		}
		link := netsim.NewLink(opt.Network)
		env.links = append(env.links, link)
		lis, err := link.Listen()
		if err != nil {
			return fail(err)
		}
		srv, err := core.NewServer(core.ServerConfig{
			Container: container, AppWorkers: opt.AppWorkers,
		})
		if err != nil {
			return fail(err)
		}
		env.servers = append(env.servers, srv)
		go srv.Serve(lis)
		backends = append(backends, gateway.BackendConfig{
			Name: fmt.Sprintf("b%d", i), Dial: link.Dial,
		})
	}

	gw, err := gateway.New(gateway.Config{
		Backends:            backends,
		Policy:              opt.Policy,
		Registry:            registryContainer,
		MaxActivePerBackend: opt.MaxActivePerBackend,
		Coalesce:            opt.Coalesce,
	})
	if err != nil {
		return fail(err)
	}
	env.Gateway = gw
	env.gwLink = netsim.NewLink(opt.Network)
	glis, err := env.gwLink.Listen()
	if err != nil {
		return fail(err)
	}
	go gw.Serve(glis)

	env.Client, err = core.NewClient(core.ClientConfig{
		Dial: env.gwLink.Dial, KeepAlive: true, Timeout: 120 * time.Second,
	})
	if err != nil {
		return fail(err)
	}
	return env, nil
}

// NewClient dials a fresh client connection to the gateway — one per
// simulated end user in the many-small-clients experiments, so each has
// its own TCP connection like independent processes would.
func (e *GatewayEnv) NewClient() (*core.Client, error) {
	return core.NewClient(core.ClientConfig{
		Dial: e.gwLink.Dial, KeepAlive: true, Timeout: 120 * time.Second,
	})
}

// Close tears the farm down.
func (e *GatewayEnv) Close() {
	if e.Client != nil {
		e.Client.Close()
	}
	if e.Gateway != nil {
		e.Gateway.Close()
	}
	if e.gwLink != nil {
		e.gwLink.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
	for _, l := range e.links {
		l.Close()
	}
}

// RunCoalesce measures the many-small-clients regime the coalescer is
// built for: a fleet of independent clients, each issuing plain serial
// single calls (no pack interface anywhere on the client side), against
// the same farm with cross-client coalescing off and on. The gateway
// caps concurrent exchanges per backend — the protective bound any real
// front tier applies — so without coalescing the concurrent singles
// queue for exchange slots in waves, each paying its own connection,
// HTTP framing and envelope overhead. With coalescing the same calls
// merge into a few packed batches that fit comfortably under the cap,
// amortizing the per-message costs — so the burst completes sooner even
// though every individual call briefly parks while its batch settles.
func RunCoalesce(reps int) (*AblationResult, error) {
	const clients = 64
	const callsPerClient = 4
	const work = 500 * time.Microsecond
	const workers = 16
	const maxActive = 8
	payload := strings.Repeat("a", 64)

	var c comparison
	defer c.close()
	modes := []bool{false, true} // coalescing off, on
	var envs []*GatewayEnv
	for _, coalesce := range modes {
		env, err := c.gateway(GatewayOptions{
			Backends: 2, AppWorkers: workers, WorkTime: work,
			MaxActivePerBackend: maxActive,
			Coalesce: gateway.CoalesceConfig{
				Enabled:  coalesce,
				MaxBatch: 16,
			},
		})
		if err != nil {
			return nil, err
		}
		envs = append(envs, env)
		// Each simulated end user gets its own access link to the gateway —
		// independent client machines don't share a NIC — so the contended
		// resource is the gateway→backend hop, the one coalescing thins out.
		fleet := make([]*core.Client, clients)
		for i := range fleet {
			link := netsim.NewLink(netsim.LAN100())
			c.onClose(func() { link.Close() })
			lis, err := link.Listen()
			if err != nil {
				return nil, err
			}
			go env.Gateway.Serve(lis)
			fleet[i], err = core.NewClient(core.ClientConfig{
				Dial: link.Dial, KeepAlive: true, Timeout: 120 * time.Second,
			})
			if err != nil {
				return nil, err
			}
			c.onClose(fleet[i].Close)
		}
		name := "coalescing off (every single proxied whole)"
		if coalesce {
			name = "coalescing on (max 16 per batch)"
		}
		c.add(name, "", func() error {
			var wg sync.WaitGroup
			errs := make([]error, clients)
			for i := range fleet {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < callsPerClient; j++ {
						if _, err := fleet[i].Call("Echo", "echo", soapenc.F("data", payload)); err != nil {
							errs[i] = err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			return errors.Join(errs...)
		})
	}
	r, err := c.table(fmt.Sprintf(
		"Gateway coalescing: %d single-call clients × %d serial calls, %v ops, 2 backends, %d exchange slots per backend",
		clients, callsPerClient, work, maxActive), 1, reps)
	if err != nil {
		return nil, err
	}
	for i, env := range envs {
		st := env.Gateway.Stats()
		note := fmt.Sprintf("%d backend exchanges", st.Proxied)
		if modes[i] {
			mean := 0.0
			if st.CoalesceBatches > 0 {
				mean = float64(st.Coalesced) / float64(st.CoalesceBatches)
			}
			note = fmt.Sprintf("%d calls pooled into %d batches (mean size %.1f)",
				st.Coalesced, st.CoalesceBatches, mean)
		}
		r.Rows[i].Note = note + fmt.Sprintf("; %.0f calls/s", clients*callsPerClient/(r.Rows[i].Millis/1000))
	}
	return r, nil
}

// RunGatewayScaling measures one packed batch against a saturated farm as
// it widens from one backend to four: each entry carries real application
// work and each backend has a narrow app stage, so the batch latency is
// bounded by farm compute and must drop as backends are added. The direct
// row (no gateway at all) isolates the gateway's own overhead at width 1.
func RunGatewayScaling(reps int) (*AblationResult, error) {
	const m = 32
	const work = 2 * time.Millisecond
	const workers = 4
	payload := strings.Repeat("a", 128)

	var c comparison
	defer c.close()
	if _, err := c.echo("direct (no gateway)", "single server, client dials it straight",
		EnvOptions{AppWorkers: workers, KeepAlive: true, WorkTime: work}, OurApproach, m, payload); err != nil {
		return nil, err
	}
	var envs []*GatewayEnv
	for _, k := range []int{1, 2, 4} {
		env, err := c.gateway(GatewayOptions{Backends: k, AppWorkers: workers, WorkTime: work})
		if err != nil {
			return nil, err
		}
		envs = append(envs, env)
		c.add(fmt.Sprintf("gateway, %d backend(s)", k), "", func() error { return packedRun(env.Client, m, payload) })
	}
	r, err := c.table(fmt.Sprintf(
		"Scale-out gateway: packed batch of %d × %v ops, %d app workers per backend", m, work, workers), 2, reps)
	if err != nil {
		return nil, err
	}
	for i, env := range envs {
		st := env.Gateway.Stats()
		r.Rows[i+1].Note = fmt.Sprintf("%d sub-batches scattered over %d packed batches", st.Scattered, st.Packed)
	}
	return r, nil
}
