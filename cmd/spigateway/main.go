// Command spigateway fronts a pool of SPI servers with the scatter–gather
// gateway: packed Parallel_Method envelopes are sharded across the
// backends, everything else is proxied whole, and the reply is
// byte-identical to a single direct server's.
//
// Usage:
//
//	spigateway -addr :8090 -backends host1:8080,host2:8080
//	spigateway -addr :8090 -backends host1:8080,host2:8080 -policy least-loaded
//	spigateway -addr :8090 -backends host1:8080=4,host2:8080=1 -policy least-loaded
//	spigateway -addr :8090 -backends host1:8080 -reprobe 2s -stats -admin
//	spigateway -addr :8090 -backends host1:8080,host2:8080 \
//	    -coalesce -max-batch 64 -max-bytes 262144
//
// With -coalesce, concurrent single-call envelopes targeting the same
// operation are merged into synthetic packed batches toward the backends
// (each sent once a yield of the processor brings it no further call, or
// sooner when -max-batch entries or -max-bytes of bodies accumulate), then
// split back so every client's reply is byte-identical to the uncoalesced
// path.
//
// A backend may carry a routing weight after "=" (default 1), used by the
// least-loaded policy, which also scales each weight by the backend's speed
// relative to the fleet's fastest, as stated on its own sub-batch replies
// (see docs/CONTROL_PLANE.md). "-policy weighted" is still accepted and means
// least-loaded. With -admin the gateway self-hosts its own Admin service at
// /services/Admin, so exporters can scrape the gateway like any server and
// operators can set one backend's weight or drain it (SetState backend=...).
//
// Endpoints mirror the servers':
//
//	POST /services/<Service>    one-request envelopes (proxied)
//	POST /services              packed envelopes (scattered)
//	GET  /services, ?wsdl       proxied to one backend
//	GET  /spi/stats             gateway counters (with -stats)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/heapfloor"
	"repro/internal/gateway"
	"repro/internal/registry"
	"repro/internal/services"
)

func main() {
	heapfloor.Set()
	addr := flag.String("addr", ":8090", "listen address")
	backendList := flag.String("backends", "", "comma-separated backend addresses (required)")
	policy := flag.String("policy", "round-robin", "sharding policy: round-robin, least-loaded, op-affinity")
	threshold := flag.Int("eject-after", 3, "consecutive failures that eject a backend")
	reprobe := flag.Duration("reprobe", 500*time.Millisecond, "how long an ejected backend sits out before it is probed")
	exchangeTimeout := flag.Duration("exchange-timeout", 30*time.Second, "per-sub-batch exchange bound")
	maxIdle := flag.Int("max-idle", 16, "keep-alive connections pooled per backend")
	maxActive := flag.Int("max-active", 0, "concurrent exchanges per backend (0: unbounded)")
	stats := flag.Bool("stats", false, "serve GET /spi/stats")
	coalesce := flag.Bool("coalesce", false, "merge concurrent single calls into packed batches")
	maxBatch := flag.Int("max-batch", 64, "coalescer flushes a batch at this many members (with -coalesce)")
	maxBytes := flag.Int("max-bytes", 256<<10, "coalescer flushes a batch at this many request-body bytes (with -coalesce)")
	adminFlag := flag.Bool("admin", false, "self-host the gateway's Admin service at /services/Admin")
	passthrough := flag.Bool("passthrough", true, "splice single-call envelopes through a backend zero-copy (disabled automatically when -coalesce is set)")
	pipelineBackends := flag.Int("pipeline-backends", 0, "pipeline up to N exchanges per backend connection (0 or 1: one exchange per connection)")
	flag.Parse()

	if *backendList == "" {
		fatal(fmt.Errorf("-backends is required (comma-separated host:port list)"))
	}

	// The gateway needs the service catalogue only for idempotency
	// metadata: which operations may fail over after possibly executing.
	container := registry.NewContainer()
	if err := services.DeployEcho(container, services.Options{}); err != nil {
		fatal(err)
	}
	if err := services.DeployWeather(container, services.Options{}); err != nil {
		fatal(err)
	}
	if _, err := services.DeployTravel(container, services.Options{}); err != nil {
		fatal(err)
	}
	if svc, ok := container.Service("Echo"); ok {
		svc.MarkIdempotent("echo", "echoSize")
	}
	if svc, ok := container.Service("WeatherService"); ok {
		svc.MarkIdempotent("GetWeather")
	}

	var backends []gateway.BackendConfig
	for _, hostport := range strings.Split(*backendList, ",") {
		hostport = strings.TrimSpace(hostport)
		if hostport == "" {
			continue
		}
		weight := 1
		if i := strings.LastIndexByte(hostport, '='); i >= 0 {
			w, err := strconv.Atoi(hostport[i+1:])
			if err != nil || w < 1 {
				fatal(fmt.Errorf("backend %q: weight after '=' must be a positive integer", hostport))
			}
			weight = w
			hostport = hostport[:i]
		}
		d := &net.Dialer{Timeout: 5 * time.Second}
		target := hostport
		backends = append(backends, gateway.BackendConfig{
			Name:   target,
			Weight: weight,
			DialCtx: func(ctx context.Context) (net.Conn, error) {
				return d.DialContext(ctx, "tcp", target)
			},
		})
	}

	gw, err := gateway.New(gateway.Config{
		Backends:            backends,
		Policy:              gateway.ParsePolicy(*policy),
		Registry:            container,
		FailureThreshold:    *threshold,
		ReprobeAfter:        *reprobe,
		ExchangeTimeout:     *exchangeTimeout,
		MaxIdlePerBackend:   *maxIdle,
		MaxActivePerBackend: *maxActive,
		Passthrough:         *passthrough,
		PipelineBackends:    *pipelineBackends,
		DebugEndpoints:      *stats,
		AdminService:        *adminFlag,
		Coalesce: gateway.CoalesceConfig{
			Enabled:  *coalesce,
			MaxBatch: *maxBatch,
			MaxBytes: *maxBytes,
		},
	})
	if err != nil {
		fatal(err)
	}

	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("spigateway: listening on %s, policy %s, %d backend(s):\n",
		listener.Addr(), gateway.ParsePolicy(*policy), len(backends))
	for _, b := range backends {
		fmt.Printf("  %s (weight %d)\n", b.Name, b.Weight)
	}
	if *adminFlag {
		fmt.Println("spigateway: Admin service at /services/Admin")
	}
	if *passthrough && !*coalesce {
		fmt.Println("spigateway: zero-copy passthrough for single calls")
	}
	if *pipelineBackends > 1 {
		fmt.Printf("spigateway: pipelining up to %d exchanges per backend connection\n", *pipelineBackends)
	}
	if *coalesce {
		fmt.Printf("spigateway: coalescing singles (max %d entries / %d bytes)\n", *maxBatch, *maxBytes)
	}

	done := make(chan error, 1)
	go func() { done <- gw.Serve(listener) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Printf("spigateway: %v, draining\n", s)
		gw.Shutdown(5 * time.Second)
		select {
		case <-done:
		case <-time.After(time.Second):
		}
		st := gw.Stats()
		fmt.Printf("spigateway: %d envelopes (%d packed, %d proxied), %d sub-batches, %d failovers, %d degraded\n",
			st.Envelopes, st.Packed, st.Proxied, st.Scattered, st.Failovers, st.Degraded)
		if *coalesce {
			fmt.Printf("spigateway: %d singles coalesced into %d batches (%d passed through)\n",
				st.Coalesced, st.CoalesceBatches, st.CoalescePassthrough)
		}
		for _, bs := range st.Backends {
			fmt.Printf("  %-24s exchanges=%d failures=%d ejections=%d failovers=%d\n",
				bs.Name, bs.Exchanges, bs.Failures, bs.Ejections, bs.Failovers)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spigateway: %v\n", err)
	os.Exit(1)
}
