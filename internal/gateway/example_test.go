package gateway_test

import (
	"log"
	"net"
	"time"

	"repro/internal/gateway"
	"repro/internal/registry"
	"repro/internal/soapenc"
)

// sharedContainer is the service catalogue both the backends and the
// gateway load: backends execute the handlers, while the gateway only
// reads operation metadata (idempotency flags that gate failover).
func sharedContainer() *registry.Container {
	c := registry.NewContainer()
	svc := c.MustAddService("Echo", "urn:example:Echo", "example service")
	svc.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return params, nil
	}, "returns its parameters")
	svc.MarkIdempotent("echo")
	return c
}

// Constructing a gateway over a pool of backend SPI servers: packed
// envelopes are sharded across the pool, everything else is proxied whole,
// so clients point at the gateway exactly as they would at one server.
func ExampleNew() {
	dial := func(addr string) func() (net.Conn, error) {
		return func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	gw, err := gateway.New(gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "b0", Dial: dial("10.0.0.1:8080")},
			{Name: "b1", Dial: dial("10.0.0.2:8080")},
		},
		Policy:          gateway.LeastLoaded,
		Registry:        sharedContainer(),
		ExchangeTimeout: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", ":8080")
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	log.Fatal(gw.Serve(lis))
}

// Cross-client coalescing: single-call envelopes from clients that never
// adopted the pack interface are merged into synthetic packed batches.
// Calls targeting the same operation pool until a yield of the processor
// brings their batch no further call (sooner when the size/byte caps fill),
// then ride the normal scatter path; each client's reply stays
// byte-identical to the uncoalesced path. A lone call goes out at once.
func ExampleNew_coalescing() {
	gw, err := gateway.New(gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "b0", Dial: func() (net.Conn, error) { return net.Dial("tcp", "10.0.0.1:8080") }},
		},
		Registry: sharedContainer(),
		Coalesce: gateway.CoalesceConfig{
			Enabled:  true,
			MaxBatch: 64,        // flush immediately at 64 members
			MaxBytes: 256 << 10, // ... or at 256 KiB of request bodies
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
}
