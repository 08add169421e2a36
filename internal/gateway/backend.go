package gateway

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/admin"
	"repro/internal/httpx"
	"repro/internal/metrics"
)

// BackendConfig names and connects one backend SPI server.
type BackendConfig struct {
	// Name identifies the backend in stats and spans (default "backend<i>").
	Name string
	// Dial opens a connection to the backend. Required unless DialCtx is
	// set.
	Dial httpx.Dialer
	// DialCtx is the context-aware dialer; preferred over Dial so
	// deadline propagation covers connection establishment.
	DialCtx httpx.DialerCtx
	// Weight is the backend's routing weight under LeastLoaded (default 1):
	// a backend with weight 4 receives roughly four times the entries of an
	// equally fast weight-1 peer at equal load. The gateway's Admin SetState
	// changes it at runtime.
	Weight int
}

// backend is one pool member: a keep-alive connection pool, its routing
// inputs, its window timer and counters. Its lifecycle is its member in the
// gateway's fleet, at the same index; it is its own admin.Target.
type backend struct {
	g      *Gateway
	index  int // unique for the gateway's lifetime, never reused
	name   string
	client *httpx.Client
	window *time.Timer // fires at the end of an ejection window

	// weight is the routing weight, in [1, maxWeight]: configured, then set
	// through the gateway's Admin SetState.
	weight atomic.Int64
	// svcUs is the execution-time EWMA, in microseconds, the backend stated
	// in SPI-Load on its last sub-batch reply; 0 until it states one.
	svcUs atomic.Int64

	inflight  metrics.Gauge // exchanges currently in flight
	exchanges atomic.Int64  // sub-batch exchanges attempted
	failures  atomic.Int64  // exchanges that errored
	failovers atomic.Int64  // sub-batches moved away after failing here
}

// BackendStats is the per-backend slice of Gateway.Stats.
type BackendStats struct {
	Name     string
	Ejected  bool
	Draining bool
	InFlight int64 // sub-batches in flight
	Entries  int64 // packed entries in flight (the load-aware policies' signal)
	Idle     int   // pooled keep-alive connections
	HTTPBusy int   // exchanges inside the HTTP client right now

	// Weight is the routing weight; EffWeight the effective weight
	// LeastLoaded routes by, Weight × speed relative to the fleet's fastest;
	// SvcUs the execution time the backend last stated in SPI-Load, in
	// microseconds (0: none yet).
	Weight    int64
	EffWeight float64
	SvcUs     int64

	Exchanges int64
	Failures  int64
	Ejections int64
	Failovers int64
}

// Backend gives the gateway's Admin SetState the routing state of the named
// backend, so a backend parameter sets that backend's weight and drain
// instead of the gateway's own.
func (g *Gateway) Backend(name string) (admin.Target, bool) {
	for _, b := range g.backends {
		if b.name == name {
			return b, true
		}
	}
	return nil, false
}

// Snapshot is the backend's weight and drain flag.
func (b *backend) Snapshot() (int64, bool) {
	ms, _ := b.g.fleet.snapshot(time.Time{})
	return b.weight.Load(), ms[b.index].drain != serving
}

func (b *backend) SetWeight(w int64) error {
	if w > maxWeight {
		return fmt.Errorf("weight %d exceeds %d", w, maxWeight)
	}
	b.weight.Store(w)
	return nil
}

// SetDraining drains or resumes the backend. A drain stops new shards and
// proxies at once, lets in-flight sub-batches finish, then releases the
// keep-alive pool; a resume rejoins assignment at once and re-dials on
// demand (CloseIdle leaves the client usable).
func (b *backend) SetDraining(d bool) { b.g.do(b, b.g.fleet.setDrain(b.index, d)) }
