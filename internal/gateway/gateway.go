// Package gateway implements an SPI-aware scatter–gather front tier: it
// accepts packed envelopes, shards their Parallel_Method entries across a
// pool of backend SPI servers, and reassembles the replies into one packed
// response that is byte-identical to what a single direct server would
// have produced. This is the paper's dispatcher/assembler pair lifted one
// tier up — from threads on one machine to servers on a farm — with the
// application-aware twist that makes the intermediary useful: because the
// gateway understands the pack format, it splits work entry by entry
// instead of forwarding opaque blobs.
//
// The same awareness also runs in the opposite direction: with
// Config.Coalesce enabled, concurrent single-call envelopes from clients
// that never adopted the pack interface are merged into synthetic packed
// batches (see CoalesceConfig), dispatched through the identical
// scatter/failover machinery, and split back into per-client responses
// that are byte-identical to the uncoalesced path. Packing then becomes an
// infrastructure optimization instead of a client-side API choice.
//
// Construction is one call — New(Config{...}) — followed by Serve on a
// listener; see the package examples. docs/GATEWAY.md covers deployment,
// routing policies, failover semantics, and coalescer tuning.
package gateway

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/registry"
)

// Config wires a Gateway.
type Config struct {
	// Backends lists the pool members. At least one is required.
	Backends []BackendConfig
	// Policy selects the sharding strategy (default RoundRobin).
	Policy Policy

	// PathPrefix must match the backends' service mount point
	// (default "/services/"). Packed envelopes POST to the bare prefix.
	PathPrefix string

	// Registry, when set, supplies operation metadata: idempotency flags
	// that widen sub-batch failover (registry.Operation.Idempotent). The
	// gateway never executes operations itself, so the container's
	// handlers are ignored — deployments typically share the service
	// definitions with their backends.
	Registry *registry.Container

	// Coalesce, when enabled, merges concurrent single-call envelopes
	// into synthetic packed batches before scattering them — packing as
	// an infrastructure optimization for clients that never opt in. See
	// CoalesceConfig.
	Coalesce CoalesceConfig

	// Passthrough enables the fast path for single-call envelopes: the
	// request is relayed to one healthy backend without the gateway parsing
	// the envelope — header rewrite only, and, as on every whole-request
	// forward, the backend's response buffer is aliased straight into the
	// reply (its release is chained to the transport write). Engages only
	// when Coalesce is off — coalescing needs the
	// parsed form — and never for packed envelopes (detected by a
	// conservative byte sniff; false positives just take the parsed
	// path). Fault replies remain byte-identical either way because the
	// backend produces exactly the bytes a direct server would.
	Passthrough bool

	// Retry governs sub-batch failover between backends: a failed
	// sub-batch is re-sent to another available backend when the failure
	// class allows it (connect failures and Server.Busy always; other
	// transport losses only when every operation in the sub-batch is
	// idempotent per Registry). Nil uses core.DefaultRetryPolicy;
	// MaxAttempts < 2 disables failover.
	Retry *core.RetryPolicy

	// FailureThreshold is the consecutive-failure count that ejects a
	// backend (default 3).
	FailureThreshold int
	// ReprobeAfter is how long an ejected backend sits out before the
	// circuit half-opens (default 500ms): every caller is let through, and
	// the first failure re-opens it. When the window ends the gateway
	// probes a backend that is not draining (a GET of the services
	// listing), so it rejoins without waiting for traffic.
	ReprobeAfter time.Duration

	// ExchangeTimeout bounds one sub-batch exchange with a backend; zero
	// means only the client's propagated deadline applies.
	ExchangeTimeout time.Duration
	// PipelineBackends is the pipelining window of a backend connection
	// (httpx Client.MaxPerConn): up to this many exchanges share one
	// keep-alive connection, FIFO. Backend servers answer pipelined bursts
	// in order (httpx Server.MaxPipeline), so pools shrink and sub-batch
	// fan-out stops queueing on free connections. 0 or 1: one exchange per
	// connection.
	PipelineBackends int
	// MaxIdlePerBackend caps each backend's keep-alive pool (default 16).
	MaxIdlePerBackend int
	// MaxActivePerBackend bounds concurrent exchanges per backend; zero
	// means unbounded.
	MaxActivePerBackend int

	// MaxBodyBytes caps request and backend-response bodies; zero means
	// the httpx default.
	MaxBodyBytes int64

	// DebugEndpoints serves GET /spi/stats with gateway and per-backend
	// counters.
	DebugEndpoints bool

	// AdminService self-hosts the gateway's own Admin SOAP service
	// (GetStats/SetState) at PathPrefix+"Admin", served by the gateway
	// itself rather than proxied to a backend — so fleets of gateways are
	// scrapable by exporters exactly like servers, and SetState with a
	// backend parameter sets that backend's weight and drain state.
	AdminService bool
}

// Gateway is the scatter–gather front tier. Create with New.
type Gateway struct {
	cfg     Config
	ep      core.Endpoints // the URL layout, the backends' own
	httpSrv *httpx.Server
	rr      atomic.Uint64 // round-robin cursor (a bare uint64 here is misaligned on 386)

	// backends is the membership set, fixed by New; a backend's index is
	// its position, which keys response gathering and its fleet member.
	backends []*backend
	fleet    *fleet

	adminSrv   *core.Server // self-hosted Admin endpoint; nil unless AdminService
	adminState *admin.State // nil unless AdminService

	envelopes    atomic.Int64 // POSTed envelopes accepted
	packed       atomic.Int64 // of which packed (scattered)
	proxied      atomic.Int64 // of which proxied whole
	passthroughs atomic.Int64 // of the proxied, spliced zero-copy (no envelope parse)
	tally        fault.Tally  // counted by faultResponse, the relay's 502 and the packed assembler
	scattered    atomic.Int64 // sub-batches sent
	failovers    atomic.Int64 // sub-batches re-sent to another backend
	degraded     atomic.Int64 // slots degraded at the deadline

	coalescer           *core.BatchWindow[batchKey, *pendingCall] // nil unless Coalesce.Enabled
	coalesced           atomic.Int64                              // single calls merged into batches
	coalesceBatches     atomic.Int64                              // synthetic batches flushed
	coalescePassthrough atomic.Int64                              // single calls that bypassed coalescing
	coalesceSizes       [len(batchSizeBuckets)]atomic.Int64

	// shards counts the shard goroutines running, which tests wait for.
	shards sync.WaitGroup

	// life ends when the gateway stops: the coalescer's batches and the
	// backends' probes run under it.
	life    context.Context
	endLife context.CancelFunc
	settled chan struct{} // closed when the last probe running at stop ends
}

// New validates the configuration and builds the gateway with one
// keep-alive connection pool per backend.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.ReprobeAfter <= 0 {
		cfg.ReprobeAfter = 500 * time.Millisecond
	}
	if cfg.Retry == nil {
		cfg.Retry = core.DefaultRetryPolicy()
	}
	g := &Gateway{cfg: cfg, ep: core.NewEndpoints(cfg.PathPrefix), settled: make(chan struct{})}
	g.life, g.endLife = context.WithCancel(context.Background())
	for i, bc := range cfg.Backends {
		name := bc.Name
		if name == "" {
			name = fmt.Sprintf("backend%d", i)
		}
		switch {
		case bc.Dial == nil && bc.DialCtx == nil:
			return nil, fmt.Errorf("gateway: backend %d: no dialer", i)
		case slices.ContainsFunc(g.backends, func(b *backend) bool { return b.name == name }):
			return nil, fmt.Errorf("gateway: backend %d: backend name %q already in use", i, name)
		}
		b := &backend{
			g:     g,
			index: i,
			name:  name,
			client: &httpx.Client{
				Dial:         bc.Dial,
				DialCtx:      bc.DialCtx,
				KeepAlive:    true,
				MaxIdle:      cfg.MaxIdlePerBackend,
				MaxActive:    cfg.MaxActivePerBackend,
				Timeout:      cfg.ExchangeTimeout,
				MaxBodyBytes: cfg.MaxBodyBytes,
				MaxPerConn:   cfg.PipelineBackends,
			},
		}
		b.window = time.AfterFunc(time.Hour, func() { g.do(b, g.fleet.windowEnded(b.index, time.Now())) })
		b.window.Stop()
		b.weight.Store(int64(min(max(bc.Weight, 1), maxWeight)))
		g.backends = append(g.backends, b)
	}
	g.fleet = &fleet{threshold: cfg.FailureThreshold, window: cfg.ReprobeAfter, ms: make([]member, len(g.backends))}
	g.httpSrv = &httpx.Server{
		Handler:      g.Handle,
		Rejects:      &g.tally.Codes,
		MaxBodyBytes: cfg.MaxBodyBytes,
	}
	if cfg.AdminService {
		adminC := registry.NewContainer()
		g.adminState = admin.NewState()
		if err := admin.Deploy(adminC, g, g.adminState); err != nil {
			return nil, err
		}
		// A coupled embedded server: the Admin operations are cheap reads
		// and writes, so they execute inline on the protocol goroutine.
		srv, err := core.NewServer(core.ServerConfig{
			Container:  adminC,
			Coupled:    true,
			PathPrefix: cfg.PathPrefix,
		})
		if err != nil {
			return nil, err
		}
		g.adminSrv = srv
	}
	if cfg.Coalesce.Enabled {
		g.coalescer = newCoalescer(g, cfg.Coalesce)
	}
	return g, nil
}

// do carries out what a fleet event on b asks. The gateway is the fleet's
// interpreter: it reads the clock for the events, holds each backend's
// window timer and runs the probes, on the timer's goroutine.
func (g *Gateway) do(b *backend, a act) {
	if !a.arm.IsZero() {
		b.window.Reset(time.Until(a.arm))
	}
	if a.closeIdle {
		b.client.CloseIdle()
	}
	if a.settled {
		close(g.settled)
	}
	if a.probe {
		g.probe(b)
	}
}

func (g *Gateway) release(b *backend, n int) { g.do(b, g.fleet.release(b.index, int64(n))) }

func (g *Gateway) noteFailure(b *backend) {
	b.failures.Add(1)
	g.do(b, g.fleet.exchanged(b.index, time.Now(), false))
}

// probe is the active health check at the end of an ejection window: a GET
// of the services listing, bounded by the window's length. A 200 closes the
// circuit; anything else is a failure, which re-opens it.
func (g *Gateway) probe(b *backend) {
	ctx, cancel := context.WithTimeout(g.life, g.cfg.ReprobeAfter)
	resp, err := b.client.DoCtx(ctx, httpx.NewRequest("GET", g.ep.Prefix(), nil))
	cancel()
	ok := err == nil && resp.StatusCode == 200
	if err == nil {
		resp.Release()
	}
	if !ok {
		b.failures.Add(1)
	}
	g.do(b, g.fleet.probed(b.index, time.Now(), ok))
}

// Serve accepts connections on l until Close.
func (g *Gateway) Serve(l net.Listener) error {
	return g.httpSrv.Serve(l)
}

// Close shuts the gateway down: the listener stops, backend pools drain.
func (g *Gateway) Close() error {
	err := g.httpSrv.Close()
	g.stop()
	return err
}

// Shutdown drains gracefully: in-flight exchanges finish (up to the
// timeout) before backend pools close.
func (g *Gateway) Shutdown(timeout time.Duration) error {
	err := g.httpSrv.Shutdown(timeout)
	g.stop()
	return err
}

func (g *Gateway) stop() {
	// Ending the gateway's life fails the coalescer's exchanges fast, and
	// the coalescer closes before the backend pools: the batches it flushes
	// at Close, so that no parked handler waits forever, still have clients
	// to fail through.
	g.endLife()
	if g.fleet.close() {
		<-g.settled
	}
	for _, b := range g.backends {
		b.window.Stop()
	}
	if g.coalescer != nil {
		g.coalescer.Close()
	}
	for _, b := range g.backends {
		b.client.Close()
	}
}

// Stats is a point-in-time snapshot of the gateway's counters.
type Stats struct {
	Policy string

	Envelopes int64
	Packed    int64
	Proxied   int64
	// Passthrough counts the subset of Proxied that took the zero-copy
	// splice path (no envelope parse at the gateway).
	Passthrough int64
	// Faults and ItemFaults count the faults the gateway wrote: whole
	// messages (parse faults, relays its deadline ended, coalesced calls'
	// faults, and the relay's plain-text 502) and entries of packed
	// responses (degrades, shard failures). FaultCodes counts each of them
	// but the 502 once by wire code, with the transport's HTTP 400 rejects.
	// A backend's fault entry spliced into a packed response, or relayed
	// whole as bytes, is the backend's to count.
	Faults     int64
	ItemFaults int64
	FaultCodes []fault.CodeCount `json:",omitempty"`

	Scattered int64
	Failovers int64
	Degraded  int64
	// Drained counts backends whose drain completed: in-flight work hit
	// zero and the keep-alive pool was released.
	Drained int64

	// Coalesced counts single calls merged into synthetic batches;
	// CoalescePassthrough counts single calls that bypassed coalescing
	// (non-coalescible envelope, shutdown) and were
	// proxied whole instead. CoalesceBatches counts flushed batches and
	// CoalesceSizes is their size distribution in power-of-two buckets
	// ("1", "2", "3-4", ..., ">64"); zero buckets are omitted.
	Coalesced           int64
	CoalesceBatches     int64
	CoalescePassthrough int64
	CoalesceSizes       map[string]int64 `json:",omitempty"`

	Backends []BackendStats
}

// Stats snapshots the gateway and every backend.
func (g *Gateway) Stats() Stats {
	now := time.Now()
	st := Stats{
		Policy:      g.cfg.Policy.String(),
		Envelopes:   g.envelopes.Load(),
		Packed:      g.packed.Load(),
		Proxied:     g.proxied.Load(),
		Passthrough: g.passthroughs.Load(),
		Faults:      g.tally.Faults.Load(),
		ItemFaults:  g.tally.ItemFaults.Load(),
		FaultCodes:  g.tally.Codes.Snapshot(),
		Scattered:   g.scattered.Load(),
		Failovers:   g.failovers.Load(),
		Degraded:    g.degraded.Load(),

		Coalesced:           g.coalesced.Load(),
		CoalesceBatches:     g.coalesceBatches.Load(),
		CoalescePassthrough: g.coalescePassthrough.Load(),
	}
	for i := range g.coalesceSizes {
		if n := g.coalesceSizes[i].Load(); n > 0 {
			if st.CoalesceSizes == nil {
				st.CoalesceSizes = make(map[string]int64)
			}
			st.CoalesceSizes[batchSizeBuckets[i]] = n
		}
	}
	ms, cands := g.fleet.snapshot(now)
	fastest := g.fastestSample(cands)
	for i, b := range g.backends {
		ps := b.client.PoolStats()
		st.Backends = append(st.Backends, BackendStats{
			Name:      b.name,
			Ejected:   now.Before(ms[i].until),
			Draining:  ms[i].drain != serving,
			InFlight:  b.inflight.Load(),
			Entries:   ms[i].reserved,
			Idle:      ps.Idle,
			HTTPBusy:  ps.InFlight,
			Weight:    b.weight.Load(),
			EffWeight: float64(b.effectiveWeight(fastest)) / effWeightScale,
			SvcUs:     b.svcUs.Load(),
			Exchanges: b.exchanges.Load(),
			Failures:  b.failures.Load(),
			Ejections: ms[i].ejections,
			Failovers: b.failovers.Load(),
		})
		st.Drained += ms[i].drains
	}
	return st
}

// AdminStats builds the control-plane snapshot the gateway's self-hosted
// Admin service advertises, from Stats: the gateway has no application
// stage, so the worker/queue fields stay zero and Inflight counts outstanding
// backend sub-batches. Requests counts units of backend work dispatched
// (proxied envelopes plus scattered sub-batches).
func (g *Gateway) AdminStats() admin.Stats {
	st := g.Stats()
	out := admin.Stats{
		Role:       "gateway",
		Weight:     1,
		Envelopes:  st.Envelopes,
		Requests:   st.Proxied + st.Scattered,
		Packed:     st.Packed,
		Faults:     st.Faults,
		ItemFaults: st.ItemFaults,
		FaultCodes: admin.FaultCodes(st.FaultCodes),
	}
	if g.adminState != nil {
		out.Weight, out.Draining = g.adminState.Snapshot()
	}
	for _, b := range st.Backends {
		out.Inflight += b.InFlight
	}
	return out
}
