package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/metrics"
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
	// circuit half-opens (default 500ms).
	ReprobeAfter time.Duration
	// ProbeInterval enables active health checks (a GET of the services
	// listing) at the given period; zero leaves health passive.
	ProbeInterval time.Duration

	// ExchangeTimeout bounds one sub-batch exchange with a backend; zero
	// means only the client's propagated deadline applies.
	ExchangeTimeout time.Duration
	// PipelineBackends, when > 0, drives backend connections pipelined:
	// up to this many exchanges share one keep-alive connection, FIFO.
	// Backend servers answer pipelined bursts in order (httpx
	// Server.MaxPipeline), so pools shrink and sub-batch fan-out stops
	// queueing on free connections. Zero keeps one exchange per
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
	// AdminWeight is the gateway's initial advertised weight (default 1).
	AdminWeight int
}

// Gateway is the scatter–gather front tier. Create with New.
type Gateway struct {
	cfg     Config
	httpSrv *httpx.Server
	rr      atomic.Uint64 // round-robin cursor (a bare uint64 here is misaligned on 386)

	// backends is the membership set, fixed by New; a backend's index is
	// its position, which keys response gathering.
	backends []*backend

	adminSrv   *core.Server // self-hosted Admin endpoint; nil unless AdminService
	adminState *admin.State // nil unless AdminService

	envelopes    metrics.Counter // POSTed envelopes accepted
	packed       metrics.Counter // of which packed (scattered)
	proxied      metrics.Counter // of which proxied whole
	passthroughs metrics.Counter // of the proxied, spliced zero-copy (no envelope parse)
	faults       metrics.Counter // whole-message fault responses
	itemFaults   metrics.Counter // per-item faults in packed responses
	faultCodes   fault.Counters  // faults the gateway itself originated, per wire code
	scattered    metrics.Counter // sub-batches sent
	failovers    metrics.Counter // sub-batches re-sent to another backend
	degraded     metrics.Counter // slots degraded at the deadline

	coalescer           *coalescer
	coalesced           metrics.Counter // single calls merged into batches
	coalesceBatches     metrics.Counter // synthetic batches flushed
	coalescePassthrough metrics.Counter // single calls that bypassed coalescing
	coalesceSizes       [len(batchSizeBuckets)]metrics.Counter

	probeStop chan struct{}
	probeWG   sync.WaitGroup

	stopCh   chan struct{} // closed by stop(); bounds drain waiters
	stopOnce sync.Once
	drainWG  sync.WaitGroup
	drained  metrics.Counter // backends fully drained (in-flight hit zero)
}

// New validates the configuration and builds the gateway with one
// keep-alive connection pool per backend.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	if cfg.PathPrefix == "" {
		cfg.PathPrefix = "/services/"
	}
	if !strings.HasSuffix(cfg.PathPrefix, "/") {
		cfg.PathPrefix += "/"
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
	g := &Gateway{cfg: cfg, stopCh: make(chan struct{})}
	for i, bc := range cfg.Backends {
		if _, err := g.newBackend(bc); err != nil {
			return nil, fmt.Errorf("gateway: backend %d: %w", i, err)
		}
	}
	g.httpSrv = &httpx.Server{
		Handler:      g.Handle,
		Rejects:      &g.faultCodes,
		MaxBodyBytes: cfg.MaxBodyBytes,
	}
	if cfg.AdminService {
		adminC := registry.NewContainer()
		g.adminState = admin.NewState(int64(cfg.AdminWeight))
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
	if cfg.ProbeInterval > 0 {
		g.probeStop = make(chan struct{})
		g.probeWG.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// newBackend validates one BackendConfig, builds its pool member and
// appends it to the membership set.
func (g *Gateway) newBackend(bc BackendConfig) (*backend, error) {
	if bc.Dial == nil && bc.DialCtx == nil {
		return nil, fmt.Errorf("no dialer")
	}
	index := len(g.backends)
	name := bc.Name
	if name == "" {
		name = fmt.Sprintf("backend%d", index)
	}
	for _, other := range g.backends {
		if other.name == name {
			return nil, fmt.Errorf("backend name %q already in use", name)
		}
	}
	b := &backend{
		index: index,
		name:  name,
		client: &httpx.Client{
			Dial:         bc.Dial,
			DialCtx:      bc.DialCtx,
			KeepAlive:    true,
			MaxIdle:      g.cfg.MaxIdlePerBackend,
			MaxActive:    g.cfg.MaxActivePerBackend,
			Timeout:      g.cfg.ExchangeTimeout,
			MaxBodyBytes: g.cfg.MaxBodyBytes,
			Pipeline:     g.cfg.PipelineBackends > 0,
			MaxPerConn:   g.cfg.PipelineBackends,
		},
	}
	b.weight.Store(int64(min(max(bc.Weight, 1), maxWeight)))
	g.backends = append(g.backends, b)
	return b, nil
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
	g.stopOnce.Do(func() { close(g.stopCh) })
	if g.probeStop != nil {
		close(g.probeStop)
		g.probeWG.Wait()
		g.probeStop = nil
	}
	// The coalescer closes before the backend pools so forming batches
	// still have clients to flush through (their exchanges fail fast under
	// the coalescer's cancelled base context).
	if g.coalescer != nil {
		g.coalescer.close()
	}
	g.drainWG.Wait()
	for _, b := range g.backends {
		b.client.Close()
	}
}

// probeLoop actively re-checks backend health at the configured period.
// Only ejected backends are probed — healthy ones prove themselves with
// real traffic.
func (g *Gateway) probeLoop() {
	defer g.probeWG.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-t.C:
			now := time.Now()
			for _, b := range g.backends {
				if b.ejectedNow(now) {
					continue // circuit open: wait out the re-probe timer
				}
				if b.available(now) && b.consecutiveFails() == 0 {
					continue // demonstrably healthy
				}
				ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeInterval)
				b.probe(ctx, g.cfg.PathPrefix, g.cfg.FailureThreshold, g.cfg.ReprobeAfter)
				cancel()
			}
		}
	}
}

// consecutiveFails reads the circuit's failure count.
func (b *backend) consecutiveFails() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecFails
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
	Faults      int64
	ItemFaults  int64
	// FaultCodes tallies faults the gateway itself originated (parse
	// faults, degrades, shard failures), per wire fault code. Backend
	// faults relayed as raw bytes are not parsed and not counted here.
	FaultCodes []fault.CodeCount `json:",omitempty"`

	Scattered int64
	Failovers int64
	Degraded  int64
	// Drained counts backends whose drain completed: in-flight work hit
	// zero and the keep-alive pool was released.
	Drained int64

	// Coalesced counts single calls merged into synthetic batches;
	// CoalescePassthrough counts single calls that bypassed coalescing
	// (tight deadline, non-coalescible envelope, shutdown) and were
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
		Faults:      g.faults.Load(),
		ItemFaults:  g.itemFaults.Load(),
		FaultCodes:  g.faultCodes.Snapshot(),
		Scattered:   g.scattered.Load(),
		Failovers:   g.failovers.Load(),
		Degraded:    g.degraded.Load(),
		Drained:     g.drained.Load(),

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
	fastest := fastestSample(routableCandidates(g.backends, now))
	for _, b := range g.backends {
		st.Backends = append(st.Backends, b.stats(now, fastest))
	}
	return st
}

// AdminStats builds the control-plane snapshot the gateway's self-hosted
// Admin service advertises: the gateway has no application stage, so the
// worker/queue fields stay zero and Inflight counts outstanding backend
// sub-batches. Requests counts units of backend work dispatched (proxied
// envelopes plus scattered sub-batches).
func (g *Gateway) AdminStats() admin.Stats {
	out := admin.Stats{
		Role:       "gateway",
		Weight:     1,
		Envelopes:  g.envelopes.Load(),
		Requests:   g.proxied.Load() + g.scattered.Load(),
		Packed:     g.packed.Load(),
		Faults:     g.faults.Load(),
		ItemFaults: g.itemFaults.Load(),
		FaultCodes: admin.FaultCodes(g.faultCodes.Snapshot()),
	}
	if g.adminState != nil {
		out.Weight, out.Draining = g.adminState.Snapshot()
	}
	for _, b := range g.backends {
		out.Inflight += b.inflight.Load()
	}
	return out
}

// debugPathPrefix mirrors the server's debug mount point.
const debugPathPrefix = "/spi/"

// statsSnapshot is the /spi/stats JSON shape: the gateway's counters and
// the process's garbage collector.
type statsSnapshot struct {
	Gateway Stats                `json:"gateway"`
	Runtime metrics.RuntimeStats `json:"runtime"`
}

// handleDebug serves GET /spi/stats.
func (g *Gateway) handleDebug(req *httpx.Request) *httpx.Response {
	target := req.Target
	if i := strings.IndexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	if target != debugPathPrefix+"stats" {
		resp := httpx.NewResponse(404, []byte("no such debug endpoint\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	body, err := json.MarshalIndent(statsSnapshot{Gateway: g.Stats(), Runtime: metrics.ReadRuntime()}, "", "  ")
	if err != nil {
		resp := httpx.NewResponse(500, []byte("stats marshal failed\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	body = append(body, '\n')
	resp := httpx.NewResponse(200, body)
	resp.Header.Set("Content-Type", "application/json")
	return resp
}
