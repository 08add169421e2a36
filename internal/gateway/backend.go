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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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

// effWeightScale is the fixed-point scale of an effective weight: it carries
// three decimal places so the speed factor keeps resolution without floating
// point in the assignment loop.
const effWeightScale = 1000

// maxWeight bounds a backend's weight, so that load × weight × effWeightScale
// stays far inside int64 in the assignment loop.
const maxWeight = 1 << 20

// minSpeedDiv floors a backend's speed factor at 1/minSpeedDiv: a backend ten
// or more times slower than the fleet's fastest keeps a tenth of its weight,
// so real traffic still samples it and it recovers without operator action.
const minSpeedDiv = 10

// backend is one pool member: a keep-alive connection pool plus the
// passive-ejection circuit, the routing state, and counters.
type backend struct {
	index  int // unique for the gateway's lifetime, never reused
	name   string
	client *httpx.Client

	// weight is the routing weight, in [1, maxWeight]: configured, then set
	// through the gateway's Admin SetState.
	weight atomic.Int64
	// svcUs is the execution-time EWMA, in microseconds, the backend stated
	// in SPI-Load on its last sub-batch reply; 0 until it states one.
	svcUs atomic.Int64
	// drain is the drain state (drainOff, drainPending, drainDone): a
	// draining backend takes no new work while its in-flight work finishes.
	drain atomic.Int32

	inflight metrics.Gauge // exchanges currently in flight
	// entriesInflight counts packed ENTRIES in flight, not sub-batches: a
	// 1-entry shard on a slow node and a 5-entry shard on a fast one are
	// very different amounts of outstanding work, and load-aware policies
	// that cannot tell them apart dog-pile whichever backend's single
	// sub-batch happens to finish first. A relayed request counts one.
	// Reserved from assignment on, it is what a drain waits out (release).
	entriesInflight metrics.Gauge
	exchanges       metrics.Counter // sub-batch exchanges attempted
	failures        metrics.Counter // exchanges that errored
	ejections       metrics.Counter // circuit openings
	failovers       metrics.Counter // sub-batches moved away after failing here

	mu           sync.Mutex
	consecFails  int
	ejectedUntil time.Time
	reprobe      *time.Timer // the probe at the end of the ejection window; nil until the circuit first opens
}

// draining reports whether the backend is draining or drained.
func (b *backend) draining() bool { return b.drain.Load() != drainOff }

// fastestSample is the smallest execution time any of bs has stated, 0 when
// none has stated one.
func fastestSample(bs []*backend) int64 {
	var fastest int64
	for _, b := range bs {
		if s := b.svcUs.Load(); s > 0 && (fastest == 0 || s < fastest) {
			fastest = s
		}
	}
	return fastest
}

// effectiveWeight is the backend's weight × its speed relative to the
// fleet's fastest sample, fastest/own, in effWeightScale fixed point and
// floored at 1/minSpeedDiv of the weight. A backend with no sample, or a
// fleet with none (fastest 0), keeps speed 1 — so an old build that never
// states its load routes exactly as before.
func (b *backend) effectiveWeight(fastest int64) int64 {
	w := b.weight.Load() * effWeightScale
	own := b.svcUs.Load()
	if fastest <= 0 || own <= fastest {
		return w
	}
	return max(int64(float64(w)*float64(fastest)/float64(own)), w/minSpeedDiv)
}

// noteLoad adopts the execution time a sub-batch reply states in its
// SPI-Load header. The header is input from another process, so anything
// but one positive base-10 integer is ignored and the previous sample stays.
func (b *backend) noteLoad(h *httpx.Header) {
	n, v := 0, ""
	h.Each(func(name, value string) {
		if strings.EqualFold(name, core.HeaderLoad) {
			n, v = n+1, value
		}
	})
	if n != 1 {
		return
	}
	if us, err := strconv.ParseInt(v, 10, 64); err == nil && us > 0 {
		b.svcUs.Store(us)
	}
}

// available reports whether the backend may be handed work: the circuit is
// closed, or its ejection window has ended (half-open — one sub-batch or the
// probe is let through; a failure re-ejects, a success closes the circuit).
func (b *backend) available(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ejectedUntil.IsZero() || !now.Before(b.ejectedUntil)
}

// ejected reports whether the circuit is currently open, re-probe window
// included — the /spi/stats health view.
func (b *backend) ejectedNow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.ejectedUntil.IsZero() && now.Before(b.ejectedUntil)
}

// noteSuccess closes the circuit.
func (b *backend) noteSuccess() {
	b.mu.Lock()
	b.consecFails = 0
	b.ejectedUntil = time.Time{}
	b.mu.Unlock()
}

// noteFailure counts one failed exchange on b and opens (or re-opens) its
// circuit once FailureThreshold consecutive failures accumulate. Each opening
// arms the probe at the end of the new ejection window.
func (g *Gateway) noteFailure(b *backend) {
	b.failures.Inc()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.consecFails < g.cfg.FailureThreshold {
		return
	}
	if b.ejectedUntil.IsZero() {
		b.ejections.Inc()
	}
	b.ejectedUntil = time.Now().Add(g.cfg.ReprobeAfter)
	// Each arming is one probe to run or to stop: stop waits for them all.
	switch {
	case g.life.Err() != nil:
		// Stopped: stop has stopped the armed probe, and arms no other.
	case b.reprobe == nil:
		g.probes.Add(1)
		b.reprobe = time.AfterFunc(g.cfg.ReprobeAfter, func() { defer g.probes.Done(); g.probe(b) })
	case !b.reprobe.Reset(g.cfg.ReprobeAfter):
		g.probes.Add(1) // it had fired: this arms another
	}
}

// probe is the active health check at the end of an ejection window: a GET
// of the services listing, bounded by the window's length. A 200 closes the
// circuit; anything else is a failure, which re-opens it and so arms the next
// probe. A circuit that traffic closed first is left alone.
func (g *Gateway) probe(b *backend) {
	b.mu.Lock()
	closed := b.ejectedUntil.IsZero()
	b.mu.Unlock()
	if closed || g.life.Err() != nil {
		return
	}
	ctx, cancel := context.WithTimeout(g.life, g.cfg.ReprobeAfter)
	defer cancel()
	resp, err := b.client.DoCtx(ctx, httpx.NewRequest("GET", g.cfg.PathPrefix, nil))
	if err == nil {
		ok := resp.StatusCode == 200
		resp.Release()
		if ok {
			b.noteSuccess()
			return
		}
	}
	g.noteFailure(b)
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

// stats snapshots the backend; fastest is the fleet's fastest sample, as
// assign sees it.
func (b *backend) stats(now time.Time, fastest int64) BackendStats {
	ps := b.client.PoolStats()
	return BackendStats{
		Name:      b.name,
		Ejected:   b.ejectedNow(now),
		Draining:  b.draining(),
		InFlight:  b.inflight.Load(),
		Entries:   b.entriesInflight.Load(),
		Idle:      ps.Idle,
		HTTPBusy:  ps.InFlight,
		Weight:    b.weight.Load(),
		EffWeight: float64(b.effectiveWeight(fastest)) / effWeightScale,
		SvcUs:     b.svcUs.Load(),
		Exchanges: b.exchanges.Load(),
		Failures:  b.failures.Load(),
		Ejections: b.ejections.Load(),
		Failovers: b.failovers.Load(),
	}
}
