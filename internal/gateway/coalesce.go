package gateway

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/soap"
)

// Cross-client coalescing: the client-side autobatcher (core.AutoBatcher)
// lifted into the gateway, forming its batches in the same core.BatchWindow.
// Concurrent single-call envelopes targeting the same operation are merged
// into one synthetic Parallel_Method batch, dispatched through the same
// shard/failover machinery as explicitly packed requests, and split back
// into individual responses that are byte-identical to the uncoalesced path
// — packing becomes an infrastructure optimization no client has to adopt.
//
// Parking is safe because of the transport's threading model: each
// in-flight exchange owns its connection's protocol goroutine (see
// httpx.Handler), so a handler blocked in coalesce waits only on its own
// client while the batch forms on other connections' goroutines.

// CoalesceConfig tunes cross-client coalescing of single calls.
type CoalesceConfig struct {
	// Enabled turns coalescing on. Off, every single call is proxied
	// whole, the PR 5 behaviour.
	Enabled bool

	// MaxBatch flushes a batch as soon as it holds this many calls
	// (default 64), bounding both added latency and sub-batch size.
	MaxBatch int

	// MaxBytes flushes a batch early once the original request bodies it
	// absorbs exceed this many bytes (default 256 KiB, negative
	// disables the cap). Packing large payloads is a net loss — the
	// paper's Figure 5 crossover — so big requests should not pool.
	MaxBytes int
}

// withDefaults fills the zero values.
func (c CoalesceConfig) withDefaults() CoalesceConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 256 << 10
	}
	return c
}

// callOutcome is one coalesced call's result, delivered to its parked
// handler goroutine. Exactly one of segment/fault is meaningful.
type callOutcome struct {
	segment []byte // raw packed-response entry (copied, caller-owned)
	header  []byte // raw response-header bytes from the answering backend
	// decls: what the answering backend's reply Envelope declared on demand.
	decls soap.Decls
	fault *soap.Fault
}

// pendingCall is one parked single call awaiting its batch.
type pendingCall struct {
	entry    *core.ScatterEntry
	deadline time.Time // the request's deadline (zero: none)
	done     chan callOutcome
}

// deliver hands the outcome to the parked handler. Buffered and
// first-write-wins: a handler that already gave up (deadline, disconnect)
// simply never reads it.
func (c *pendingCall) deliver(out callOutcome) {
	select {
	case c.done <- out:
	default:
	}
}

// batchKey identifies one coalescing bucket: per-operation affinity means
// a batch targets exactly one (service, op) pair, and version purity keeps
// the synthetic envelope in every member's own SOAP version.
type batchKey struct {
	service string
	op      string
	version soap.Version
}

// settleYield is the yield of every coalescer's settle step: a batch goes
// once a yield brings it no further call. Tests swap it to hold batches open.
var settleYield = runtime.Gosched

// newCoalescer forms the coalesced batches, one per batchKey, in a
// core.BatchWindow capped at MaxBatch calls and MaxBytes of request bodies.
// One per gateway when enabled.
func newCoalescer(g *Gateway, cfg CoalesceConfig) *core.BatchWindow[batchKey, *pendingCall] {
	cfg = cfg.withDefaults()
	return core.NewBatchWindow(cfg.MaxBatch, cfg.MaxBytes, settleYield, func(key batchKey, calls []*pendingCall) {
		g.flushBatch(key.version, calls)
	})
}

// coalesceSink adapts sendShard's slot deliveries to parked single calls.
type coalesceSink struct {
	calls []*pendingCall // indexed by batch slot
}

func (s *coalesceSink) Gather(_ int, shard []*core.ScatterEntry, r *core.GatherReply) {
	for k, e := range shard {
		switch {
		case k < len(r.Faults) && r.Faults[k] != nil:
			s.calls[e.Slot].deliver(callOutcome{fault: r.Faults[k]})
		case r.Segments[k] != nil:
			s.calls[e.Slot].deliver(callOutcome{segment: r.Segments[k], header: r.RawHeader, decls: r.Decls})
		}
	}
}

func (s *coalesceSink) Fail(slot int, f *soap.Fault) {
	s.calls[slot].deliver(callOutcome{fault: f})
}

// coalesce merges one single-call envelope, read by ParseCoalescible into sr,
// into a forming batch and parks until its outcome arrives. A nil return
// means the call must be proxied instead: coalescing is off, the request is
// not coalescible (sr.Single is nil: headers, undecodable, plan/packed body),
// or the gateway is shutting down.
func (g *Gateway) coalesce(ctx context.Context, req *httpx.Request, sr *core.ScatterRequest) *httpx.Response {
	if g.coalescer == nil {
		return nil
	}
	if sr.Single == nil {
		g.coalescePassthrough.Add(1)
		return nil
	}
	entry := sr.Single
	deadline, _ := ctx.Deadline()
	call := &pendingCall{entry: entry, deadline: deadline, done: make(chan callOutcome, 1)}
	key := batchKey{service: entry.Service, op: entry.Op, version: sr.Version}
	if !g.coalescer.Add(key, call, len(req.Body)) {
		g.coalescePassthrough.Add(1)
		return nil
	}
	g.coalesced.Add(1)

	// The member's own deadline watchdog: the batch runs to the widest
	// member deadline, so a member with a tighter one degrades itself here
	// with the exact fault a direct server's abandoned worker produces. Its
	// slot outcome, arriving later, is simply dropped (buffered channel).
	var out callOutcome
	select {
	case out = <-call.done:
	case <-ctx.Done():
		g.degraded.Add(1)
		out = callOutcome{fault: core.AbandonFault(ctx, entry.Service, entry.Op)}
	}
	if out.fault != nil {
		return g.faultResponse(out.fault, sr.Version)
	}
	return core.SpliceSingleResponse(sr.Version, out.segment, out.header, out.decls)
}

// flushBatch dispatches one sealed batch through the scatter machinery:
// slot ids are sealed, entries are sharded by the configured policy, and
// each shard goes through sendShard — the same failover, circuit and
// retry path explicitly packed requests take — delivering straight into
// the parked calls.
func (g *Gateway) flushBatch(v soap.Version, calls []*pendingCall) {
	g.coalesceBatches.Add(1)
	g.recordBatchSize(len(calls))

	entries := make([]*core.ScatterEntry, len(calls))
	var widest time.Time
	unbounded := false
	for i, c := range calls {
		c.entry.SealID(i)
		entries[i] = c.entry
		switch {
		case c.deadline.IsZero():
			unbounded = true
		case c.deadline.After(widest):
			widest = c.deadline
		}
	}
	// The batch deadline is the widest member deadline: tighter members
	// watchdog themselves, and a member without one leaves the batch
	// bounded only by ExchangeTimeout, exactly like its relayed exchange
	// would have been. Batches outlive the requests that formed them, so
	// they run under the gateway's life, not any member's context.
	ctx := g.life
	if !unbounded {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, widest)
		defer cancel()
	}

	sr := &core.ScatterRequest{Version: v, Packed: true, Entries: entries}
	var wg sync.WaitGroup
	for _, sh := range g.buildSubBatches(sr, g.assign(entries), &coalesceSink{calls: calls}) {
		g.scattered.Add(1)
		wg.Add(1)
		g.shards.Add(1)
		go func(sh shard) {
			defer wg.Done()
			g.runShard(ctx, sh, sr, &coalesceSink{calls: calls})
		}(sh)
	}
	wg.Wait()
}

// batchSizeBuckets label the coalesced-batch-size distribution: 1, 2,
// 3-4, 5-8, ... — power-of-two buckets, the last one open-ended.
var batchSizeBuckets = [...]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", ">64"}

// recordBatchSize files one flushed batch into the size distribution.
func (g *Gateway) recordBatchSize(n int) {
	if n <= 0 {
		return
	}
	idx := bits.Len(uint(n - 1)) // 1→0, 2→1, 3-4→2, 5-8→3, ...
	if idx >= len(batchSizeBuckets) {
		idx = len(batchSizeBuckets) - 1
	}
	g.coalesceSizes[idx].Add(1)
}
