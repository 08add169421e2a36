package gateway

import (
	"context"
	"math/bits"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/soap"
)

// Cross-client coalescing: the client-side autobatcher (core.AutoBatcher)
// lifted into the gateway. Concurrent single-call envelopes targeting the
// same operation are merged into one synthetic Parallel_Method batch,
// dispatched through the same shard/failover machinery as explicitly
// packed requests, and split back into individual responses that are
// byte-identical to the uncoalesced path — packing becomes an
// infrastructure optimization no client has to adopt.
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

	// FlushWindow is how long the first call in a batch waits for
	// companions before the batch flushes (default 1ms). A call whose
	// SPI-Deadline budget is under ten windows never parks: it is proxied
	// at once, so a batch never eats more than a tenth of a member's
	// deadline.
	FlushWindow time.Duration

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
	if c.FlushWindow <= 0 {
		c.FlushWindow = time.Millisecond
	}
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
	entry  *core.ScatterEntry
	bytes  int           // original request body size, for MaxBytes
	budget time.Duration // raw SPI-Deadline budget (0: none)
	done   chan callOutcome
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

// pendingBatch is one forming batch.
type pendingBatch struct {
	key   batchKey
	calls []*pendingCall
	bytes int
	timer *time.Timer
}

// coalescer owns the forming batches. One per gateway when enabled.
type coalescer struct {
	g   *Gateway
	cfg CoalesceConfig

	// baseCtx parents every flush: batches outlive the member requests
	// that formed them, so they cannot run under any one member's ctx.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu      sync.Mutex
	batches map[batchKey]*pendingBatch
	closed  bool
	wg      sync.WaitGroup
}

func newCoalescer(g *Gateway, cfg CoalesceConfig) *coalescer {
	ctx, cancel := context.WithCancel(context.Background())
	return &coalescer{
		g:       g,
		cfg:     cfg.withDefaults(),
		baseCtx: ctx,
		cancel:  cancel,
		batches: make(map[batchKey]*pendingBatch),
	}
}

// enqueue adds a call to its batch, flushing early at the size/byte caps
// and otherwise arming the flush timer with the batch's first call. Returns
// false when the coalescer is shutting down — the caller must proxy instead.
func (co *coalescer) enqueue(key batchKey, call *pendingCall) bool {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return false
	}
	b := co.batches[key]
	if b == nil {
		b = &pendingBatch{key: key}
		co.batches[key] = b
	}
	b.calls = append(b.calls, call)
	b.bytes += call.bytes
	if len(b.calls) >= co.cfg.MaxBatch || (co.cfg.MaxBytes > 0 && b.bytes >= co.cfg.MaxBytes) {
		delete(co.batches, key)
		if b.timer != nil {
			b.timer.Stop()
		}
		co.mu.Unlock()
		co.flush(b)
		return true
	}
	// Every member's budget is ten windows or more (coalesce), so the first
	// call's window is the one the whole batch keeps.
	if b.timer == nil {
		b.timer = time.AfterFunc(co.cfg.FlushWindow, func() { co.flushExpired(key, b) })
	}
	co.mu.Unlock()
	return true
}

// flushExpired is the timer callback: flush the batch if it is still the
// one forming under this key (a size-cap flush may have raced us).
func (co *coalescer) flushExpired(key batchKey, b *pendingBatch) {
	co.mu.Lock()
	if co.batches[key] != b {
		co.mu.Unlock()
		return
	}
	delete(co.batches, key)
	co.mu.Unlock()
	co.flush(b)
}

// flush dispatches a sealed batch on its own goroutine. Must be called
// without co.mu held.
func (co *coalescer) flush(b *pendingBatch) {
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		co.g.flushBatch(co.baseCtx, b)
	}()
}

// close stops accepting calls, cancels in-flight batch exchanges, flushes
// whatever is still forming (so no parked handler waits forever), and
// drains the flush goroutines.
func (co *coalescer) close() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	pending := make([]*pendingBatch, 0, len(co.batches))
	for key, b := range co.batches {
		delete(co.batches, key)
		if b.timer != nil {
			b.timer.Stop()
		}
		pending = append(pending, b)
	}
	co.mu.Unlock()
	co.cancel()
	for _, b := range pending {
		co.flush(b)
	}
	co.wg.Wait()
}

// coalesceSink adapts sendShard's slot deliveries to parked single calls.
// One sink serves one shard goroutine, so the header recorded by AddHeader
// belongs to the backend that answered this sink's slots.
type coalesceSink struct {
	calls  []*pendingCall // indexed by batch slot
	header []byte
	decls  soap.Decls
}

// Declare keeps Decls only: a fault segment is written anew, prefix and all.
func (s *coalesceSink) Declare(r core.GatherReply) { s.decls |= r.Decls }

func (s *coalesceSink) AddHeader(_ int, raw []byte) {
	if len(raw) > 0 {
		s.header = raw
	}
}

func (s *coalesceSink) Deliver(slot int, segment []byte) {
	s.calls[slot].deliver(callOutcome{segment: segment, header: s.header, decls: s.decls})
}

func (s *coalesceSink) Fail(slot int, f *soap.Fault) {
	s.calls[slot].deliver(callOutcome{fault: f})
}

// coalesce merges one single-call envelope into a pending batch and parks
// until its outcome arrives. A nil return means the call must be proxied
// instead: coalescing is off, the request is not coalescible (headers,
// undecodable, plan/packed body), its deadline budget is too tight to
// park, or the gateway is shutting down.
func (g *Gateway) coalesce(ctx context.Context, req *httpx.Request, defaultService string) *httpx.Response {
	co := g.coalescer
	if co == nil {
		return nil
	}
	budget := core.DeadlineBudget(req)
	if budget > 0 && budget < 10*co.cfg.FlushWindow {
		g.coalescePassthrough.Inc()
		return nil
	}
	sc := core.ParseSingleCall(req.Body, defaultService, g.cfg.Registry)
	if sc == nil {
		g.coalescePassthrough.Inc()
		return nil
	}
	call := &pendingCall{
		entry:  sc.Entry,
		bytes:  len(req.Body),
		budget: budget,
		done:   make(chan callOutcome, 1),
	}
	key := batchKey{service: sc.Entry.Service, op: sc.Entry.Op, version: sc.Version}
	if !co.enqueue(key, call) {
		g.coalescePassthrough.Inc()
		return nil
	}
	g.coalesced.Inc()

	// The member's own deadline watchdog: the batch runs under the widest
	// member budget, so a short-budget member degrades itself here with
	// the exact fault a direct server's abandoned worker produces. Its
	// slot outcome, arriving later, is simply dropped (buffered channel).
	memberCtx := ctx
	if budget > 0 {
		var cancel context.CancelFunc
		memberCtx, cancel = context.WithTimeout(ctx, core.ShortenBudget(budget))
		defer cancel()
	}
	var out callOutcome
	select {
	case out = <-call.done:
	case <-memberCtx.Done():
		g.degraded.Inc()
		df := core.AbandonFault(memberCtx, sc.Entry.Service, sc.Entry.Op)
		g.faultCodes.NoteSOAP(df)
		out = callOutcome{fault: df}
	}
	if out.fault != nil {
		g.faults.Inc()
		return core.GatewayFaultResponse(out.fault, sc.Version)
	}
	resp, isFault := core.SpliceSingleResponse(sc.Version, out.segment, out.header, out.decls)
	if isFault {
		g.faults.Inc()
	}
	return resp
}

// flushBatch dispatches one sealed batch through the scatter machinery:
// slot ids are sealed, entries are sharded by the configured policy, and
// each shard goes through sendShard — the same failover, circuit and
// retry path explicitly packed requests take — delivering straight into
// the parked calls.
func (g *Gateway) flushBatch(baseCtx context.Context, b *pendingBatch) {
	g.coalesceBatches.Inc()
	g.recordBatchSize(len(b.calls))

	entries := make([]*core.ScatterEntry, len(b.calls))
	var maxBudget time.Duration
	allBudgeted := true
	for i, c := range b.calls {
		c.entry.SealID(i)
		entries[i] = c.entry
		if c.budget > 0 {
			if c.budget > maxBudget {
				maxBudget = c.budget
			}
		} else {
			allBudgeted = false
		}
	}
	// The batch deadline is the widest member budget: tighter members
	// watchdog themselves, and a member without a budget leaves the batch
	// bounded only by ExchangeTimeout, exactly like its proxied exchange
	// would have been.
	var ctx context.Context
	var cancel context.CancelFunc
	if allBudgeted && maxBudget > 0 {
		ctx, cancel = context.WithTimeout(baseCtx, core.ShortenBudget(maxBudget))
	} else {
		ctx, cancel = context.WithCancel(baseCtx)
	}
	defer cancel()

	sr := &core.ScatterRequest{Version: b.key.version, Packed: true, Entries: entries}
	var wg sync.WaitGroup
	for _, sh := range g.buildSubBatches(sr, g.assign(entries), &coalesceSink{calls: b.calls}) {
		g.scattered.Inc()
		wg.Add(1)
		go func(sh shard) {
			defer wg.Done()
			g.sendShard(ctx, sh, sr, &coalesceSink{calls: b.calls})
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
	g.coalesceSizes[idx].Inc()
}
