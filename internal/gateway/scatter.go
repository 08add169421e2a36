package gateway

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/trace"
)

// Handle is the gateway's HTTP handler: packed POSTs are scattered across
// the backend pool; everything else (single requests, WSDL GETs) is
// proxied whole to one backend, so the gateway is a drop-in endpoint. It
// routes each target with the server's endpoint map, so a target no server
// routes is refused here as a server refuses it.
func (g *Gateway) Handle(ctx context.Context, req *httpx.Request) *httpx.Response {
	// The gateway's own management surface: single-call envelopes POSTed to
	// <prefix>Admin are answered by the self-hosted Admin service, not
	// proxied — the gateway's stats and drain state are its own. Packed
	// envelopes are still scattered even if they carry Admin entries, so a
	// monitoring client can pack GetStats across the backend fleet.
	route := g.ep.Route(req.Target)
	if g.adminSrv != nil && route.Admin() {
		return g.adminSrv.HandleHTTP(ctx, req)
	}
	// The request's one deadline: everything it is forwarded through runs
	// under it, shortened by the server's grace rule so that the gateway's
	// answer — a degraded one, if need be — beats the client's own deadline.
	if budget := core.DeadlineBudget(req); budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, core.ShortenBudget(budget))
		defer cancel()
	}
	// The client's trace id (SPI-Trace), which every sub-batch carries on, so
	// the backends' spans correlate with the client's. The gateway records no
	// spans and so starts no trace of its own.
	if id := core.TraceID(req); id != 0 {
		ctx = trace.NewContext(ctx, id)
	}
	if req.Method == "GET" {
		if g.cfg.DebugEndpoints && route.Debug() {
			return core.GatewayDebug(route, func() any { return g.Stats() })
		}
		return g.relay(ctx, req, soap.V11)
	}
	if resp := route.Refuse(req.Method); resp != nil {
		return resp
	}
	defaultService := route.Service

	// Zero-copy fast path: a single-call envelope headed for the proxy
	// path anyway is spliced through a backend without being parsed here.
	// Packed envelopes (byte sniff) and coalescing deployments fall
	// through to the parsed path below.
	if g.passthroughEligible(req) {
		g.envelopes.Add(1)
		g.proxied.Add(1)
		g.passthroughs.Add(1)
		return g.relay(ctx, req, contentVersion(req))
	}

	// The one read of the request: a coalescing gateway's also prepares a
	// single call's entry for its batch.
	var sr *core.ScatterRequest
	var parseFault *soap.Fault
	if g.coalescer != nil {
		sr, parseFault = core.ParseCoalescible(req.Body, defaultService, g.cfg.Registry)
	} else {
		sr, parseFault = core.ParseScatterRequest(req.Body, defaultService)
	}
	if parseFault != nil {
		// The direct server's fault, in its version: SOAP 1.1 for a
		// document whose envelope does not open, the request's own after.
		v := soap.V11
		if sr != nil {
			v = sr.Version
		}
		return g.faultResponse(parseFault, v)
	}
	g.envelopes.Add(1)
	if !sr.Packed {
		// Single call: try to merge it into a forming cross-client batch.
		// A nil return means it was not coalescible (or coalescing is off)
		// and falls through to the byte-transparent proxy path.
		if resp := g.coalesce(ctx, req, sr); resp != nil {
			return resp
		}
		g.proxied.Add(1)
		return g.relay(ctx, req, sr.Version)
	}
	g.packed.Add(1)
	return g.scatterGather(ctx, sr)
}

// scatterGather shards the parsed entries, fans the sub-batches out, and
// writes each entry of the packed response as its shard's reply arrives; the
// entries still unanswered at the request's deadline are degraded.
func (g *Gateway) scatterGather(ctx context.Context, sr *core.ScatterRequest) *httpx.Response {
	col := sr.NewCollector()
	col.Tally(&g.tally)
	for _, e := range sr.Entries {
		if e.Fault != nil {
			col.Fail(e.Slot, e.Fault)
		}
	}

	for _, sh := range g.buildSubBatches(sr, g.assign(sr.Entries), col) {
		g.scattered.Add(1)
		g.shards.Add(1)
		go g.runShard(ctx, sh, sr, col)
	}

	resp, _, err := col.Assemble(ctx, sr.Version, func(slot int) *soap.Fault {
		g.degraded.Add(1)
		// The fault a direct server abandoning the same entry answers with.
		return core.AbandonFault(ctx, sr.Entries[slot].Service, sr.Entries[slot].Op)
	})
	if err != nil {
		return g.faultResponse(soap.ServerFault("assembling packed response: %v", err), sr.Version)
	}
	return resp
}

// allIdempotent reports whether every operation in the shard is marked
// idempotent in the registry — the gate for failing over sub-batches whose
// first attempt may already have executed.
func (g *Gateway) allIdempotent(shard []*core.ScatterEntry) bool {
	if g.cfg.Registry == nil {
		return false
	}
	for _, e := range shard {
		if !g.cfg.Registry.Idempotent(e.Service, e.Op) {
			return false
		}
	}
	return true
}

// resultSink receives one shard's slot outcomes. The scatter path plugs in
// a *core.GatherCollector (reassembly into one packed response); the
// coalescer plugs in a coalesceSink (delivery straight to parked single
// calls). Sinks must tolerate late or duplicate writes to a slot
// (first write wins).
type resultSink interface {
	// Gather hands each call of shard what backend's reply said to it, a
	// segment or a parsed per-item fault, along with what the reply's
	// framing was (header bytes, declarations, envelope prefix). A call the
	// reply did not answer is left to Fail.
	Gather(backend int, shard []*core.ScatterEntry, r *core.GatherReply)
	// Fail resolves a slot with a per-item fault.
	Fail(slot int, f *soap.Fault)
}

// buildSubBatches writes every shard's sub-batch before any is sent: an
// entry's bytes are a span of the request body, which the transport reuses
// once the handler returns, and a shard's exchange may outlive the handler.
// A shard whose sub-batch cannot be built releases its reservation, fails its
// slots and is dropped.
func (g *Gateway) buildSubBatches(sr *core.ScatterRequest, shards []shard, col resultSink) []shard {
	built := shards[:0]
	for _, sh := range shards {
		doc, err := core.BuildSubBatch(sr.Version, sr.Headers, sh.entries)
		if err != nil {
			g.release(sh.b, len(sh.entries))
			f := soap.ServerFault("building sub-batch: %v", err)
			for _, e := range sh.entries {
				col.Fail(e.Slot, f)
			}
			continue
		}
		sh.doc = doc
		built = append(built, sh)
	}
	return built
}

// sendShard delivers one built sub-batch: exchange, and on an eligible
// failure fail over to another available backend under the retry policy,
// re-sending the same bytes. Exhausted or ineligible failures degrade the
// shard's slots to per-item faults; slots already degraded by the deadline
// ignore late deliveries (first write wins). Every slot is resolved — Deliver
// or Fail — before sendShard returns.
func (g *Gateway) sendShard(ctx context.Context, sh shard, sr *core.ScatterRequest, col resultSink) {
	// The entries are reserved on b (assign; a failover moves them) until
	// the outcome is known, and released before the slots resolve, which
	// lets the response go: the next request's assign must not see them.
	b, shard := sh.b, sh.entries
	idem := g.allIdempotent(shard)
	p := g.cfg.Retry
	attempts := p.Attempts()
	for attempt := 1; ; attempt++ {
		resp, err := g.exchange(ctx, b, sr.Version, sh.doc)
		if err == nil {
			if err = g.deliver(ctx, b, sr, shard, resp, col); err == nil {
				return
			}
		}
		g.noteFailure(b)
		if attempt >= attempts || ctx.Err() != nil || !core.RetryableError(err, idem) ||
			p.Wait(ctx, attempt) != nil {
			g.release(b, len(shard))
			for _, e := range shard {
				col.Fail(e.Slot, shardFault(ctx, e, err))
			}
			return
		}
		to, a := g.fleet.pick(time.Now(), g.rr.Add(1)-1, b.index, int64(len(shard)))
		g.do(b, a)
		if next := g.backends[to]; next != b {
			b.failovers.Add(1)
			g.failovers.Add(1)
			b = next
		}
	}
}

// runShard is sendShard on a goroutine of its own, which the caller counted
// in g.shards.
func (g *Gateway) runShard(ctx context.Context, sh shard, sr *core.ScatterRequest, col resultSink) {
	defer g.shards.Done()
	g.sendShard(ctx, sh, sr, col)
}

// shardFault maps a failed sub-batch to its per-item fault: the caller's
// own expiry uses the server's deadline/cancel texts (byte parity with a
// direct server degrading the same entry); anything else is
// upstream-unavailable (Server.Busy on the wire) — the work never produced
// a response, and re-sending the entry is the client's call.
func shardFault(ctx context.Context, e *core.ScatterEntry, err error) *soap.Fault {
	if ended(ctx) {
		return core.AbandonFault(ctx, e.Service, e.Op)
	}
	return fault.ToSOAP(fault.Upstreamf(
		"no backend available for %s.%s: %v", e.Service, e.Op, err).
		With(fault.KeyOp, e.Service+"."+e.Op))
}

// ended reports whether ctx has ended. An exchange's connection deadline is
// its context's deadline, and its i/o timeout can surface a moment before the
// context's own timer has run: once the deadline has passed, the context is
// let say so.
func ended(ctx context.Context) bool {
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		<-ctx.Done()
	}
	return ctx.Err() != nil
}

// deliver reads a backend's reply to a shard with the client's reader and
// hands each entry's call what it says, releasing the shard's reservation
// first; a call the reply does not answer degrades to a per-item fault. A
// reply the reader refuses as a whole — malformed (a non-200 one is reported
// by its status), a whole-message fault, not a Parallel_Response, an entry no
// call can take — fails the shard. It runs after exchange has returned, to
// keep the exchange's call chain within a new goroutine's first stack.
func (g *Gateway) deliver(ctx context.Context, b *backend, sr *core.ScatterRequest, shard []*core.ScatterEntry, resp *httpx.Response, col resultSink) error {
	reply, err := sr.SplitResponse(resp.Body, shard)
	if f := (*soap.Fault)(nil); err != nil && !errors.As(err, &f) && resp.StatusCode != 200 {
		err = fmt.Errorf("gateway: backend %s answered HTTP %d", b.name, resp.StatusCode)
	}
	if g.cfg.Policy == LeastLoaded {
		b.noteLoad(&resp.Header)
	}
	resp.Release()
	if err != nil {
		return err
	}
	g.fleet.exchanged(b.index, time.Time{}, true)
	g.release(b, len(shard))
	col.Gather(b.index, shard, &reply)
	for k, e := range shard {
		if reply.Segments[k] == nil {
			col.Fail(e.Slot, shardFault(ctx, e, core.NoResponse(e.ID, e.Service, e.Op)))
		}
	}
	return nil
}

// exchange performs one POST of a sub-batch in version v against a backend
// and returns its reply, whatever its status, which the caller releases.
func (g *Gateway) exchange(ctx context.Context, b *backend, v soap.Version, doc []byte) (*httpx.Response, error) {
	b.exchanges.Add(1)
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	extra := make([]string, 0, 8)
	extra = append(extra, "SOAPAction", `""`)
	if budget, ok := budgetLeft(ctx); ok {
		extra = append(extra, core.HeaderDeadline, budget)
	}
	// LeastLoaded routes on the execution time each backend states on its
	// replies; no other policy asks for it.
	if g.cfg.Policy == LeastLoaded {
		extra = append(extra, core.HeaderLoad, "1")
	}
	// A coalesced batch mixes callers and runs under the gateway's own
	// context, so it carries no id.
	if id := trace.FromContext(ctx); id != 0 {
		extra = append(extra, core.HeaderTrace, strconv.FormatUint(id, 10))
	}
	return b.client.PostCtx(ctx, g.ep.Pack(), v.ContentType(), doc, extra...)
}

// relay forwards a request whole to one backend and hands its reply back —
// byte-transparent by construction, and without a copy: the reply aliases
// the backend response's body and inherits its release, so the pooled buffer
// is recycled only after the gateway's transport has written it. GETs,
// passthrough singles and parsed singles that are not coalesced all take it;
// the callers count which kind of forward it was. The backend is sent the
// budget left of the request's deadline, so a live one answers its own
// Server.Timeout first; an exchange the deadline (or the caller) ends anyway
// is answered with that fault, in the request's version v.
func (g *Gateway) relay(ctx context.Context, req *httpx.Request, v soap.Version) *httpx.Response {
	to, _ := g.fleet.pick(time.Now(), g.rr.Add(1)-1, -1, 1)
	b := g.backends[to]
	out := httpx.NewRequest(req.Method, req.Target, req.Body)
	for _, h := range [...]string{"Content-Type", "SOAPAction", core.HeaderTrace} {
		if hv := req.Header.Get(h); hv != "" {
			out.Header.Set(h, hv)
		}
	}
	if budget, ok := budgetLeft(ctx); ok {
		out.Header.Set(core.HeaderDeadline, budget)
	}
	b.exchanges.Add(1)
	b.inflight.Add(1)
	defer func() { b.inflight.Add(-1); g.release(b, 1) }()
	resp, err := b.client.DoCtx(ctx, out)
	if err != nil {
		g.noteFailure(b)
		if ended(ctx) {
			// The relay never learnt the call's operation: name the backend.
			return g.faultResponse(core.EndedFault(ctx, "backend "+b.name+" answered"), v)
		}
		// The one whole-message fault that is no SOAP document: counted in
		// Faults, under no wire code.
		g.tally.Faults.Add(1)
		resp := httpx.NewResponse(502, []byte("backend exchange failed: "+err.Error()+"\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	g.fleet.exchanged(b.index, time.Time{}, true)
	relay := httpx.NewResponse(resp.StatusCode, resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		relay.Header.Set("Content-Type", ct)
	}
	relay.SetRelease(resp.Release)
	return relay
}

// faultResponse answers with a whole-message fault, counted: the gateway's
// one writer of them, for the requests it cannot read, the packed responses
// it cannot assemble, the relays its deadline ends and the coalesced calls
// that fault.
func (g *Gateway) faultResponse(f *soap.Fault, v soap.Version) *httpx.Response {
	g.tally.Faults.Add(1)
	g.tally.Codes.NoteSOAP(f)
	return core.GatewayFaultResponse(f, v)
}

// budgetLeft is the SPI-Deadline a forward under ctx carries, the
// milliseconds left until its deadline; ok is false when none is left.
func budgetLeft(ctx context.Context) (string, bool) {
	if deadline, ok := ctx.Deadline(); ok {
		if budget := time.Until(deadline); budget > 0 {
			return strconv.FormatInt(budget.Milliseconds(), 10), true
		}
	}
	return "", false
}
