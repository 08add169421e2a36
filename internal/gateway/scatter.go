package gateway

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/soap"
)

// Handle is the gateway's HTTP handler: packed POSTs are scattered across
// the backend pool; everything else (single requests, WSDL GETs) is
// proxied whole to one backend, so the gateway is a drop-in endpoint.
func (g *Gateway) Handle(ctx context.Context, req *httpx.Request) *httpx.Response {
	// The gateway's own management surface: single-call envelopes POSTed to
	// <prefix>Admin are answered by the self-hosted Admin service, not
	// proxied — the gateway's stats and drain state are its own. Packed
	// envelopes are still scattered even if they carry Admin entries, so a
	// monitoring client can pack GetStats across the backend fleet.
	if g.adminSrv != nil && g.isAdminTarget(req.Target) {
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
	if req.Method == "GET" {
		if g.cfg.DebugEndpoints && strings.HasPrefix(req.Target, debugPathPrefix) {
			return g.handleDebug(req)
		}
		return g.relay(ctx, req, soap.V11)
	}
	if req.Method != "POST" {
		resp := httpx.NewResponse(405, []byte("SOAP endpoint: POST only\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	defaultService, ok := g.serviceFromPath(req.Target)
	if !ok {
		resp := httpx.NewResponse(404, []byte("no such endpoint\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}

	// Zero-copy fast path: a single-call envelope headed for the proxy
	// path anyway is spliced through a backend without being parsed here.
	// Packed envelopes (byte sniff) and coalescing deployments fall
	// through to the parsed path below.
	if g.passthroughEligible(req) {
		g.envelopes.Inc()
		g.proxied.Inc()
		g.passthroughs.Inc()
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
		g.faults.Inc()
		g.faultCodes.NoteSOAP(parseFault)
		v := soap.V11
		if sr != nil {
			v = sr.Version
		}
		return core.GatewayFaultResponse(parseFault, v)
	}
	g.envelopes.Inc()
	if !sr.Packed {
		// Single call: try to merge it into a forming cross-client batch.
		// A nil return means it was not coalescible (or coalescing is off)
		// and falls through to the byte-transparent proxy path.
		if resp := g.coalesce(ctx, req, sr); resp != nil {
			return resp
		}
		g.proxied.Inc()
		return g.relay(ctx, req, sr.Version)
	}
	g.packed.Inc()
	return g.scatterGather(ctx, sr)
}

// serviceFromPath resolves the target path against the prefix: the bare
// prefix is the pack endpoint (no default service), a sub-path names the
// default service for unannotated entries — same routing as the server.
func (g *Gateway) serviceFromPath(target string) (string, bool) {
	if i := strings.IndexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	bare := strings.TrimSuffix(g.cfg.PathPrefix, "/")
	if target == bare || target == g.cfg.PathPrefix {
		return "", true
	}
	if !strings.HasPrefix(target, g.cfg.PathPrefix) {
		return "", false
	}
	return strings.TrimPrefix(target, g.cfg.PathPrefix), true
}

// isAdminTarget reports whether the target names the gateway's own Admin
// endpoint (query string ignored, so ?wsdl still resolves to it).
func (g *Gateway) isAdminTarget(target string) bool {
	if i := strings.IndexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	return target == g.cfg.PathPrefix+"Admin"
}

// packTarget is the URL sub-batches POST to on backends.
func (g *Gateway) packTarget() string {
	return strings.TrimSuffix(g.cfg.PathPrefix, "/")
}

// scatterGather shards the parsed entries, fans the sub-batches out, and
// writes each entry of the packed response as its shard's reply arrives; the
// entries still unanswered at the request's deadline are degraded.
func (g *Gateway) scatterGather(ctx context.Context, sr *core.ScatterRequest) *httpx.Response {
	col := sr.NewCollector()
	for _, e := range sr.Entries {
		if e.Fault != nil {
			g.faultCodes.NoteSOAP(e.Fault)
			col.Fail(e.Slot, e.Fault)
		}
	}

	for _, sh := range g.buildSubBatches(sr, g.assign(sr.Entries), col) {
		g.scattered.Inc()
		go g.sendShard(ctx, sh, sr, col)
	}

	resp, itemFaults, err := col.Assemble(ctx, sr.Version, func(slot int) *soap.Fault {
		g.degraded.Inc()
		// The fault a direct server abandoning the same entry answers with.
		df := core.AbandonFault(ctx, sr.Entries[slot].Service, sr.Entries[slot].Op)
		g.faultCodes.NoteSOAP(df)
		return df
	})
	if err != nil {
		g.faults.Inc()
		af := soap.ServerFault("assembling packed response: %v", err)
		g.faultCodes.NoteSOAP(af)
		return core.GatewayFaultResponse(af, sr.Version)
	}
	g.itemFaults.Add(int64(itemFaults))
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
	// AddHeader records the raw response-header section from the backend
	// that answered, keyed by backend index. Called before the shard's
	// Deliver calls.
	AddHeader(backend int, raw []byte)
	// Declare notes, before the shard's Deliver calls, what the reply's
	// Envelope declared (SOAP-ENC, xsi, xsd, its envelope prefix), so
	// whatever frames its segments declares it too.
	Declare(r core.GatherReply)
	// Deliver hands a slot its raw packed-response segment.
	Deliver(slot int, segment []byte)
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
				g.faultCodes.NoteSOAP(f)
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
	b, shard := sh.b, sh.entries
	// assign reserved these entries on b; release from whichever backend
	// holds the reservation (failover moves it) once the shard's outcome is
	// known and before its slots resolve: the slots resolving is what lets
	// the response go, and the next request's assign must not still see it.
	reserved := true
	release := func() {
		if reserved {
			reserved = false
			g.release(b, len(shard))
		}
	}
	defer release()
	idem := g.allIdempotent(shard)
	p := g.cfg.Retry
	attempts := p.Attempts()
	for attempt := 1; ; attempt++ {
		resp, err := g.exchange(ctx, b, sr.Version, sh.doc)
		if err == nil {
			if err = g.deliver(b, sr, shard, resp, col, release); err == nil {
				return
			}
		}
		g.noteFailure(b)
		if attempt >= attempts || ctx.Err() != nil || !core.RetryableError(err, idem) ||
			p.Wait(ctx, attempt) != nil {
			release()
			for _, e := range shard {
				sf := shardFault(ctx, e, err)
				g.faultCodes.NoteSOAP(sf)
				col.Fail(e.Slot, sf)
			}
			return
		}
		if next := g.pickBackend(b); next != nil && next != b {
			b.failovers.Inc()
			g.failovers.Inc()
			next.entriesInflight.Add(int64(len(shard)))
			g.release(b, len(shard))
			b = next
		}
	}
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

// deliver splits a backend's reply to a shard into its per-entry segments and
// hands each to its entry's slot. It runs after exchange has returned, to keep
// the exchange's call chain within a new goroutine's first stack.
func (g *Gateway) deliver(b *backend, sr *core.ScatterRequest, shard []*core.ScatterEntry, resp *httpx.Response, col resultSink, release func()) error {
	reply, err := sr.SplitResponse(resp.Body)
	if g.cfg.Policy == LeastLoaded {
		b.noteLoad(&resp.Header)
	}
	resp.Release()
	if err != nil {
		return err
	}
	if len(reply.IDs) != len(shard) {
		return fmt.Errorf("gateway: backend %s returned %d entries for %d requests", b.name, len(reply.IDs), len(shard))
	}
	// The backend wrote its entries as they completed: put each where its
	// spi:id says, refusing a reply that does not answer each entry once.
	for k, e := range shard {
		j := k + slices.Index(reply.IDs[k:], e.ID)
		if j < k {
			return fmt.Errorf("gateway: backend %s did not answer spi:id %d exactly once", b.name, e.ID)
		}
		reply.IDs[k], reply.IDs[j] = reply.IDs[j], reply.IDs[k]
		reply.Segments[k], reply.Segments[j] = reply.Segments[j], reply.Segments[k]
	}
	b.noteSuccess()
	release()
	col.AddHeader(b.index, reply.RawHeader)
	col.Declare(reply)
	for k, e := range shard {
		col.Deliver(e.Slot, reply.Segments[k])
	}
	return nil
}

// exchange performs one POST of a sub-batch in version v against a backend
// and returns its 200 reply, which the caller releases.
func (g *Gateway) exchange(ctx context.Context, b *backend, v soap.Version, doc []byte) (*httpx.Response, error) {
	b.exchanges.Inc()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	extra := make([]string, 0, 6)
	extra = append(extra, "SOAPAction", `""`)
	if budget, ok := budgetLeft(ctx); ok {
		extra = append(extra, core.HeaderDeadline, budget)
	}
	// LeastLoaded routes on the execution time each backend states on its
	// replies; no other policy asks for it.
	if g.cfg.Policy == LeastLoaded {
		extra = append(extra, core.HeaderLoad, "1")
	}
	resp, err := b.client.PostCtx(ctx, g.packTarget(), v.ContentType(), doc, extra...)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		defer resp.Release()
		// A whole-message fault for a gateway-built sub-batch (the backend
		// rejected what we sent); surface it for retry classification.
		if f := core.DecodeBackendFault(resp.Body); f != nil {
			return nil, f
		}
		return nil, fmt.Errorf("gateway: backend %s answered HTTP %d", b.name, resp.StatusCode)
	}
	return resp, nil
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
	b := g.pickBackend(nil)
	if b == nil {
		resp := httpx.NewResponse(503, []byte("no backend available\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	out := httpx.NewRequest(req.Method, req.Target, req.Body)
	for _, h := range [...]string{"Content-Type", "SOAPAction", core.HeaderTrace} {
		if hv := req.Header.Get(h); hv != "" {
			out.Header.Set(h, hv)
		}
	}
	if budget, ok := budgetLeft(ctx); ok {
		out.Header.Set(core.HeaderDeadline, budget)
	}
	b.exchanges.Inc()
	b.inflight.Add(1)
	b.entriesInflight.Add(1)
	defer func() { b.inflight.Add(-1); g.release(b, 1) }()
	resp, err := b.client.DoCtx(ctx, out)
	if err != nil {
		g.noteFailure(b)
		g.faults.Inc()
		if ended(ctx) {
			// The relay never learnt the call's operation: name the backend.
			f := core.EndedFault(ctx, "backend "+b.name+" answered")
			g.faultCodes.NoteSOAP(f)
			return core.GatewayFaultResponse(f, v)
		}
		resp := httpx.NewResponse(502, []byte("backend exchange failed: "+err.Error()+"\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	b.noteSuccess()
	relay := httpx.NewResponse(resp.StatusCode, resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		relay.Header.Set("Content-Type", ct)
	}
	relay.SetRelease(resp.Release)
	return relay
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
