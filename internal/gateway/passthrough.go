package gateway

import (
	"bytes"
	"context"

	"repro/internal/core"
	"repro/internal/httpx"
)

// Zero-copy passthrough: the single-call fast path.
//
// A single-call envelope that will be proxied whole to one backend does
// not need the gateway to understand it — the backend parses it anyway and
// produces exactly the bytes a direct server would. When Passthrough is
// enabled the gateway splices such requests: the request body goes to the
// backend as-is (headers rewritten only), and the backend's response body
// is aliased — not copied — into the relay, its pooled buffer's release
// chained to the relay so the transport write finishes before recycling.
// Per request this saves the envelope parse (ParseScatterRequest), the
// response-body copy, and every allocation between them.
//
// The gate is conservative: the path engages only when coalescing is off
// (the coalescer needs parsed entries) and the body does not look packed.
// "Looks packed" is a byte sniff for the Parallel_Method element name; a
// payload that merely mentions the name false-positives into the parsed
// path, which is always correct, just slower. A real packed request can
// never sniff negative — the element name must appear literally.

// packedSniff is the byte pattern whose absence proves a body is not a
// packed request.
var packedSniff = []byte(core.ElemParallelMethod)

// passthroughEligible reports whether the request may take the splice path.
func (g *Gateway) passthroughEligible(req *httpx.Request) bool {
	return g.cfg.Passthrough && g.coalescer == nil && !bytes.Contains(req.Body, packedSniff)
}

// passthrough splices one single-call exchange through a healthy backend.
// A nil return means the caller must fall back to the parsed path (no
// backend available is still handled here — that answer needs no parse
// either).
func (g *Gateway) passthrough(ctx context.Context, req *httpx.Request) *httpx.Response {
	b := g.pickBackend(nil)
	if b == nil {
		g.envelopes.Inc()
		g.proxied.Inc()
		g.passthroughs.Inc()
		resp := httpx.NewResponse(503, []byte("no backend available\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}

	out := httpx.NewRequest(req.Method, req.Target, req.Body)
	for _, h := range [...]string{"Content-Type", "SOAPAction", core.HeaderDeadline, core.HeaderTrace} {
		if v := req.Header.Get(h); v != "" {
			out.Header.Set(h, v)
		}
	}
	b.exchanges.Inc()
	b.inflight.Add(1)
	b.entriesInflight.Add(1)
	defer func() { b.inflight.Add(-1); b.entriesInflight.Add(-1) }()

	g.envelopes.Inc()
	g.proxied.Inc()
	g.passthroughs.Inc()
	resp, err := b.client.DoCtx(ctx, out)
	if err != nil {
		b.noteFailure(g.cfg.FailureThreshold, g.cfg.ReprobeAfter)
		g.faults.Inc()
		resp := httpx.NewResponse(502, []byte("backend exchange failed: "+err.Error()+"\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	b.noteSuccess()

	// The zero-copy splice: the relay aliases the backend response's body
	// and inherits its release, so the buffer is recycled only after the
	// gateway's transport finishes writing it to the client.
	relay := httpx.NewResponse(resp.StatusCode, resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		relay.Header.Set("Content-Type", ct)
	}
	relay.SetRelease(resp.Release)
	return relay
}
