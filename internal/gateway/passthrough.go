package gateway

import (
	"bytes"
	"strings"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/soap"
)

// Zero-copy passthrough: the single-call fast path.
//
// A single-call envelope that will be proxied whole to one backend does
// not need the gateway to understand it — the backend parses it anyway and
// produces exactly the bytes a direct server would. When Passthrough is
// enabled the gateway hands such requests unread to relay, the zero-copy
// forward every whole request takes: the request body goes to the backend
// as-is (headers rewritten only), and the backend's response body is aliased
// — not copied — into the reply. Per request this saves the envelope parse
// (ParseScatterRequest) and every allocation it makes.
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

// contentVersion is the SOAP version an unread request's Content-Type names:
// SOAP 1.2 for application/soap+xml, else SOAP 1.1.
func contentVersion(req *httpx.Request) soap.Version {
	ct := strings.ToLower(strings.TrimSpace(req.Header.Get("Content-Type")))
	if strings.HasPrefix(ct, "application/soap+xml") {
		return soap.V12
	}
	return soap.V11
}
