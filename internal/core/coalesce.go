package core

import (
	"bytes"
	"strconv"

	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/xmldom"
)

// Cross-client coalescing support for the gateway: the pieces that turn a
// plain single-call envelope into a shardable ScatterEntry and, after the
// synthetic batch comes back, splice its packed-response segment into the
// HTTP response a direct server would have produced for the original call.
//
// The same byte-identity argument as the scatter path applies (see the
// comment atop gateway.go in this package): the segment bytes are never
// re-serialized. A packed-response entry differs from the direct server's
// single-response body entry in exactly one way — the trailing
// spi:id="N" attribute on its root start tag (both the DOM assembler and
// the streaming encoder emit xmlns:m first, then spi:id) — so removing
// that attribute and re-framing the segment in a fresh envelope reproduces
// the direct response byte for byte. Per-item faults are the one place a
// re-encode is unavoidable: packed responses carry them in the SOAP 1.1
// per-item layout while a direct server answers with a whole-message
// HTTP 500 fault in the request's version, so the fault is decoded from
// the segment and re-rendered through the same GatewayFaultResponse the
// scatter path uses (which serializes exactly like the server's own
// faultResponse).

// coalescibleEntry prepares el, the one entry of a single call read to its
// end by d, for a coalesced batch. A nil return means the call must NOT be
// coalesced: it carries header blocks (header processing and response-header
// attribution are per-envelope), is a packed-response or plan body, or its
// request element does not decode. All of those are proxied whole, which
// trivially preserves whatever the direct server would answer.
func coalescibleEntry(d *soap.StreamDecoder, el *xmldom.Element, service string, reg *registry.Container) *ScatterEntry {
	env := d.Envelope()
	if len(env.Header) > 0 || isPackedResponse(el) || isPlanBody(el) {
		return nil
	}
	if service == "" && reg != nil {
		if svc, ok := reg.ServiceByNamespace(el.Namespace()); ok {
			service = svc.Name
		}
	}
	req, fault := decodeRequestElement(el, service, 0)
	if fault != nil {
		return nil
	}
	// The entry brings along the declarations in scope around it that the
	// synthetic batch's own document does not make, so it resolves there as
	// it did here whatever its neighbours declare. It parks beyond its
	// handler, so its bytes are copied off the request body. Its slot and id
	// are assigned at flush time via SealID, once its place in its batch is
	// known.
	return &ScatterEntry{
		Service: req.service, Op: req.op, name: el.Name,
		attrs: subBatchScope(ownAttrs(el.Attrs), el.Parent, env.Version, false),
		inner: bytes.Clone(innerSpan(d.BodySpans()[0])),
	}
}

// SealID assigns a coalesced entry's slot and correlation id once its
// batch is sealed; BuildSubBatch writes the annotations.
func (e *ScatterEntry) SealID(id int) {
	e.Slot = id
	e.ID = id
}

// entryIDAttr is the serialized spi:id attribute prefix inside a start
// tag. The emitter always double-quotes attribute values.
var entryIDAttr = []byte(` ` + PrefixPack + `:id="`)

// StripEntryID returns the segment with the spi:id attribute removed from
// its root start tag, which is the only byte-level difference between a
// packed-response entry and the direct server's single-response body
// entry. A segment with no spi:id is returned unchanged.
func StripEntryID(segment []byte) []byte {
	at, end := idSpan(segment)
	if at < 0 {
		return segment
	}
	out := make([]byte, 0, len(segment)-(end-at))
	out = append(out, segment[:at]...)
	return append(out, segment[end:]...)
}

// entryID is the spi:id a segment carries, -1 when it carries none.
func entryID(segment []byte) int {
	at, end := idSpan(segment)
	if at < 0 {
		return -1
	}
	id, err := strconv.Atoi(string(segment[at+len(entryIDAttr) : end-1]))
	if err != nil {
		return -1
	}
	return id
}

// idSpan locates the spi:id attribute, segment[at:end], on the segment's root
// start tag; at is -1 when there is none. Segments come from the server's own
// emitter (attribute values double-quoted, namespace URIs attribute-safe), so
// a plain byte scan bounded by the root tag is exact.
func idSpan(segment []byte) (at, end int) {
	gt, _, _, err := scanTag(segment, 0)
	if err != nil {
		return -1, 0
	}
	at = bytes.Index(segment[:gt], entryIDAttr)
	if at < 0 {
		return -1, 0
	}
	q := bytes.IndexByte(segment[at+len(entryIDAttr):gt], '"')
	if q < 0 {
		return -1, 0
	}
	return at, at + len(entryIDAttr) + q + 1
}

// IsEntryFault reports whether a stripped segment is a per-item fault
// entry, <P:Fault under any prefix P, rather than an operation response.
func IsEntryFault(segment []byte) bool {
	return entryFaultPrefix(segment) != nil
}

// entryFaultPrefix returns P of a segment opening <P:Fault, nil for any other.
func entryFaultPrefix(segment []byte) []byte {
	if end := bytes.IndexAny(segment, " />"); end > 0 {
		p, local, _ := bytes.Cut(segment[1:end], []byte(":"))
		if segment[0] == '<' && len(p) > 0 && string(local) == "Fault" {
			return p
		}
	}
	return nil
}

// DecodeEntryFault decodes a per-item fault segment by re-homing it in a
// synthetic envelope that binds the segment's own prefix. Per-item faults
// always use the SOAP 1.1 layout regardless of the batch's envelope
// version, so the synthetic envelope is SOAP 1.1. Nil when the segment
// does not parse as a fault.
func DecodeEntryFault(segment []byte) *soap.Fault {
	p := entryFaultPrefix(segment)
	if p == nil {
		return nil
	}
	doc := spell(nil, `<*:Envelope xmlns:*="`+soap.NSEnvelope+`"><*:Body>`, p)
	doc = spell(append(doc, segment...), `</*:Body></*:Envelope>`, p)
	env, err := soap.Decode(bytes.NewReader(doc))
	if err != nil {
		return nil
	}
	return detachFault(env.Fault())
}

// SpliceSingleResponse turns one packed-response segment back into the
// HTTP response a direct server would have produced for the same single
// call. Operation responses become a 200 envelope framed around the raw
// segment bytes (rawHeader, usually nil, splices the backend's response
// header section in, as the scatter path does). Per-item fault segments
// become the whole-message HTTP 500 fault in the request's version —
// rendered through the same encoder as the server's own faultResponse, so
// the bytes match a direct server faulting the same call. The second
// return value reports that fault case. decls is what the Envelope of the
// reply the segment was cut from declared on demand (GatherReply.Decls), so
// this one declares it too.
func SpliceSingleResponse(v soap.Version, segment, rawHeader []byte, decls soap.Decls) (*httpx.Response, bool) {
	seg := StripEntryID(segment)
	if IsEntryFault(seg) {
		f := DecodeEntryFault(seg)
		if f == nil {
			f = soap.ServerFault("gateway: undecodable fault entry from backend")
		}
		return GatewayFaultResponse(f, v), true
	}
	enc := soap.NewStreamEncoder()
	enc.BeginRawHeader(v, rawHeader)
	enc.Emitter().Mark(decls)
	enc.Emitter().Raw(seg)
	resp, err := encodedResponse(200, v, enc)
	if err != nil {
		return encodeFailureResponse(), true
	}
	return resp, false
}
