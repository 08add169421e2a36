package core

import (
	"bytes"
	"strconv"

	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Cross-client coalescing support for the gateway: the pieces that turn a
// plain single-call envelope into a shardable ScatterEntry and, after the
// synthetic batch comes back, splice its packed-response segment into the
// HTTP response a direct server would have produced for the original call.
//
// The same byte-identity argument as the scatter path applies (see the
// comment atop gateway.go in this package): only an entry's start tag is
// written anew, here without the spi:id that is the one difference between a
// packed-response entry and the direct server's single-response body entry.
// A per-item fault is re-encoded: a packed response carries it in the SOAP
// 1.1 per-item layout, a direct server answers with a whole-message HTTP 500
// fault in the request's version, so the fault the reply reader parsed goes
// out through GatewayFaultResponse, which serializes exactly like the
// server's own faultResponse.

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
		inner: bytes.Clone(d.Content()),
	}
}

// SealID assigns a coalesced entry's slot and correlation id once its
// batch is sealed; BuildSubBatch writes the annotations.
func (e *ScatterEntry) SealID(id int) {
	e.Slot = id
	e.ID = id
}

// SpliceSingleResponse turns one packed-response segment, an operation's
// response, back into the HTTP 200 response a direct server would have
// produced for the same single call: its start tag written anew less the
// spi:id, the bytes inside it spliced, framed under rawHeader (usually nil)
// and declaring decls, as the scatter path frames a reply's segments.
func SpliceSingleResponse(v soap.Version, segment, rawHeader []byte, decls soap.Decls) *httpx.Response {
	tk := xmltext.AcquireTokenizer(segment)
	defer xmltext.ReleaseTokenizer(tk)
	tk.SetReuseTokenAttrs(true)
	tok, err := tk.Next()
	if err != nil || tok.Kind != xmltext.KindStartElement {
		return encodeFailureResponse()
	}
	var content []byte
	if inner := segment[tk.InputOffset():]; !tok.SelfClosing {
		content = inner[:bytes.LastIndexByte(inner, '<')]
	}
	enc := soap.NewStreamEncoder()
	enc.BeginRawHeader(v, rawHeader)
	enc.Emitter().Mark(decls)
	entryAnew(enc.Emitter(), tok.Name, tok.Attrs, -1, content)
	resp, err := encodedResponse(200, v, enc)
	if err != nil {
		return encodeFailureResponse()
	}
	return resp
}

// entryAnew writes a reply entry with its start tag written anew — its
// attributes less spi:id, then spi:id when id is not negative — and content,
// nil for a self-closing entry, spliced.
func entryAnew(em *xmltext.Emitter, name xmltext.Name, attrs []xmltext.Attr, id int, content []byte) {
	em.Start(name)
	for _, a := range attrs {
		if a.Name != attrID {
			em.Attr(a.Name, a.Value)
		}
	}
	if id >= 0 {
		var tmp [24]byte
		em.AttrRaw(attrID, strconv.AppendInt(tmp[:0], int64(id), 10))
	}
	if content != nil {
		em.Raw(content)
	}
	em.End()
}
