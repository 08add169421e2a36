package core

import (
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// DOM-free packed assembly: the one writer of Parallel_Response. The server's
// dispatcher of batches and plans and the gateway's gather write their entries
// — results, per-item faults, segments spliced from backend replies — straight
// into a pooled emitter, in the order their work completes (collector). Tests
// pin the entries to the fragments under testdata/parity/ under randomized
// completion orders, and the bytes under slot order.

var (
	namePackResponse = xmltext.Name{Prefix: PrefixPack, Local: ElemParallelResponse}
	namePackMethod   = xmltext.Name{Prefix: PrefixPack, Local: ElemParallelMethod}
	nameXmlnsSpi     = xmltext.Name{Prefix: "xmlns", Local: PrefixPack}
	nameXmlnsM       = xmltext.Name{Prefix: "xmlns", Local: "m"}
)

// packedAssembler incrementally encodes Parallel_Response entries into a
// pooled body fragment, each as its result comes in. The fragment is kept
// separate from the envelope emitter because response headers (contributed by
// handlers) are only known once every worker has finished.
type packedAssembler struct {
	em         *xmltext.Emitter
	defaultNS  string        // xmlns:m declared on Parallel_Response; "" for none
	encDur     time.Duration // time spent encoding, for phase attribution
	itemFaults int
	faultCodes *fault.Counters // server's per-wire-code tallies; nil elsewhere
}

// newPackedAssembler opens a Parallel_Response under appendRequestEntry's
// framing rule, in the response direction: the batch default is the xmlns:m
// the request's Parallel_Method declared (requestDefaultNS), and an entry
// restates its namespace only where it differs. With no default every entry
// declares its own, so a client that never heard of the rule is answered as
// it always was.
func newPackedAssembler(defaultNS string) *packedAssembler {
	a := &packedAssembler{em: xmltext.AcquireEmitter(), defaultNS: defaultNS}
	a.em.Start(namePackResponse)
	a.em.Attr(nameXmlnsSpi, NSPack)
	if defaultNS != "" {
		a.em.Attr(nameXmlnsM, defaultNS)
	}
	return a
}

// requestDefaultNS is the response default a packed request asks for: the
// xmlns:m on Parallel_Method itself, not one inherited from further out, so
// that server, gateway and backend all read the same default off one start tag.
func requestDefaultNS(pm *xmldom.Element) string {
	return pm.AttrValue(nameXmlnsM)
}

// release returns the fragment buffer to the pool. Idempotent: finish sets
// em to nil once ownership of the bytes has moved to the response encoder.
func (a *packedAssembler) release() {
	if a.em != nil {
		xmltext.ReleaseEmitter(a.em)
		a.em = nil
	}
}

// encodeEntry writes one response entry: a per-item fault, or the operation's
// response under the batch default. Every entry carries spi:id: clients route
// by it.
func (a *packedAssembler) encodeEntry(r *rpcResult, serviceNS func(service string) string) error {
	if r.fault != nil {
		a.fault(r.id, r.fault)
		return nil
	}
	start := time.Now()
	err := appendResponseEntry(a.em, r, serviceNS(r.service), a.defaultNS, r.id)
	a.encDur += time.Since(start)
	return err
}

// appendResponseEntry streams <m:opResponse> with r's results — the one writer
// of every operation response this server sends. xmlns:m goes in front where
// ns is not the default in scope, then spi:id unless id is negative. A single
// call's response is the degenerate case, as in appendRequestEntry: no default
// and no id, since there is no batch to route within.
func appendResponseEntry(em *xmltext.Emitter, r *rpcResult, ns, defaultNS string, id int) error {
	var tmp [24]byte
	var local [96]byte
	op := append(local[:0], r.op...)
	op = append(op, "Response"...)
	em.Start(xmltext.Name{Prefix: "m", Local: xmltext.Intern(op)})
	if ns != defaultNS {
		em.Attr(nameXmlnsM, ns)
	}
	if id >= 0 {
		em.AttrRaw(attrID, strconv.AppendInt(tmp[:0], int64(id), 10))
	}
	if err := soapenc.EncodeParamsTo(em, r.results); err != nil {
		return err
	}
	em.End()
	return nil
}

// fault writes a per-item fault entry. Per-item faults use the SOAP 1.1
// layout regardless of envelope version.
func (a *packedAssembler) fault(id int, f *soap.Fault) {
	start := time.Now()
	a.itemFaults++
	if a.faultCodes != nil {
		a.faultCodes.NoteSOAP(f)
	}
	var tmp [24]byte
	f.AppendElementFor(a.em, soap.V11, xmltext.Attr{Name: attrID,
		Value: xmltext.Intern(strconv.AppendInt(tmp[:0], int64(id), 10))})
	a.encDur += time.Since(start)
}

// finish closes the Parallel_Response fragment, wraps it in an envelope
// with the response headers, and returns the HTTP response backed by a
// pooled buffer that is released after the bytes hit the wire. Header blocks
// come as elements or, from the gateway, as bytes cut out of backend replies
// whose envelope prefixes the frame binds too.
func (a *packedAssembler) finish(v soap.Version, headers []*xmldom.Element, rawHeader []byte, prefixes []string) (*httpx.Response, error) {
	start := time.Now()
	defer func() { a.encDur += time.Since(start) }()
	a.em.End() // Parallel_Response
	if err := a.em.Finish(); err != nil {
		return nil, err
	}
	enc := soap.NewStreamEncoder()
	frameFragment(enc, v, headers, rawHeader, a.em)
	for _, p := range prefixes {
		enc.Alias(p)
	}
	a.release()
	return encodedResponse(200, v, enc)
}

// frameFragment opens in enc the envelope around a finished body fragment:
// the header blocks — elements, or bytes already serialized — then the
// fragment's bytes, and whatever on-demand declarations its writer marked for
// Finish to make. The server frames a Parallel_Response this way once the
// handlers' header blocks are known, a client with header providers its
// request body once they have signed it.
func frameFragment(enc *soap.StreamEncoder, v soap.Version, headers []*xmldom.Element, rawHeader []byte, frag *xmltext.Emitter) {
	if rawHeader != nil {
		enc.BeginRawHeader(v, rawHeader)
	} else {
		enc.Begin(v, headers)
	}
	enc.Emitter().Mark(frag.Marked())
	enc.Emitter().Raw(frag.Bytes())
}

// encodedResponse finishes enc's document as the body of an HTTP response in
// version v. The body aliases enc's pooled buffer, which the transport
// releases (Response.Release) once the bytes have been written.
func encodedResponse(status int, v soap.Version, enc *soap.StreamEncoder) (*httpx.Response, error) {
	body, err := enc.Finish()
	if err != nil {
		enc.Release()
		return nil, err
	}
	resp := httpx.NewResponse(status, body)
	resp.Header.Set("Content-Type", v.ContentType())
	resp.SetRelease(enc.Release)
	return resp, nil
}

// appendRequestEntry streams one RPC request element — the one writer of
// every request this client sends — under the framing rule: an entry carries
// only what differs from def, the default its batch declared on
// Parallel_Method (xmlns:m, spi:service), and never spi:id, because ids are
// positional. A single call is the degenerate case, a zero def and no
// service: it declares its own namespace and is addressed by URL.
func appendRequestEntry(em *xmltext.Emitter, e, def *batchEntry) error {
	em.Start(xmltext.Name{Prefix: "m", Local: e.op})
	if e.ns != def.ns {
		em.Attr(nameXmlnsM, e.ns)
	}
	if e.service != def.service {
		em.Attr(attrService, e.service)
	}
	if err := soapenc.EncodeParamsTo(em, e.params); err != nil {
		return err
	}
	em.End()
	return nil
}

// detachFault deep-copies a fault's arena-owned detail so the fault can
// outlive the response arena it was decoded from.
func detachFault(f *soap.Fault) *soap.Fault {
	if f != nil && f.Detail != nil {
		f.Detail = f.Detail.Clone()
	}
	return f
}
