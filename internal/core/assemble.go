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

// DOM-free packed assembly. buildPackedResponse (still the plan
// dispatcher's assembler) builds a Parallel_Response element tree per
// message and serializes it once at the end; the streaming assembler here
// writes the same bytes directly into a pooled emitter, one entry at a
// time, as workers complete. Differential tests pin the two byte-identical
// under randomized worker completion orders.

var (
	namePackResponse = xmltext.Name{Prefix: PrefixPack, Local: ElemParallelResponse}
	namePackMethod   = xmltext.Name{Prefix: PrefixPack, Local: ElemParallelMethod}
	nameXmlnsSpi     = xmltext.Name{Prefix: "xmlns", Local: PrefixPack}
	nameXmlnsM       = xmltext.Name{Prefix: "xmlns", Local: "m"}
)

// packedAssembler incrementally encodes Parallel_Response entries into a
// pooled body fragment. Entries are written in slot order; next is the head
// of the reorder window — the first slot whose result has not been encoded
// yet. The fragment is kept separate from the envelope emitter because
// response headers (contributed by handlers) are only known once every
// worker has finished.
type packedAssembler struct {
	em         *xmltext.Emitter
	next       int           // reorder-window head: first unencoded slot
	encDur     time.Duration // time spent encoding, for phase attribution
	itemFaults int
	faultCodes *fault.Counters // server's per-wire-code tallies; nil in tests
	failed     error           // first soapenc error; encoding stops once set
}

func newPackedAssembler() *packedAssembler {
	a := &packedAssembler{em: xmltext.AcquireEmitter()}
	a.em.Start(namePackResponse)
	a.em.Attr(nameXmlnsSpi, NSPack)
	return a
}

// release returns the fragment buffer to the pool. Idempotent: finish sets
// em to nil once ownership of the bytes has moved to the response encoder.
func (a *packedAssembler) release() {
	if a.em != nil {
		xmltext.ReleaseEmitter(a.em)
		a.em = nil
	}
}

// drain encodes every contiguous completed slot at the front of the
// reorder window. Slots are write-once, so the pointer read under the
// collector lock stays valid while encoding happens outside it.
func (a *packedAssembler) drain(col *streamCollector, serviceNS func(service string) string) {
	if a.failed != nil {
		return
	}
	for {
		col.mu.Lock()
		var r *rpcResult
		if a.next < len(col.results) {
			r = col.results[a.next]
		}
		col.mu.Unlock()
		if r == nil {
			return
		}
		if err := a.encodeEntry(r, serviceNS); err != nil {
			a.failed = err
			return
		}
		a.next++
	}
}

// encodeEntry writes one response entry, byte-identical to the
// buildPackedResponse child for the same result: a per-item SOAP 1.1 Fault
// or <m:opResponse xmlns:m="ns" spi:id="..">, attributes in DOM SetAttr
// order.
func (a *packedAssembler) encodeEntry(r *rpcResult, serviceNS func(service string) string) error {
	start := time.Now()
	var tmp [24]byte
	id := xmltext.Intern(strconv.AppendInt(tmp[:0], int64(r.id), 10))
	if r.fault != nil {
		a.itemFaults++
		if a.faultCodes != nil {
			a.faultCodes.NoteSOAP(r.fault)
		}
		// Per-item faults use the SOAP 1.1 layout regardless of envelope
		// version, as Fault.Element does.
		r.fault.AppendElementFor(a.em, soap.V11, xmltext.Attr{Name: attrID, Value: id})
		a.encDur += time.Since(start)
		return nil
	}
	var local [96]byte
	op := append(local[:0], r.op...)
	op = append(op, "Response"...)
	a.em.Start(xmltext.Name{Prefix: "m", Local: xmltext.Intern(op)})
	a.em.Attr(nameXmlnsM, serviceNS(r.service))
	a.em.Attr(attrID, id)
	err := soapenc.EncodeParamsTo(a.em, r.results)
	if err == nil {
		a.em.End()
	}
	a.encDur += time.Since(start)
	return err
}

// finish closes the Parallel_Response fragment, wraps it in an envelope
// with the response headers, and returns the HTTP response backed by a
// pooled buffer that is released after the bytes hit the wire.
func (a *packedAssembler) finish(v soap.Version, headers []*xmldom.Element) (*httpx.Response, error) {
	start := time.Now()
	a.em.End() // Parallel_Response
	if err := a.em.Finish(); err != nil {
		a.encDur += time.Since(start)
		return nil, err
	}
	enc := soap.NewStreamEncoder()
	enc.Begin(v, headers)
	enc.Emitter().Raw(a.em.Bytes())
	body, err := enc.Finish()
	a.release()
	if err != nil {
		enc.Release()
		a.encDur += time.Since(start)
		return nil, err
	}
	resp := httpx.NewResponse(200, body)
	resp.Header.Set("Content-Type", v.ContentType())
	resp.SetRelease(enc.Release)
	a.encDur += time.Since(start)
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
