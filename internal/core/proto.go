// Package core implements SPI, the SOAP Passing Interface of the paper:
// the pack wire format (Figure 4), the client-side assembler/dispatcher
// (pack many calls into one envelope, route the packed response back to the
// callers), and the server-side dispatcher/assembler running on a staged
// thread-pool architecture (unpack a message into concurrent operation
// executions, pack their responses into one reply).
package core

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Wire-format constants of the SPI pack extension.
const (
	// NSPack is the namespace of the packing elements. The paper's group
	// was at ICT, CAS; the namespace follows their convention.
	NSPack = "http://spi.ict.ac.cn/pack"
	// PrefixPack is the conventional prefix for NSPack.
	PrefixPack = "spi"
	// ElemParallelMethod is the packed-request body element of Figure 4:
	// its children are the individual RPC request elements.
	ElemParallelMethod = "Parallel_Method"
	// ElemParallelResponse is the packed-response body element.
	ElemParallelResponse = "Parallel_Response"
)

var (
	attrID      = xmltext.Name{Prefix: PrefixPack, Local: "id"}
	attrService = xmltext.Name{Prefix: PrefixPack, Local: "service"}
)

// rpcRequest is one service invocation in decoded form.
type rpcRequest struct {
	id      int // correlation id within a packed message (0-based)
	service string
	op      string
	params  []soapenc.Field
}

// faulted is r's outcome when it ends in f.
func (r *rpcRequest) faulted(f *soap.Fault) *rpcResult {
	return &rpcResult{id: r.id, service: r.service, op: r.op, fault: f}
}

// rpcResult is the outcome of one invocation: results or a fault.
type rpcResult struct {
	id      int
	op      string
	service string
	results []soapenc.Field
	fault   *soap.Fault
	headers []*xmldom.Element // response header blocks contributed
}

// isPackedRequest reports whether a body entry is a Parallel_Method element.
func isPackedRequest(el *xmldom.Element) bool {
	return el.Is(NSPack, ElemParallelMethod)
}

// isPackedResponse reports whether a body entry is a Parallel_Response
// element.
func isPackedResponse(el *xmldom.Element) bool {
	return el.Is(NSPack, ElemParallelResponse)
}

// annotate overlays the pack annotations of el — a request entry, a plan
// step, or Parallel_Method itself, whose spi:service is the batch default —
// onto req, preset by the caller to what applies in their absence. They are
// matched by their conventional prefix, so where either appears that prefix
// must resolve to NSPack: under any other binding it is somebody else's
// attribute, neither an id to echo nor a service to route to.
func (req *rpcRequest) annotate(el *xmldom.Element, kind string) *soap.Fault {
	service, hasService := el.Attr(attrService)
	id, hasID := el.Attr(attrID)
	if !hasService && !hasID {
		return nil
	}
	if uri, ok := el.ResolvePrefix(PrefixPack); !ok || uri != NSPack {
		name := attrService
		if !hasService {
			name = attrID
		}
		return soap.ClientFault("%s %q: %s attribute in wrong namespace", kind, el.Name.Local, name)
	}
	if hasService {
		req.service = service
	}
	if hasID {
		n, err := strconv.Atoi(id)
		if err != nil || n < 0 {
			return soap.ClientFault("%s %q: bad spi:id %q", kind, el.Name.Local, id)
		}
		req.id = n
	}
	return nil
}

// packDefaultService is the one precedence chain for the service an entry of
// pm runs on when it names none itself (its own spi:service outranks both,
// in decodeRequestElement): Parallel_Method's spi:service, then the URL's.
// A mis-bound spi:service on pm leaves no default at all, so the entries
// that relied on it fault per item instead of running somewhere unintended.
func packDefaultService(pm *xmldom.Element, urlService string) string {
	def := rpcRequest{service: urlService}
	if def.annotate(pm, "batch") != nil {
		return ""
	}
	return def.service
}

// duplicateIDFault is the whole-message Client fault for a batch in which
// two slots share an effective correlation id (explicit spi:id, else the
// slot, as id reports it): the response would carry the id twice, and the
// client's reply reader refuses such a response wholesale. The
// all-positional batch a Batch sends clears the first loop, allocating nothing.
func duplicateIDFault(n int, id func(slot int) int) *soap.Fault {
	positional := true
	for i := 0; i < n && positional; i++ {
		positional = id(i) == i
	}
	if positional {
		return nil
	}
	seen := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		v := id(i)
		if seen[v] {
			return soap.ClientFault("duplicate spi:id %d", v)
		}
		seen[v] = true
	}
	return nil
}

// decodeRequestElement interprets one RPC request element. defaultService
// is used when the element carries no spi:service attribute (the URL's for
// plain requests, packDefaultService for packed entries); id is the
// positional fallback when no spi:id attribute is present.
func decodeRequestElement(el *xmldom.Element, defaultService string, id int) (*rpcRequest, *soap.Fault) {
	req := &rpcRequest{id: id, service: defaultService, op: el.Name.Local}
	if fault := req.annotate(el, "request"); fault != nil {
		return nil, fault
	}
	if req.service == "" {
		return nil, soap.ClientFault("request %q names no service", el.Name.Local)
	}
	params, err := soapenc.DecodeParams(el)
	if err != nil {
		return nil, soap.ClientFault("request %s.%s: %v", req.service, req.op, err)
	}
	req.params = params
	return req, nil
}

// reply is one response document, read whole off a pooled StreamDecoder into
// a pooled arena: the client-side dispatcher of §3.5. The envelope and its
// trees die with release. Decoded values are plain copies, but a fault's
// Detail is arena-owned and must be detached (detachFault) before it escapes.
type reply struct {
	dec   *soap.StreamDecoder
	arena *xmldom.Arena
	env   *soap.Envelope
	start time.Time // when the read began: the client.unpack span's start
	// slots holds what a Parallel_Response said to each call, and bad the
	// first entry it could not route or decode, in document order.
	slots []replySlot
	bad   error
}

// replySlot is what a Parallel_Response said to one call: its results or its
// fault.
type replySlot struct {
	answered bool
	results  []soapenc.Field
	fault    *soap.Fault
}

// readReply reads body whole. When the Body opens on a Parallel_Response and
// slots is non-nil, each entry is decoded into the slot its spi:id names —
// its position when it carries none — as the entry closes; slots are cleared
// first, so a retried exchange starts clean. Only a malformed document is an
// error here: the caller ranks the rest after it, in the order a whole-message
// fault, a body that is not a Parallel_Response, then bad.
func readReply(body []byte, slots []replySlot) (reply, error) {
	clear(slots)
	r := reply{arena: xmldom.AcquireArena(), slots: slots}
	r.dec = soap.AcquireStreamDecoder(body, r.arena)
	err := r.dec.ReadPreamble()
	if err == nil && slots != nil {
		err = r.readPacked()
	}
	if err == nil {
		r.env, err = r.dec.Finish()
	}
	if err != nil {
		r.release()
		return reply{}, err
	}
	return r, nil
}

// release recycles the decoder and the arena; the envelope is gone after it.
func (r *reply) release() {
	r.dec.Release()
	xmldom.ReleaseArena(r.arena)
}

// readPacked reads the first body entry, routing its children when it is a
// Parallel_Response. Any other entry is left to Finish.
func (r *reply) readPacked() error {
	el, err := r.dec.NextEntryStart()
	if err != nil || el == nil {
		return err
	}
	if !isPackedResponse(el) {
		return r.dec.CompleteEntry(el)
	}
	for pos := 0; ; pos++ {
		entry, err := r.dec.NextChild(el)
		if err != nil || entry == nil {
			return err
		}
		if r.bad == nil {
			r.bad = r.route(entry, pos)
		}
	}
}

// route decodes entry, the pos-th of a Parallel_Response, into its slot. An
// id that names no call of the exchange is as bad as one that is not a
// number, and a second answer to one call as bad as either.
func (r *reply) route(entry *xmldom.Element, pos int) error {
	id := pos
	if v, ok := entry.Attr(attrID); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n >= len(r.slots) {
			return fmt.Errorf("core: bad spi:id %q in packed response", v)
		}
		id = n
	} else if id >= len(r.slots) {
		return fmt.Errorf("core: packed response entry %d has no spi:id and no call at its position", pos)
	}
	s := &r.slots[id]
	if s.answered {
		return fmt.Errorf("core: duplicate spi:id %d in packed response", id)
	}
	s.answered = true
	// A per-item fault is written under the envelope's own prefix, so it
	// lands in whichever envelope namespace the response uses.
	if ns := entry.Namespace(); entry.Name.Local == "Fault" && (ns == soap.NSEnvelope || ns == soap.NSEnvelope12) {
		s.fault = soap.ParseFault(entry)
		return nil
	}
	fields, err := soapenc.DecodeParams(entry)
	if err != nil {
		return fmt.Errorf("core: packed response entry %d: %v", id, err)
	}
	s.results = fields
	return nil
}
