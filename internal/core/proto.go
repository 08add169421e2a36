// Package core implements SPI, the SOAP Passing Interface of the paper:
// the pack wire format (Figure 4), the client-side assembler/dispatcher
// (pack many calls into one envelope, route the packed response back to the
// callers), and the server-side dispatcher/assembler running on a staged
// thread-pool architecture (unpack a message into concurrent operation
// executions, pack their responses into one reply).
package core

import (
	"bytes"
	"fmt"
	"slices"
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
// a pooled arena: the client-side dispatcher of §3.5, and the gateway's
// reading of a backend's reply to a sub-batch. The envelope and its trees die
// with release. Decoded values are plain copies, but a fault's Detail is
// arena-owned and must be detached (detachFault) before it escapes.
type reply struct {
	dec   *soap.StreamDecoder
	arena *xmldom.Arena
	env   *soap.Envelope
	start time.Time // when the read began: the client.unpack span's start
	// slots holds what a Parallel_Response said to each of a client's calls,
	// or with gathering set gather to each call of a gateway's sub-batch; bad
	// is the first entry neither could take, in document order.
	slots     []replySlot
	gather    GatherReply
	gathering bool
	bad       error
}

// replySlot is what a Parallel_Response said to one call: its results, its
// fault, or why its entry's values do not decode.
type replySlot struct {
	answered bool
	results  []soapenc.Field
	fault    *soap.Fault
	err      error
}

// readReply reads body whole into r, routing each Parallel_Response entry as
// it closes into slots, cleared first so a retried exchange starts clean, or
// with gathering set into gather. Only a malformed document is an error here,
// and then r holds nothing to release: packedErr ranks the rest.
func readReply(body []byte, r reply) (reply, error) {
	clear(r.slots)
	r.arena = xmldom.AcquireArena()
	r.dec = soap.AcquireStreamDecoder(body, r.arena)
	err := r.dec.ReadPreamble()
	if err == nil && (r.slots != nil || r.gathering) {
		err = r.readPacked()
	}
	if err == nil {
		r.env, err = r.dec.Finish()
	}
	if err != nil {
		r.release()
		return reply{}, fmt.Errorf("core: decoding response: %w", err)
	}
	return r, nil
}

// release recycles the decoder and the arena; the envelope is gone after it.
func (r *reply) release() {
	r.dec.Release()
	xmldom.ReleaseArena(r.arena)
}

// readPacked reads the first body entry, routing its children when it is a
// Parallel_Response. Any other entry is left to Finish. The gateway splices
// the entries as bytes, so it builds the tree of a fault entry alone.
func (r *reply) readPacked() error {
	el, err := r.dec.NextEntryStart()
	if err != nil || el == nil {
		return err
	}
	if !isPackedResponse(el) {
		return r.dec.CompleteEntry(el)
	}
	var tree func(*xmldom.Element) bool // nil: every entry's
	if r.gathering {
		tree = isEntryFault
	}
	for pos := 0; ; pos++ {
		entry, err := r.dec.SkimChild(el, tree)
		if err != nil || entry == nil {
			return err
		}
		if r.bad == nil {
			r.bad = r.route(entry, pos)
		}
	}
}

// packedErr is what a reply says to a packed exchange as a whole, in the one
// order client and gateway rank it after a malformed document: a
// whole-message fault (detached), a body that is not one Parallel_Response,
// then the first entry no call could take. Nil: each call takes its slot.
func (r *reply) packedErr() error {
	if f := r.env.Fault(); f != nil {
		return detachFault(f)
	}
	if len(r.env.Body) != 1 || !isPackedResponse(r.env.Body[0]) {
		return fmt.Errorf("core: response is not a %s", ElemParallelResponse)
	}
	return r.bad
}

// isEntryFault reports whether a Parallel_Response entry is a per-item fault,
// a Fault in either envelope namespace.
func isEntryFault(entry *xmldom.Element) bool {
	return entry.Name.Local == "Fault" && (entry.Is(soap.NSEnvelope, "Fault") || entry.Is(soap.NSEnvelope12, "Fault"))
}

// route hands entry, the pos-th of a Parallel_Response, to the call its
// spi:id names, or the one at its position when it has none. An id naming no
// call of the exchange is as bad as one that is not a number, and a second
// answer to one call as bad as either. Either end parses a per-item fault;
// the client decodes the results of any other entry, the gateway keeps bytes.
func (r *reply) route(entry *xmldom.Element, pos int) error {
	v, named := entry.Attr(attrID)
	k := r.slotOf(v, named, pos)
	switch {
	case k < 0 && named:
		return fmt.Errorf("core: bad spi:id %q in packed response", v)
	case k < 0:
		return fmt.Errorf("core: packed response entry %d has no spi:id and no call at its position", pos)
	}
	var f *soap.Fault
	if isEntryFault(entry) {
		f = soap.ParseFault(entry)
	}
	if r.gathering {
		segment := r.dec.ChildSpan()
		if !named && r.gather.shard != nil {
			// The gathered response lists entries in another order, so each
			// carries its spi:id there.
			em := xmltext.AcquireEmitter()
			entryAnew(em, entry.Name, entry.Attrs, r.gather.shard[k].ID, r.dec.Content())
			segment = bytes.Clone(em.Bytes())
			xmltext.ReleaseEmitter(em)
		}
		return r.gather.take(k, segment, f)
	}
	s := &r.slots[k]
	if s.answered {
		return duplicateID(k)
	}
	s.answered = true
	if f != nil {
		s.fault = f
		return nil
	}
	// Values that do not decode are that call's failure, as in a single
	// call's reply, not the message's.
	s.results, s.err = soapenc.DecodeParams(entry)
	return nil
}

// slotOf is the slot of the call an entry answers: the one whose spi:id is v
// when named, else the one at position pos; -1 for none. The client numbers
// its calls by slot; in document order every entry takes the next slot.
func (r *reply) slotOf(v string, named bool, pos int) int {
	id, err := pos, error(nil)
	if named {
		id, err = strconv.Atoi(v)
	}
	n := len(r.slots)
	switch shard := r.gather.shard; {
	case err != nil || id < 0:
		return -1
	case r.gathering && shard == nil:
		return len(r.gather.Segments)
	case r.gathering && named:
		return slices.IndexFunc(shard, func(e *ScatterEntry) bool { return e.ID == id })
	case r.gathering:
		n = len(shard)
	}
	if id < n {
		return id
	}
	return -1
}

func duplicateID(id int) error {
	return fmt.Errorf("core: duplicate spi:id %d in packed response", id)
}

// NoResponse is what a call of a packed exchange whose reply carries no entry
// for it is told: the client resolves it with this error, and the gateway
// degrades it to a per-item fault that quotes it.
func NoResponse(id int, service, op string) error {
	return fmt.Errorf("core: no response for packed call %d (%s.%s)", id, service, op)
}
