package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Scatter–gather support for the SPI gateway (package gateway): reading a
// packed envelope into shardable entries, building per-backend sub-batches,
// splitting backend replies back into per-entry byte segments, and
// reassembling them — through the same assembler the server uses — into one
// packed response whose entries are byte-identical to those a single direct
// server would have produced. Like the server's, they go out in the order
// they complete, each carrying its spi:id.
//
// The gateway reads a packed request with the server's own reader
// (readPacked), so the two agree on every entry and every whole-message
// fault, and it never writes an entry out again in either direction. A
// sub-batch rewrites only each entry's start tag — the pack annotations
// differ per sub-batch — and splices the bytes inside it verbatim; a reply
// is cut into raw segments that are spliced into the gathered response.
// Byte identity is why: parse→serialize is not the identity on this
// codebase's wire format (an empty element parses into a node that
// serializes as <a/>, while the server's typed encoder deliberately emits
// <a></a> for empty string results). The server's response framing is
// deterministic — same attribute order, same declarations for both SOAP
// versions, one envelope prefix read off the Envelope tag — so the gateway
// can walk exact byte markers and never touch the entry bytes in between.
//
// Both hops the gateway writes follow appendRequestEntry's framing rule: a
// sub-batch declares the client's own batch default, so the backends answer
// under it and the gathered Parallel_Response can declare it once over
// segments that were never edited.

// ScatterEntry is one Parallel_Method entry prepared for sharding.
type ScatterEntry struct {
	// Slot is the entry's position in the original packed request.
	Slot int
	// ID is the entry's effective correlation id: the explicit spi:id, or
	// the slot for entries that carry none. For entries that failed to
	// decode it is the slot, matching the server's positional fault ids.
	ID int
	// Service and Op name the target operation (empty on faulted entries).
	Service string
	Op      string
	// Fault is set when the entry failed to decode; the gateway answers
	// such entries locally with the exact fault a direct server emits.
	Fault *soap.Fault
	// name and attrs are the entry's start tag as BuildSubBatch writes it:
	// its own attributes less the pack annotations, which are restated where
	// needed. inner is everything between its start and end tags, verbatim:
	// for a packed request a span of the request body, which the transport
	// reuses once the handler returns, so every sub-batch is built before
	// then. All three are empty when Fault is set.
	name  xmltext.Name
	attrs []xmltext.Attr
	inner []byte
	// batch is the packed request the entry was cut from, whose default its
	// sub-batch declares; nil for a coalesced single call.
	batch *ScatterRequest
}

// ScatterRequest is a parsed packed request ready for sharding.
type ScatterRequest struct {
	Version soap.Version
	// Headers are the request header blocks, detached from the arena;
	// every sub-batch carries them so backends see the same envelope
	// context the client sent.
	Headers []*xmldom.Element
	// Entries are the Parallel_Method children in document order. Empty
	// when Packed is false.
	Entries []*ScatterEntry
	// Packed reports whether the body was a Parallel_Method at all; a
	// false value means the request should be proxied whole.
	Packed bool
	// DefaultNS is the xmlns:m the client's Parallel_Method declared ("" for
	// none): the response's batch default, whichever shards answer and even
	// if none does. DefaultService is what an entry naming no service runs
	// on: Parallel_Method's spi:service, else the URL's. Sub-batches declare
	// both.
	DefaultNS      string
	DefaultService string
	// scope is what else was in scope at the client's Parallel_Method that a
	// sub-batch does not declare by itself; restated once per sub-batch so
	// the entries' QNames keep resolving.
	scope []xmltext.Attr
}

// ParseScatterRequest reads a request for sharding, with the reader a direct
// server dispatches it with. The returned fault, when non-nil, is the
// whole-message fault a direct server would return for the same bytes;
// render it with GatewayFaultResponse in the version carried by the
// ScatterRequest, or in SOAP 1.1 when that is nil (no envelope was read).
// The entries' bytes alias body (ScatterEntry).
func ParseScatterRequest(body []byte, defaultService string) (*ScatterRequest, *soap.Fault) {
	arena := xmldom.AcquireArena()
	defer xmldom.ReleaseArena(arena)
	d := soap.AcquireStreamDecoder(body, arena)
	defer d.Release()
	if err := d.ReadPreamble(); err != nil {
		return nil, preambleFault(err)
	}
	env := d.Envelope()
	sr := &ScatterRequest{Version: env.Version, Headers: cloneHeaders(env.Header)}
	pm, err := d.NextEntryStart()
	if err == nil && pm != nil && !isPackedRequest(pm) {
		err = d.CompleteEntry(pm)
	}
	if err != nil {
		return sr, malformedFault(err)
	}
	if pm == nil || !isPackedRequest(pm) {
		// Proxied whole, once the document is known to be one entry.
		_, _, fault := finishBody(d, nil)
		return sr, fault
	}
	sr.Packed = true
	sr.DefaultNS = requestDefaultNS(pm)
	sr.DefaultService = packDefaultService(pm, defaultService)
	// The nearest m in scope is Parallel_Method's own when it declares one,
	// and then it travels as the default, not in the scope.
	sr.scope = subBatchScope(nil, pm, env.Version, sr.DefaultNS != "")
	sr.Entries = make([]*ScatterEntry, 0, 16)
	_, fault := readPacked(d, pm, sr.DefaultService, packedHooks{
		entry: func(slot int, el *xmldom.Element, req *rpcRequest, f *soap.Fault) {
			e := &ScatterEntry{Slot: slot, ID: slot, Fault: f, batch: sr}
			if f == nil {
				e.ID, e.Service, e.Op = req.id, req.service, req.op
				e.name, e.attrs, e.inner = el.Name, ownAttrs(el.Attrs), innerSpan(d.ChildSpan())
			}
			sr.Entries = append(sr.Entries, e)
		},
	})
	return sr, fault
}

// ownAttrs copies an entry's attributes off the arena less the pack
// annotations, which whoever writes the entry into a batch restates for the
// slot and the default it lands under.
func ownAttrs(attrs []xmltext.Attr) []xmltext.Attr {
	var own []xmltext.Attr
	for _, a := range attrs {
		if a.Name != attrID && a.Name != attrService {
			own = append(own, a)
		}
	}
	return own
}

// innerSpan is what lies between the start and end tags of the element whose
// bytes are span; nil for a self-closing one.
func innerSpan(span []byte) []byte {
	gt, selfClosing, _, err := scanTag(span, 0)
	if err != nil || selfClosing {
		return nil
	}
	return span[gt+1 : bytes.LastIndexByte(span, '<')]
}

// subBatchScope appends to attrs the namespace declarations in scope at el —
// nearest binding first, none that attrs already binds — then drops those a
// sub-batch document in version v makes identically by itself (xmlns:s and
// spi; SOAP-ENC, xsi and xsd are restated, so a sub-batch has them exactly
// when the client's scope did) and, with skipM, xmlns:m.
func subBatchScope(attrs []xmltext.Attr, el *xmldom.Element, v soap.Version, skipM bool) []xmltext.Attr {
	for ; el != nil; el = el.Parent {
	next:
		for _, a := range el.Attrs {
			if a.Name.Prefix != "xmlns" && a.Name != (xmltext.Name{Local: "xmlns"}) {
				continue
			}
			for _, b := range attrs {
				if b.Name == a.Name {
					continue next
				}
			}
			attrs = append(attrs, a)
		}
	}
	kept := attrs[:0]
	for _, a := range attrs {
		if p := a.Name.Local; a.Name.Prefix == "xmlns" && (p == PrefixPack && a.Value == NSPack ||
			p == soap.PrefixEnvelope && a.Value == v.Namespace() || p == "m" && skipM) {
			continue
		}
		kept = append(kept, a)
	}
	return kept
}

// BuildSubBatch writes one backend's share of the entries as a packed request
// document, under the framing rule. Entries cut from a packed request inherit
// what the client's Parallel_Method gave them: the sub-batch declares the same
// xmlns:m and default service and restates the rest of the scope on Body (an
// xmlns:m the client declared further out is not a batch default, and must not
// become one here). Each entry's start tag is written anew — spi:service only
// where it differs, spi:id only where its id is not its slot in this document
// — and the bytes inside it are the client's, spliced. Coalesced single calls
// declare no default, so each response segment is complete by itself. The
// bytes are freshly allocated and stable, so a failed sub-batch can be re-sent
// verbatim to another backend.
func BuildSubBatch(v soap.Version, headers []*xmldom.Element, entries []*ScatterEntry) ([]byte, error) {
	var def ScatterRequest
	if len(entries) > 0 && entries[0].batch != nil {
		def = *entries[0].batch
	}
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(v, headers)
	em := enc.Emitter()
	for _, a := range def.scope {
		em.Attr(a.Name, a.Value)
	}
	em.Start(namePackMethod)
	em.Attr(nameXmlnsSpi, NSPack)
	if def.DefaultNS != "" {
		em.Attr(nameXmlnsM, def.DefaultNS)
	}
	if def.DefaultService != "" {
		em.Attr(attrService, def.DefaultService)
	}
	var tmp [24]byte
	for slot, e := range entries {
		if e.name.Local == "" {
			return nil, fmt.Errorf("core: the entry in slot %d has no request element to send", e.Slot)
		}
		em.Start(e.name)
		for _, a := range e.attrs {
			em.Attr(a.Name, a.Value)
		}
		if e.ID != slot {
			em.AttrRaw(attrID, strconv.AppendInt(tmp[:0], int64(e.ID), 10))
		}
		if e.Service != def.DefaultService {
			em.Attr(attrService, e.Service)
		}
		if len(e.inner) > 0 {
			em.Raw(e.inner)
		}
		em.End()
	}
	em.End()
	doc, err := enc.Finish()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), doc...), nil
}

// Byte markers of the server's canonical packed-response serialization. A '*'
// stands for the prefix the reply's Envelope binds to the envelope namespace,
// whichever version and writer (spell), so these hold for both.
var (
	gatherXMLDecl     = []byte(`<?xml `)
	gatherEnvelope    = []byte(`:Envelope `)
	gatherHeaderOpen  = `<*:Header>`
	gatherHeaderEnd   = `</*:Header>`
	gatherBodyOpen    = `<*:Body><` + PrefixPack + `:` + ElemParallelResponse + ` xmlns:` + PrefixPack + `="` + NSPack + `"`
	gatherDefaultOpen = []byte(` xmlns:m="`)
	gatherCDATAOpen   = []byte(`<![CDATA[`)
	gatherCDATAEnd    = []byte(`]]>`)
	gatherBodyClose   = `</` + PrefixPack + `:` + ElemParallelResponse + `></*:Body></*:Envelope>`
)

// spell appends marker to buf, each '*' in it spelled as the prefix p.
func spell(buf []byte, marker string, p []byte) []byte {
	for {
		before, after, found := strings.Cut(marker, "*")
		if buf = append(buf, before...); !found {
			return buf
		}
		buf, marker = append(buf, p...), after
	}
}

var errShape = errors.New("core: backend response is not a packed response")

// GatherReply is a backend's packed-response document cut for splicing.
type GatherReply struct {
	// Segments holds one byte segment per entry, cut from a copy of the
	// reply, in the order the backend completed them; IDs the spi:id each
	// carries (-1 for none); RawHeader the contents of the reply's Header
	// element, nil without one.
	Segments  [][]byte
	IDs       []int
	RawHeader []byte
	// Decls is what the reply's Envelope declared on demand — SOAP-ENC, xsi,
	// xsd — so what frames its segments must too: a backend declares each for
	// a reply that uses it, one older than that rule always.
	Decls soap.Decls
	// Prefix is what the reply's Envelope bound the envelope namespace to; its
	// fault entries and header blocks may be spelled with it.
	Prefix string
	def    []byte // Parallel_Response's xmlns:m as serialized; aliases the reply
}

// SplitGatherResponse slices a backend's packed-response document into its
// per-entry byte segments plus the raw contents of its Header element (nil
// when absent).
func SplitGatherResponse(body []byte) (segments [][]byte, rawHeader []byte, err error) {
	r, err := splitGather(body)
	return r.Segments, r.RawHeader, err
}

// SplitResponse is splitGather for the reply to one of sr's sub-batches. A
// reply that declares a default must mirror the one the sub-batch declared:
// under any other, its segments would be spliced into the gathered response
// under a namespace they were not written for. One that declares none (a
// backend older than the mirrored default) is made of entries that each
// declare their own, which splice anywhere.
func (sr *ScatterRequest) SplitResponse(body []byte) (GatherReply, error) {
	r, err := splitGather(body)
	if err != nil {
		return GatherReply{}, err
	}
	var tmp [64]byte
	if want := xmltext.AppendEscAttr(tmp[:0], sr.DefaultNS); len(r.def) > 0 && !bytes.Equal(r.def, want) {
		return GatherReply{}, fmt.Errorf("core: backend answered under default namespace %q, the sub-batch declared %q", r.def, want)
	}
	return r, nil
}

// splitGather walks the document from its first byte — an XML declaration if
// the backend still writes one, Envelope start tag, Header if any, then Body
// opening directly onto Parallel_Response — so no marker is ever matched
// inside content. Markers are spelled with the prefix the Envelope binds.
func splitGather(body []byte) (r GatherReply, err error) {
	rest := bytes.TrimPrefix(body, xmltext.UTF8BOM)
	if bytes.HasPrefix(rest, gatherXMLDecl) {
		rest = rest[bytes.IndexByte(rest, '>')+1:]
	}
	gt, _, _, err := scanTag(rest, 0)
	if err != nil {
		return r, errShape
	}
	var buf [96]byte
	p := envelopePrefix(rest[:gt], buf[:0])
	if p == nil {
		return r, errShape
	}
	r.Prefix = xmltext.Intern(p)
	r.Decls = soap.TagDecls(rest[:gt])
	rest = rest[gt+1:]
	if open := spell(buf[:0], gatherHeaderOpen, p); bytes.HasPrefix(rest, open) {
		end, err := elementEnd(rest, 0)
		if err != nil || !bytes.HasSuffix(rest[:end], spell(buf[:0], gatherHeaderEnd, p)) {
			return r, fmt.Errorf("core: backend response header is malformed")
		}
		r.RawHeader = append([]byte(nil), rest[len(open):end-len(open)-1]...) // </P:Header> is one byte longer
		rest = rest[end:]
	}
	open := spell(buf[:0], gatherBodyOpen, p)
	if !bytes.HasPrefix(rest, open) {
		return r, errShape
	}
	rest = rest[len(open):]
	if bytes.HasPrefix(rest, gatherDefaultOpen) {
		rest = rest[len(gatherDefaultOpen):]
		q := bytes.IndexByte(rest, '"')
		if q < 0 {
			return r, errShape
		}
		r.def, rest = rest[:q], rest[q+1:]
	}
	if !bytes.HasPrefix(rest, []byte(">")) {
		return r, errShape
	}
	end := spell(buf[:0], gatherBodyClose, p)
	if !bytes.HasSuffix(rest, end) {
		return r, fmt.Errorf("core: backend packed response has an unexpected tail")
	}
	r.Segments, err = splitTopLevelElements(rest[1 : len(rest)-len(end)])
	r.IDs = make([]int, len(r.Segments))
	for k, seg := range r.Segments {
		r.IDs[k] = entryID(seg)
	}
	return r, err
}

// envelopePrefix returns P of a tag <P:Envelope … xmlns:P="…"> binding P to a
// SOAP envelope namespace, as every writer's does, or nil; buf is scratch.
func envelopePrefix(tag, buf []byte) []byte {
	if p, _, ok := bytes.Cut(tag, gatherEnvelope); ok && len(p) > 1 && p[0] == '<' {
		for _, ns := range [...]string{soap.NSEnvelope, soap.NSEnvelope12} {
			if bytes.Contains(tag, append(append(spell(buf[:0], ` xmlns:*="`, p[1:]), ns...), '"')) {
				return p[1:]
			}
		}
	}
	return nil
}

// splitTopLevelElements divides a well-formed element sequence into one byte
// segment per top-level element, each cut from one copy of b.
func splitTopLevelElements(b []byte) ([][]byte, error) {
	var out [][]byte
	b = bytes.Clone(b)
	for pos := 0; ; {
		lt := bytes.IndexByte(b[pos:], '<')
		if lt < 0 {
			return out, nil
		}
		end, err := elementEnd(b, pos+lt)
		if err != nil {
			return nil, err
		}
		out = append(out, b[pos+lt:end:end])
		pos = end
	}
}

// elementEnd returns the index just past the element whose start tag opens
// at b[pos]. Text holds a raw '<' only inside a CDATA section (the shorter
// spelling of a value that is mostly markup characters), which is skipped
// whole; attribute values are double-quoted, and the only markup to skip
// inside a tag is a quoted string. Each end tag must name the start tag it
// closes: a backend is a peer, and one reply whose tags do not nest would
// otherwise be spliced into the gathered response and make the whole of it
// unreadable. The open tags' names are kept as spans of b, on the stack for
// up to 16 levels.
func elementEnd(b []byte, pos int) (int, error) {
	var stack [16][2]int
	open := stack[:0]
	for {
		lt := bytes.IndexByte(b[pos:], '<')
		if lt < 0 {
			return 0, fmt.Errorf("core: truncated packed response entry")
		}
		pos += lt
		if bytes.HasPrefix(b[pos:], gatherCDATAOpen) {
			end := bytes.Index(b[pos:], gatherCDATAEnd)
			if end < 0 || len(open) == 0 {
				// Unterminated, or where an entry should start.
				return 0, fmt.Errorf("core: truncated packed response entry")
			}
			pos += end + len(gatherCDATAEnd)
			continue
		}
		gt, selfClosing, closing, err := scanTag(b, pos)
		if err != nil {
			return 0, err
		}
		switch {
		case closing:
			if len(open) == 0 {
				return 0, fmt.Errorf("core: unbalanced packed response entry")
			}
			top := open[len(open)-1]
			open = open[:len(open)-1]
			if name := tagName(b, pos+2, gt); !bytes.Equal(name, b[top[0]:top[1]]) {
				return 0, fmt.Errorf("core: end tag </%s> does not match <%s> in packed response entry", name, b[top[0]:top[1]])
			}
		case !selfClosing:
			name := tagName(b, pos+1, gt)
			open = append(open, [2]int{pos + 1, pos + 1 + len(name)})
		}
		if pos = gt + 1; len(open) == 0 {
			return pos, nil
		}
	}
}

// tagName is the name a tag spells from b[from], up to white space, '/' or
// its closing '>' at b[gt].
func tagName(b []byte, from, gt int) []byte {
	end := from
	for end < gt && b[end] != ' ' && b[end] != '\t' && b[end] != '\r' && b[end] != '\n' && b[end] != '/' {
		end++
	}
	return b[from:end]
}

// scanTag finds the '>' ending the tag that starts at b[pos] (which is
// '<'), honoring quoted attribute values, and classifies the tag.
func scanTag(b []byte, pos int) (gt int, selfClosing, closing bool, err error) {
	closing = pos+1 < len(b) && b[pos+1] == '/'
	inQuote := byte(0)
	for j := pos + 1; j < len(b); j++ {
		c := b[j]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			inQuote = c
		case '>':
			return j, b[j-1] == '/', closing, nil
		}
	}
	return 0, false, false, fmt.Errorf("core: unterminated tag in packed response")
}

// DecodeBackendFault extracts the fault from a backend's whole-message
// fault document (an HTTP 500 body), detached from any arena. Nil when the
// body is not a parseable fault envelope.
func DecodeBackendFault(body []byte) *soap.Fault {
	env, err := soap.Decode(bytes.NewReader(body))
	if err != nil {
		return nil
	}
	return detachFault(env.Fault())
}

// RetryableError exposes the client retry classification to the gateway's
// failover logic: connect failures and Server.Busy faults are always safe
// to re-send; other transport losses only when every affected operation is
// idempotent; definitive SOAP faults and the caller's own context expiry
// never.
func RetryableError(err error, idempotent bool) bool {
	return retryable(err, idempotent)
}

// GatherCollector accumulates per-slot response segments (or faults) as
// backend sub-batches complete, in any order, and writes each into the packed
// response through the server's own assembler as it arrives. Slots are
// write-once: late deliveries after a slot was degraded are dropped, exactly
// like detached server workers.
type GatherCollector struct {
	ids []int // effective spi:id per slot, for fault entries
	// defaultNS is the default the gathered Parallel_Response declares and
	// entries the operations behind the slots; unset when made from bare ids.
	defaultNS string
	entries   []*ScatterEntry

	col      collector[gatherSlot] // its mu guards the fields below too
	headers  [][]byte              // raw header bytes, by backend index
	decls    soap.Decls            // what contributing replies' Envelopes declared
	prefixes []string              // what they bound the envelope namespace to (Alias)
}

// gatherSlot is a slot's outcome: a segment cut from a backend reply, or a
// per-item fault.
type gatherSlot struct {
	segment []byte
	fault   *soap.Fault
}

// NewGatherCollector returns a collector for len(ids) slots; ids[slot] is
// the effective correlation id used when a slot resolves to a fault. The
// response it assembles declares no batch default.
func NewGatherCollector(ids []int) *GatherCollector {
	c := &GatherCollector{ids: ids}
	c.col.init(len(ids), len(ids))
	return c
}

// NewCollector returns the collector for sr's response: one slot per entry,
// under the default the client's Parallel_Method declared.
func (sr *ScatterRequest) NewCollector() *GatherCollector {
	ids := make([]int, len(sr.Entries))
	for i, e := range sr.Entries {
		ids[i] = e.ID
	}
	c := NewGatherCollector(ids)
	c.defaultNS, c.entries = sr.DefaultNS, sr.Entries
	return c
}

// Deliver stores a slot's response segment. The first write wins.
func (c *GatherCollector) Deliver(slot int, segment []byte) {
	c.col.put(slot, gatherSlot{segment: segment})
}

// Fail stores a slot's per-item fault. The first write wins.
func (c *GatherCollector) Fail(slot int, f *soap.Fault) {
	c.col.put(slot, gatherSlot{fault: f})
}

// AddHeader records the raw header bytes a backend's reply carried. At
// assembly the sections are concatenated in backend-index order, so a
// single contributing backend reproduces a direct server's header bytes
// exactly.
func (c *GatherCollector) AddHeader(backend int, raw []byte) {
	if len(raw) == 0 {
		return
	}
	c.col.mu.Lock()
	for len(c.headers) <= backend {
		c.headers = append(c.headers, nil)
	}
	c.headers[backend] = raw
	c.col.mu.Unlock()
}

// Declare records what the Envelope of a reply whose segments are being
// delivered declared, on demand and as its envelope prefix (GatherReply): the
// gathered Envelope declares the union over its replies, and nothing besides.
func (c *GatherCollector) Declare(r GatherReply) {
	c.col.mu.Lock()
	c.decls |= r.Decls
	if r.Prefix != soap.PrefixEnvelope { // StreamEncoder.Alias drops repeats
		c.prefixes = append(c.prefixes, r.Prefix)
	}
	c.col.mu.Unlock()
}

// Assemble writes each slot into the packed response as it fills, until every
// slot is in or ctx expires. On expiry every unfilled slot is degraded to the
// per-item fault degrade(slot) supplies — the gateway's analogue of the
// server abandoning unfinished workers; a nil degrade supplies that very
// fault, AbandonFault. Returns the finished HTTP response and the number of
// per-item faults it contains.
func (c *GatherCollector) Assemble(ctx context.Context, v soap.Version, degrade func(slot int) *soap.Fault) (*httpx.Response, int, error) {
	if degrade == nil {
		degrade = func(slot int) *soap.Fault {
			if c.entries == nil {
				return AbandonFault(ctx, "", "")
			}
			return AbandonFault(ctx, c.entries[slot].Service, c.entries[slot].Op)
		}
	}
	asm := newPackedAssembler(c.defaultNS)
	defer asm.release()
	_ = c.col.drain(ctx, func(slot int, g gatherSlot) error { // neither write can fail
		if g.fault != nil {
			asm.fault(c.ids[slot], g.fault)
		} else {
			asm.em.Raw(g.segment)
		}
		return nil
	}, func(slot int) gatherSlot { return gatherSlot{fault: degrade(slot)} })
	var rawHeader []byte
	c.col.mu.Lock()
	asm.em.Mark(c.decls)
	if len(c.headers) > 0 {
		rawHeader = bytes.Join(c.headers, nil)
	}
	prefixes := c.prefixes
	c.col.mu.Unlock()
	resp, err := asm.finish(v, nil, rawHeader, prefixes)
	return resp, asm.itemFaults, err
}

// GatewayFaultResponse renders a whole-message fault exactly as a direct
// server does: the fault streamed as the one body entry of an envelope in the
// requested version, under HTTP 500, per the SOAP HTTP binding.
func GatewayFaultResponse(f *soap.Fault, v soap.Version) *httpx.Response {
	enc := soap.NewStreamEncoder()
	enc.Begin(v, nil)
	f.AppendElementFor(enc.Emitter(), v)
	resp, err := encodedResponse(500, v, enc)
	if err != nil {
		return encodeFailureResponse()
	}
	return resp
}
