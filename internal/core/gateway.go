package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/registry"
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
// (readPacked), and a backend's reply with the client's (readReply), so it
// agrees with each about every entry and every whole-message fault; and it
// never writes an entry out again in either direction. A sub-batch rewrites
// only each entry's start tag — the pack annotations differ per sub-batch —
// and splices the bytes inside it verbatim; a reply's entries are stepped
// over as tokens, not built into trees, and spliced into the gathered
// response as the bytes they were. Byte identity is why: parse→serialize is
// not the identity on this codebase's wire format (an empty element parses
// into a node that serializes as <a/>, while the server's typed encoder
// deliberately emits <a></a> for empty string results).
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
	// Single is a single call's one entry, prepared for a coalesced batch
	// (ParseCoalescible); nil for a call that must be proxied whole.
	Single *ScatterEntry
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
	return readScatterRequest(body, defaultService, false, nil)
}

// ParseCoalescible is ParseScatterRequest for a gateway that coalesces single
// calls: in the same read, a single call that may join a coalesced batch also
// comes back prepared as sr.Single (see coalescibleEntry). reg, when non-nil,
// resolves an entry on the bare pack endpoint by namespace, the way a direct
// server's dispatch does a single call.
func ParseCoalescible(body []byte, defaultService string, reg *registry.Container) (*ScatterRequest, *soap.Fault) {
	return readScatterRequest(body, defaultService, true, reg)
}

// readScatterRequest is the gateway's one read of a request; coalesce asks it
// for sr.Single as well.
func readScatterRequest(body []byte, defaultService string, coalesce bool, reg *registry.Container) (*ScatterRequest, *soap.Fault) {
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
		if fault == nil && coalesce {
			sr.Single = coalescibleEntry(d, pm, defaultService, reg)
		}
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
				e.name, e.attrs, e.inner = el.Name, ownAttrs(el.Attrs), d.Content()
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

// GatherReply is a backend's reply to a sub-batch, read for splicing: what it
// said to each call of the shard, as bytes cut from one copy of the reply.
type GatherReply struct {
	// Segments holds each answered call's entry, start tag to end tag, by the
	// call's position in the shard (nil where none answered it), or in
	// document order for SplitGatherResponse. Faults holds each per-item
	// fault, parsed, by the same position, up to the last; nil for none.
	// RawHeader is the content of the reply's Header, nil without one.
	Segments  [][]byte
	Faults    []*soap.Fault
	RawHeader []byte
	// Decls is what the reply declared on demand — SOAP-ENC, xsi, xsd — so
	// what frames its segments must too: a backend declares each for a reply
	// that uses it, one older than that rule always.
	Decls soap.Decls
	// Prefix is what the reply's Envelope bound the envelope namespace to; its
	// fault entries and header blocks may be spelled with it, or with an alias
	// bound as well (a gathered response's).
	Prefix  string
	aliases []string
	shard   []*ScatterEntry
}

// SplitGatherResponse cuts a backend's packed-response document into its
// per-entry byte segments, in document order, plus the raw contents of its
// Header element (nil when absent).
func SplitGatherResponse(body []byte) (segments [][]byte, rawHeader []byte, err error) {
	r, err := (*ScatterRequest)(nil).SplitResponse(body, nil)
	return r.Segments, r.RawHeader, err
}

// SplitResponse reads the reply to the sub-batch carrying shard, one of sr's,
// with the client's reader: the same whole-reply precedence, the same routing
// of each entry to its call, the same rule for what may stand between
// entries. The segments are spliced into the gathered response as they
// stand, so the reply may lean on no namespace binding that one does not make
// (scope). With a nil shard the entries are taken in document order, and with
// a nil sr under any default.
func (sr *ScatterRequest) SplitResponse(body []byte, shard []*ScatterEntry) (GatherReply, error) {
	r := reply{gather: GatherReply{shard: shard}, gathering: true}
	if shard != nil {
		r.gather.Segments = make([][]byte, len(shard))
	}
	r, err := readReply(bytes.Clone(body), r)
	if err != nil {
		return GatherReply{}, err
	}
	defer r.release()
	if err = r.packedErr(); err == r.bad && err != nil {
		err = fmt.Errorf("core: the reply's answer spi:ids do not match the sub-batch: %w", err)
	}
	g := &r.gather
	if err == nil && len(r.env.Header) > 0 {
		err = g.scope(r.env.Header[0].Parent, sr)
	}
	if err == nil {
		g.RawHeader = r.dec.HeaderContent()
		g.Prefix = r.env.Body[0].Parent.Parent.Name.Prefix // Parallel_Response, Body, Envelope
		err = g.scope(r.env.Body[0], sr)
	}
	if err != nil {
		return GatherReply{}, err
	}
	return *g, nil
}

// scope checks every namespace declaration from el up to the Envelope
// against what the gathered response binds around the segments it splices: m
// to the default sr's sub-batch declared, spi to the pack namespace, SOAP-ENC,
// xsi and xsd to theirs (into Decls), any other prefix to an envelope
// namespace (aliased), and no default namespace.
func (g *GatherReply) scope(el *xmldom.Element, sr *ScatterRequest) error {
	for ; el != nil; el = el.Parent {
		for _, a := range el.Attrs {
			if a.Name.Prefix != "xmlns" && (a.Name != xmltext.Name{Local: "xmlns"} || a.Value == "") {
				continue // not a declaration, or one that undeclares the default
			}
			p := a.Name.Local // "xmlns" for the default
			d, ns := soap.DeclOf(p)
			switch {
			case p == "m":
				if sr != nil && a.Value != sr.DefaultNS {
					return fmt.Errorf("core: backend answered under default namespace %q, the sub-batch declared %q", a.Value, sr.DefaultNS)
				}
			case p == PrefixPack && a.Value == NSPack:
			case d != 0 && a.Value == ns:
				g.Decls |= d
			case d == 0 && p != PrefixPack && p != "xmlns" && (a.Value == soap.NSEnvelope || a.Value == soap.NSEnvelope12):
				if p != g.Prefix && p != soap.PrefixEnvelope && !slices.Contains(g.aliases, p) {
					g.aliases = append(g.aliases, p)
				}
			default:
				return fmt.Errorf("core: backend response binds %s to %q, which the gathered response does not", a.Name, a.Value)
			}
		}
	}
	return nil
}

// take keeps what the reply said to slot k: the entry's bytes, and its fault
// when it is one.
func (g *GatherReply) take(k int, segment []byte, f *soap.Fault) error {
	if g.shard == nil {
		g.Segments = append(g.Segments, nil) // document order: k is the next slot
	} else if g.Segments[k] != nil {
		return duplicateID(g.shard[k].ID)
	}
	g.Segments[k] = segment
	if f != nil {
		if k >= len(g.Faults) {
			g.Faults = append(g.Faults, make([]*soap.Fault, k+1-len(g.Faults))...)
		}
		g.Faults[k] = detachFault(f)
	}
	return nil
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
// response through the server's own assembler as it arrives. Its slots are a
// dispatch machine's, answered by a backend's result: the first answer wins,
// and a late delivery after a slot was degraded is dropped, exactly like a
// detached server worker's.
type GatherCollector struct {
	ids []int // effective spi:id per slot, for fault entries
	// defaultNS is the default the gathered Parallel_Response declares and
	// entries the operations behind the slots; unset when made from bare ids.
	defaultNS string
	entries   []*ScatterEntry
	tally     *fault.Tally // where Assemble counts the faults it writes; nil for nowhere

	x        answers    // its mu guards the fields below too; a slot's fault is its res
	segments [][]byte   // by slot, set as the slot is answered with a segment
	headers  [][]byte   // raw header bytes, by backend index
	decls    soap.Decls // what contributing replies' Envelopes declared
	prefixes []string   // what they bound the envelope namespace to (Alias)
}

// NewGatherCollector returns a collector for len(ids) slots; ids[slot] is
// the effective correlation id used when a slot resolves to a fault. The
// response it assembles declares no batch default.
func NewGatherCollector(ids []int) *GatherCollector {
	return &GatherCollector{ids: ids, segments: make([][]byte, len(ids)),
		x: answers{m: dispatch{slots: make([]dslot, len(ids))}}}
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

// Tally has Assemble count each per-item fault it writes into t, the node's
// counters, as it writes it.
func (c *GatherCollector) Tally(t *fault.Tally) { c.tally = t }

// Deliver stores a slot's response segment. The first write wins.
func (c *GatherCollector) Deliver(slot int, segment []byte) { c.put(slot, segment, nil) }

// Fail stores a slot's per-item fault. The first write wins.
func (c *GatherCollector) Fail(slot int, f *soap.Fault) { c.put(slot, nil, f) }

// put is the result event of a slot's backend: a segment, or a fault.
func (c *GatherCollector) put(slot int, segment []byte, f *soap.Fault) {
	c.x.mu.Lock()
	a := c.x.m.done(slot, fResult)
	if a&aFill != 0 && f != nil {
		c.x.m.slots[slot].res = &rpcResult{fault: f}
	} else if a&aFill != 0 {
		c.segments[slot] = segment
	}
	c.x.signal(a)
	c.x.mu.Unlock()
}

// AddHeader records the raw header bytes a backend's reply carried. At
// assembly the sections are concatenated in backend-index order, so a
// single contributing backend reproduces a direct server's header bytes
// exactly.
func (c *GatherCollector) AddHeader(backend int, raw []byte) {
	if len(raw) == 0 {
		return
	}
	c.x.mu.Lock()
	for len(c.headers) <= backend {
		c.headers = append(c.headers, nil)
	}
	c.headers[backend] = raw
	c.x.mu.Unlock()
}

// Gather delivers each segment of a backend's reply to its call's slot, after
// noting what framing them takes: the header bytes, by the backend's index,
// and the declarations and envelope prefixes, whose union the gathered
// Envelope declares. A call the reply did not answer is left to Fail.
func (c *GatherCollector) Gather(backend int, shard []*ScatterEntry, r *GatherReply) {
	c.AddHeader(backend, r.RawHeader)
	c.x.mu.Lock()
	c.decls |= r.Decls
	if r.Prefix != soap.PrefixEnvelope { // StreamEncoder.Alias drops repeats
		c.prefixes = append(c.prefixes, r.Prefix)
	}
	c.prefixes = append(c.prefixes, r.aliases...)
	c.x.mu.Unlock()
	for k, e := range shard {
		if r.Segments[k] != nil {
			c.Deliver(e.Slot, r.Segments[k])
		}
	}
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
	asm.tally = c.tally
	defer asm.release()
	_ = c.x.drain(ctx, func(slot int) error { // neither write can fail
		switch sl := &c.x.m.slots[slot]; {
		case sl.how == fDegraded:
			asm.fault(c.ids[slot], degrade(slot))
		case sl.res != nil:
			asm.fault(c.ids[slot], sl.res.fault)
		default:
			asm.em.Raw(c.segments[slot])
		}
		return nil
	})
	var rawHeader []byte
	c.x.mu.Lock()
	asm.em.Mark(c.decls)
	if len(c.headers) > 0 {
		rawHeader = bytes.Join(c.headers, nil)
	}
	prefixes := c.prefixes
	c.x.mu.Unlock()
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
