package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Scatter–gather support for the SPI gateway (package gateway): parsing a
// packed envelope into shardable entries, building per-backend sub-batches,
// splitting backend replies back into per-entry byte segments, and
// reassembling them — through the same reorder-window assembler the server
// uses — into one packed response that is byte-identical to what a single
// direct server would have produced.
//
// Byte identity is why replies are spliced as raw segments instead of being
// re-serialized through the DOM: parse→serialize is not the identity on
// this codebase's wire format (an empty element parses into a node that
// serializes as <a/>, while the server's typed encoder deliberately emits
// <a></a> for empty string results). The server's response framing is
// deterministic — same prefixes, same attribute order, same namespace
// declarations for both SOAP versions — so the gateway can anchor on exact
// byte markers and never touch the entry bytes in between.

// ScatterEntry is one Parallel_Method entry prepared for sharding.
type ScatterEntry struct {
	// Slot is the entry's position in the original packed request; the
	// reassembled response preserves slot order.
	Slot int
	// ID is the entry's effective correlation id: the explicit spi:id, or
	// the slot for entries that carry none. For entries that failed to
	// decode it is the slot, matching the server's positional fault ids.
	ID int
	// Service and Op name the target operation (empty on faulted entries).
	Service string
	Op      string
	// Element is the request element, detached from the parse arena and
	// annotated with the effective spi:id and spi:service, ready to drop
	// into a sub-batch. Nil when Fault is set.
	Element *xmldom.Element
	// Fault is set when the entry failed to decode; the gateway answers
	// such entries locally with the exact fault a direct server emits.
	Fault *soap.Fault
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
}

// ParseScatterRequest decodes a packed request for sharding. The returned
// fault, when non-nil, is the whole-message fault a direct server would
// return for the same bytes (malformed envelope, version mismatch, extra
// body entries, empty pack); render it with GatewayFaultResponse in the
// version carried by the (possibly nil) ScatterRequest.
func ParseScatterRequest(body []byte, defaultService string) (*ScatterRequest, *soap.Fault) {
	arena := xmldom.AcquireArena()
	defer xmldom.ReleaseArena(arena)
	env, err := soap.DecodeArenaBytes(body, arena)
	if err != nil {
		if vm, ok := err.(*soap.VersionMismatchError); ok {
			return nil, &soap.Fault{Code: soap.FaultVersionMismatch, String: vm.Error()}
		}
		return nil, soap.ClientFault("malformed envelope: %v", err)
	}
	sr := &ScatterRequest{Version: env.Version, Headers: cloneHeaders(env.Header)}
	if len(env.Body) != 1 {
		return sr, soap.ClientFault("expected exactly one body entry, got %d", len(env.Body))
	}
	entry := env.Body[0]
	if !isPackedRequest(entry) {
		return sr, nil
	}
	sr.Packed = true
	children := entry.ChildElements()
	if len(children) == 0 {
		return sr, soap.ClientFault("%s has no requests", ElemParallelMethod)
	}
	sr.Entries = make([]*ScatterEntry, len(children))
	defaultService = packDefaultService(entry, defaultService)
	for i, el := range children {
		se := &ScatterEntry{Slot: i, ID: i}
		req, fault := decodeRequestElement(el, defaultService, i)
		if fault != nil {
			// The server answers undecodable entries with a positional id,
			// even when the entry carried a valid explicit spi:id.
			se.Fault = fault
		} else {
			se.ID = req.id
			se.Service = req.service
			se.Op = req.op
			// The clone detaches the element from the arena and pulls inherited
			// namespace declarations down, so it serializes standalone — in
			// the long form, whether the client spelled namespace and
			// annotations on the entry or left them to Parallel_Method.
			lead := make([]xmltext.Attr, 0, 3)
			if uri, ok := el.ResolvePrefix(el.Name.Prefix); ok && el.Name.Prefix != "" {
				lead = append(lead, xmltext.Attr{Name: xmltext.Name{Prefix: "xmlns", Local: el.Name.Prefix}, Value: uri})
			}
			lead = append(lead, xmltext.Attr{Name: attrID, Value: strconv.Itoa(req.id)},
				xmltext.Attr{Name: attrService, Value: req.service})
			se.Element = el.CloneLeading(lead...)
		}
		sr.Entries[i] = se
	}
	return sr, duplicateIDFault(len(children), func(slot int) int { return sr.Entries[slot].ID })
}

// BuildSubBatch serializes one backend's share of the entries as a packed
// request document. The bytes are freshly allocated and stable, so a
// failed sub-batch can be re-sent verbatim to another backend.
func BuildSubBatch(v soap.Version, headers []*xmldom.Element, entries []*ScatterEntry) ([]byte, error) {
	env := soap.New()
	env.Version = v
	for _, h := range headers {
		env.AddHeader(h)
	}
	pm := xmldom.NewElement(namePackMethod)
	pm.DeclareNamespace(PrefixPack, NSPack)
	for _, e := range entries {
		pm.AddChild(e.Element)
	}
	env.AddBody(pm)
	// The Writer path escapes attribute values (entity references were
	// decoded at parse time), unlike the emitter fast path, which assumes
	// producer-controlled escape-free attributes.
	var buf bytes.Buffer
	if err := env.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Byte anchors of the server's canonical packed-response serialization.
// The SOAP-ENV prefix is the same for both envelope versions (only the
// namespace URI differs), so these are version-independent.
var (
	gatherBodyOpen   = []byte(`<SOAP-ENV:Body><` + PrefixPack + `:` + ElemParallelResponse + ` xmlns:` + PrefixPack + `="` + NSPack + `">`)
	gatherBodyClose  = []byte(`</` + PrefixPack + `:` + ElemParallelResponse + `></SOAP-ENV:Body></SOAP-ENV:Envelope>`)
	gatherHeaderOpen = []byte(`<SOAP-ENV:Header>`)
	gatherHeaderEnd  = []byte(`</SOAP-ENV:Header>`)
)

// SplitGatherResponse slices a backend's packed-response document into its
// per-entry byte segments plus the raw contents of its Header element (nil
// when absent). Segments are copies: the response body they came from may
// be pooled and recycled by the transport.
func SplitGatherResponse(body []byte) (segments [][]byte, rawHeader []byte, err error) {
	i := bytes.Index(body, gatherBodyOpen)
	if i < 0 {
		return nil, nil, fmt.Errorf("core: backend response is not a packed response")
	}
	if !bytes.HasSuffix(body, gatherBodyClose) {
		return nil, nil, fmt.Errorf("core: backend packed response has an unexpected tail")
	}
	if h := bytes.Index(body[:i], gatherHeaderOpen); h >= 0 {
		end := bytes.Index(body[h:i], gatherHeaderEnd)
		if end < 0 {
			return nil, nil, fmt.Errorf("core: backend response header is malformed")
		}
		rawHeader = append([]byte(nil), body[h+len(gatherHeaderOpen):h+end]...)
	}
	children := body[i+len(gatherBodyOpen) : len(body)-len(gatherBodyClose)]
	segments, err = splitTopLevelElements(children)
	if err != nil {
		return nil, nil, err
	}
	return segments, rawHeader, nil
}

// splitTopLevelElements divides a well-formed element sequence into one
// copied byte segment per top-level element. The input comes from the
// server's own emitter, so text never contains a raw '<', attribute values
// are double-quoted, and the only markup to skip inside a tag is a quoted
// string. Comments and PIs do not occur but are tolerated at depth.
func splitTopLevelElements(b []byte) ([][]byte, error) {
	var out [][]byte
	start, depth := 0, 0
	for pos := 0; pos < len(b); {
		lt := bytes.IndexByte(b[pos:], '<')
		if lt < 0 {
			if depth != 0 {
				return nil, fmt.Errorf("core: truncated packed response entry")
			}
			break
		}
		pos += lt
		if depth == 0 {
			start = pos
		}
		gt, selfClosing, closing, err := scanTag(b, pos)
		if err != nil {
			return nil, err
		}
		switch {
		case closing:
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("core: unbalanced packed response entry")
			}
		case selfClosing:
			// depth unchanged
		default:
			depth++
		}
		pos = gt + 1
		if depth == 0 {
			out = append(out, append([]byte(nil), b[start:pos]...))
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("core: truncated packed response entry")
	}
	return out, nil
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
// backend sub-batches complete, in any order, and reassembles them into
// the packed response through the same reorder-window loop the server's
// streaming assembler uses. Slots are write-once: late deliveries after a
// slot was degraded are dropped, exactly like detached server workers.
type GatherCollector struct {
	ids []int // effective spi:id per slot, for fault entries

	mu       sync.Mutex
	segments [][]byte
	faults   []*soap.Fault
	filled   []bool
	headers  map[int][]byte // backend index -> raw header bytes
	wake     chan struct{}
}

// NewGatherCollector returns a collector for len(ids) slots; ids[slot] is
// the effective correlation id used when a slot resolves to a fault.
func NewGatherCollector(ids []int) *GatherCollector {
	return &GatherCollector{
		ids:      ids,
		segments: make([][]byte, len(ids)),
		faults:   make([]*soap.Fault, len(ids)),
		filled:   make([]bool, len(ids)),
		wake:     make(chan struct{}, 1),
	}
}

func (c *GatherCollector) nudge() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Deliver stores a slot's response segment. The first write wins.
func (c *GatherCollector) Deliver(slot int, segment []byte) {
	c.mu.Lock()
	if !c.filled[slot] {
		c.filled[slot] = true
		c.segments[slot] = segment
	}
	c.mu.Unlock()
	c.nudge()
}

// Fail stores a slot's per-item fault. The first write wins.
func (c *GatherCollector) Fail(slot int, f *soap.Fault) {
	c.mu.Lock()
	if !c.filled[slot] {
		c.filled[slot] = true
		c.faults[slot] = f
	}
	c.mu.Unlock()
	c.nudge()
}

// AddHeader records the raw header bytes a backend's reply carried. At
// assembly the sections are concatenated in backend-index order, so a
// single contributing backend reproduces a direct server's header bytes
// exactly.
func (c *GatherCollector) AddHeader(backend int, raw []byte) {
	if len(raw) == 0 {
		return
	}
	c.mu.Lock()
	if c.headers == nil {
		c.headers = make(map[int][]byte)
	}
	c.headers[backend] = raw
	c.mu.Unlock()
}

// rawHeader merges the recorded header sections.
func (c *GatherCollector) rawHeader() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.headers) == 0 {
		return nil
	}
	idx := make([]int, 0, len(c.headers))
	for i := range c.headers {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var out []byte
	for _, i := range idx {
		out = append(out, c.headers[i]...)
	}
	return out
}

// Assemble drains slots in order into the packed-response fragment,
// parking on the reorder window's head until it fills or ctx expires.
// On expiry every unfilled slot is degraded to the per-item fault
// degrade(slot) supplies — the gateway's analogue of the server
// abandoning unfinished workers. Returns the finished HTTP response and
// the number of per-item faults it contains.
func (c *GatherCollector) Assemble(ctx context.Context, v soap.Version, degrade func(slot int) *soap.Fault) (*httpx.Response, int, error) {
	asm := newPackedAssembler()
	defer asm.release()
	for slot := 0; slot < len(c.ids); slot++ {
		for {
			c.mu.Lock()
			ok := c.filled[slot]
			seg, f := c.segments[slot], c.faults[slot]
			c.mu.Unlock()
			if ok {
				if f != nil {
					asm.itemFaults++
					var tmp [24]byte
					id := xmltext.Intern(strconv.AppendInt(tmp[:0], int64(c.ids[slot]), 10))
					// Per-item faults use the SOAP 1.1 layout regardless of
					// envelope version, like every packed-response fault.
					f.AppendElementFor(asm.em, soap.V11, xmltext.Attr{Name: attrID, Value: id})
				} else {
					asm.em.Raw(seg)
				}
				break
			}
			select {
			case <-c.wake:
			case <-ctx.Done():
				c.mu.Lock()
				for i := range c.filled {
					if !c.filled[i] {
						c.filled[i] = true
						c.faults[i] = degrade(i)
					}
				}
				c.mu.Unlock()
			}
		}
	}
	asm.em.End() // Parallel_Response
	if err := asm.em.Finish(); err != nil {
		return nil, asm.itemFaults, err
	}
	enc := soap.NewStreamEncoder()
	enc.BeginRawHeader(v, c.rawHeader())
	enc.Emitter().Raw(asm.em.Bytes())
	body, err := enc.Finish()
	if err != nil {
		enc.Release()
		return nil, asm.itemFaults, err
	}
	resp := httpx.NewResponse(200, body)
	resp.Header.Set("Content-Type", v.ContentType())
	resp.SetRelease(enc.Release)
	return resp, asm.itemFaults, nil
}

// GatewayFaultResponse renders a whole-message fault exactly as a direct
// server would: the fault envelope in the requested version under HTTP 500.
func GatewayFaultResponse(f *soap.Fault, v soap.Version) *httpx.Response {
	enc := soap.NewStreamEncoder()
	body, err := enc.EncodeEnvelope(f.EnvelopeFor(v))
	if err != nil {
		enc.Release()
		return encodeFailureResponse()
	}
	resp := httpx.NewResponse(500, body)
	resp.Header.Set("Content-Type", v.ContentType())
	resp.SetRelease(enc.Release)
	return resp
}
