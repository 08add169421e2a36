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
// client's decodePackedResponse refuses such a response wholesale. The
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

// decodePackedResponse splits a Parallel_Response into per-id outcomes for
// the client-side dispatcher of §3.5. The map is keyed by correlation id.
func decodePackedResponse(el *xmldom.Element) (map[int]*rpcResult, error) {
	n := 0
	for _, c := range el.Children {
		if _, ok := c.(*xmldom.Element); ok {
			n++
		}
	}
	out := make(map[int]*rpcResult, n)
	// One slab for all entries: the count is known, so the results can't
	// move after allocation and the map can hold pointers into it.
	slab := make([]rpcResult, n)
	i := -1
	for _, c := range el.Children {
		child, ok := c.(*xmldom.Element)
		if !ok {
			continue
		}
		i++
		id := i
		if v, ok := child.Attr(attrID); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("core: bad spi:id %q in packed response", v)
			}
			id = n
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("core: duplicate spi:id %d in packed response", id)
		}
		res := &slab[i]
		res.id = id
		// A per-item fault is written under the envelope's own prefix, so it
		// lands in whichever envelope namespace the response uses.
		if ns := child.Namespace(); child.Name.Local == "Fault" && (ns == soap.NSEnvelope || ns == soap.NSEnvelope12) {
			res.fault = faultFromElement(child)
		} else {
			fields, err := soapenc.DecodeParams(child)
			if err != nil {
				return nil, fmt.Errorf("core: packed response entry %d: %v", id, err)
			}
			res.results = fields
		}
		out[id] = res
	}
	return out, nil
}

// faultFromElement decodes a Fault element outside of envelope context
// (per-item faults inside a packed response).
func faultFromElement(el *xmldom.Element) *soap.Fault {
	f := &soap.Fault{}
	if c := el.Child("", "faultcode"); c != nil {
		f.Code = xmltext.ParseName(c.Text()).Local
	}
	if c := el.Child("", "faultstring"); c != nil {
		f.String = c.Text()
	}
	if c := el.Child("", "faultactor"); c != nil {
		f.Actor = c.Text()
	}
	if c := el.Child("", "detail"); c != nil {
		f.Detail = c
	}
	return f
}
