// Package httpx is a compact HTTP/1.1 implementation over net.Conn.
//
// It plays the role Apache Tomcat and the Axis HTTP transport play in the
// paper's testbed: POSTing SOAP envelopes and returning SOAP responses. It
// is deliberately small — requests with bounded bodies, content-length and
// chunked framing, keep-alive and per-request-connection modes — because
// those are the only features the experiments exercise, and because the
// experiments need precise control over connection reuse (the paper's
// "No Optimization" baseline opens a fresh TCP connection per message while
// the packed approach amortizes one).
package httpx

import "strings"

// Header is an ordered multimap of HTTP header fields. Field names are
// matched case-insensitively but stored in their original spelling, so
// serialized output is stable.
type Header struct {
	fields []field
}

type field struct {
	name  string
	value string
}

// Get returns the first value of the named field, or "".
func (h *Header) Get(name string) string {
	for _, f := range h.fields {
		if strings.EqualFold(f.name, name) {
			return f.value
		}
	}
	return ""
}

// Has reports whether the named field is present.
func (h *Header) Has(name string) bool {
	for _, f := range h.fields {
		if strings.EqualFold(f.name, name) {
			return true
		}
	}
	return false
}

// Values returns all values of the named field, in order.
func (h *Header) Values(name string) []string {
	var out []string
	for _, f := range h.fields {
		if strings.EqualFold(f.name, name) {
			out = append(out, f.value)
		}
	}
	return out
}

// Set replaces all values of the named field with one value.
func (h *Header) Set(name, value string) {
	out := h.fields[:0]
	for _, f := range h.fields {
		if !strings.EqualFold(f.name, name) {
			out = append(out, f)
		}
	}
	h.fields = append(out, field{name: name, value: value})
}

// Add appends a value to the named field.
func (h *Header) Add(name, value string) {
	if h.fields == nil {
		// Typical messages carry a handful of fields; skip the 1->2->4
		// growth reallocations.
		h.fields = make([]field, 0, 4)
	}
	h.fields = append(h.fields, field{name: name, value: value})
}

// Each calls fn for every field in order.
func (h *Header) Each(fn func(name, value string)) {
	for _, f := range h.fields {
		fn(f.name, f.value)
	}
}

// Clone returns a deep copy.
func (h *Header) Clone() Header {
	return Header{fields: append([]field(nil), h.fields...)}
}

// hasToken reports whether the named field contains the given
// comma-separated token (case-insensitive), as used by Connection handling.
func (h *Header) hasToken(name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}
