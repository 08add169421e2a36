package xmltext

import "sync"

// String interning for the decode hot path.
//
// SOAP traffic reuses a tiny vocabulary: every envelope spells the same
// element names (Envelope, Body, Parallel_Method, operation names), the
// same attribute names (xmlns:*, xsi:type, spi:id) and the same attribute
// values (namespace URIs, type QNames). Materializing a fresh string for
// each occurrence is where the tokenizer used to spend most of its
// allocations. The table below turns those into map hits: a lookup keyed
// by the raw bytes (which Go compiles to an allocation-free map access)
// returns the one shared copy.
//
// The table is global and append-only. It is capped so hostile traffic
// full of unique names cannot grow it without bound — past the cap,
// lookups still hit for the seeded/learned vocabulary and misses simply
// allocate as before. There is no eviction: the working set of a SOAP
// deployment (its WSDL vocabulary) is static and small.
const (
	// maxInternLen is the longest byte string worth interning. Namespace
	// URIs are the longest hot strings; payload text is deliberately past
	// this when callers ask (see internWhitespace).
	maxInternLen = 128
	// maxInternEntries bounds each table (strings and names separately).
	maxInternEntries = 8192
)

type internTable struct {
	mu      sync.RWMutex
	strings map[string]string
	names   map[string]Name
}

var interns = seedInterns()

// seedInterns pre-loads the SOAP vocabulary so the very first request
// already hits, and so the cap can never evict the core protocol names.
func seedInterns() *internTable {
	t := &internTable{
		strings: make(map[string]string, 256),
		names:   make(map[string]Name, 256),
	}
	seedStrings := []string{
		// Namespace URIs (attribute values).
		"http://schemas.xmlsoap.org/soap/envelope/",
		"http://schemas.xmlsoap.org/soap/encoding/",
		"http://www.w3.org/2003/05/soap-envelope",
		"http://www.w3.org/2001/XMLSchema-instance",
		"http://www.w3.org/2001/XMLSchema",
		"http://spi.ict.ac.cn/pack",
		// Type QNames (attribute values).
		"xsd:string", "xsd:int", "xsd:long", "xsd:boolean", "xsd:double",
		"xsd:base64Binary", "xsd:dateTime", "SOAP-ENC:Array",
		"true", "false", "1", "0",
	}
	seedNames := []string{
		// Envelope structure: ours, then older peers' and other toolkits'.
		"s:Envelope", "s:Header", "s:Body", "s:Fault", "s:mustUnderstand",
		"s:Code", "s:Value", "s:Reason", "s:Text", "s:Node", "s:Detail",
		"SOAP-ENV:Envelope", "SOAP-ENV:Header", "SOAP-ENV:Body",
		"SOAP-ENV:Fault", "SOAP-ENV:mustUnderstand", "env:Envelope",
		"env:Header", "env:Body", "env:Fault", "Envelope", "Header", "Body",
		"faultcode", "faultstring", "faultactor", "detail",
		// Namespace declarations.
		"xmlns", "xmlns:s", "xmlns:SOAP-ENV", "xmlns:SOAP-ENC", "xmlns:xsi",
		"xmlns:xsd", "xmlns:spi", "xmlns:m", "xmlns:env", "xmlns:h",
		// Typing and packing attributes.
		"xsi:type", "xsi:nil", "SOAP-ENC:arrayType",
		"spi:Parallel_Method", "spi:Parallel_Response", "spi:id", "spi:service",
		"item", "xml",
	}
	for _, s := range seedStrings {
		t.strings[s] = s
	}
	for _, s := range seedNames {
		t.strings[s] = s
		t.names[s] = ParseName(s)
	}
	return t
}

// Intern returns a string equal to b, reusing the shared interned copy
// when one exists. On a hit no allocation happens; on a miss the string is
// allocated once and (capacity permitting) remembered for next time.
func Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	t := interns
	t.mu.RLock()
	s, ok := t.strings[string(b)] // compiler elides the []byte->string copy
	t.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	t.mu.Lock()
	if prev, ok := t.strings[s]; ok {
		s = prev
	} else if len(t.strings) < maxInternEntries {
		t.strings[s] = s
	}
	t.mu.Unlock()
	return s
}

// InternName parses a raw (possibly prefixed) XML name and interns the
// result: both the split and the string copies are amortized, so after the
// first occurrence a name costs one map hit and zero allocations.
func InternName(b []byte) Name {
	if len(b) == 0 {
		return Name{}
	}
	t := interns
	if len(b) <= maxInternLen {
		t.mu.RLock()
		n, ok := t.names[string(b)]
		t.mu.RUnlock()
		if ok {
			return n
		}
	}
	raw := Intern(b)
	n := ParseName(raw) // Prefix/Local share raw's backing array
	if len(raw) <= maxInternLen {
		t.mu.Lock()
		if len(t.names) < maxInternEntries {
			t.names[raw] = n
		}
		t.mu.Unlock()
	}
	return n
}

// internSize reports the current table sizes (strings, names), for tests.
func internSize() (int, int) {
	interns.mu.RLock()
	defer interns.mu.RUnlock()
	return len(interns.strings), len(interns.names)
}

// IsWhitespace reports whether b is entirely XML whitespace. It is the
// allocation-free form of strings.TrimSpace(string(b)) == "" for the byte
// slices handed out by Tokenizer.TokenBytes.
func IsWhitespace(b []byte) bool {
	for _, c := range b {
		if !isSpaceByte(c) {
			return false
		}
	}
	return true
}
