package xmltext

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
)

// String interning for the decode hot path.
//
// SOAP traffic reuses a tiny vocabulary: every envelope spells the same
// element names (Envelope, Body, Parallel_Method, operation names), the
// same attribute names (xmlns:*, xsi:type, spi:id) and the same attribute
// values (namespace URIs, type QNames). Materializing a fresh string for
// each occurrence is where the tokenizer used to spend most of its
// allocations. The tables below turn those into hits: a lookup keyed by the
// raw bytes returns the one shared copy and allocates nothing.
//
// The tables are global and append-only. They are capped so hostile traffic
// full of unique names cannot grow them without bound — past the cap,
// lookups still hit for the seeded/learned vocabulary and misses simply
// allocate as before. There is no eviction: the working set of a SOAP
// deployment (its WSDL vocabulary) is static and small.
//
// Every server worker and gateway scatter looks names up at once, so a
// lookup takes no lock and writes no shared memory: it reads an
// open-addressed table whose slots are filled once, atomically, behind one
// atomic pointer. Learning takes a mutex, fills an empty slot, and copies
// the table into one twice its size when it is half full — amortised O(1)
// copies per learned name, up to the cap.
const (
	// maxInternLen is the longest byte string worth interning. Namespace
	// URIs are the longest hot strings; payload text is deliberately past
	// this when callers ask (see internWhitespace).
	maxInternLen = 128
	// maxInternEntries bounds each table (strings and names separately).
	maxInternEntries = 8192
)

// internTable is a set of values keyed by their raw spelling.
type internTable[V any] struct {
	slots atomic.Pointer[[]atomic.Pointer[internEntry[V]]]
	mu    sync.Mutex   // serialises learning
	n     atomic.Int64 // entries; written under mu
}

type internEntry[V any] struct {
	key string
	val V
}

var (
	internSeed = maphash.MakeSeed()
	strs       = newInternTable[string]()
	names      = newInternTable[Name]()
)

func newInternTable[V any]() *internTable[V] {
	t := &internTable[V]{}
	slots := make([]atomic.Pointer[internEntry[V]], 512)
	t.slots.Store(&slots)
	return t
}

// get is the value learned for b, without a lock.
func (t *internTable[V]) get(b []byte) (V, bool) {
	slots := *t.slots.Load()
	mask := uint64(len(slots) - 1)
	for i := maphash.Bytes(internSeed, b) & mask; ; i = (i + 1) & mask {
		e := slots[i].Load()
		if e == nil {
			var zero V
			return zero, false
		}
		if e.key == string(b) {
			return e.val, true
		}
	}
}

// learn stores val under key unless the table holds key already or is full,
// and returns what the table holds for key then. A full table is seen
// without the lock, so past the cap a miss costs what it allocates.
func (t *internTable[V]) learn(key string, val V) V {
	if t.n.Load() >= maxInternEntries {
		return val
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.get(unsafe.Slice(unsafe.StringData(key), len(key))); ok {
		return v // learned by another goroutine since its caller looked
	}
	if t.n.Load() >= maxInternEntries {
		return val
	}
	slots := *t.slots.Load()
	if 2*(int(t.n.Load())+1) > len(slots) {
		grown := make([]atomic.Pointer[internEntry[V]], 2*len(slots))
		for i := range slots {
			if e := slots[i].Load(); e != nil {
				place(grown, e)
			}
		}
		t.slots.Store(&grown)
		slots = grown
	}
	place(slots, &internEntry[V]{key: key, val: val})
	t.n.Add(1)
	return val
}

// place puts e in the first empty slot of its probe sequence.
func place[V any](slots []atomic.Pointer[internEntry[V]], e *internEntry[V]) {
	mask := uint64(len(slots) - 1)
	i := maphash.String(internSeed, e.key) & mask
	for slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	slots[i].Store(e)
}

func init() {
	// Pre-load the SOAP vocabulary so the very first request already hits.
	for _, s := range []string{
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
	} {
		strs.learn(s, s)
	}
	for _, s := range []string{
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
	} {
		strs.learn(s, s)
		names.learn(s, ParseName(s))
	}
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
	if s, ok := strs.get(b); ok {
		return s
	}
	s := string(b)
	return strs.learn(s, s)
}

// InternName parses a raw (possibly prefixed) XML name and interns the
// result: both the split and the string copies are amortized, so after the
// first occurrence a name costs one lookup and zero allocations.
func InternName(b []byte) Name {
	if len(b) == 0 {
		return Name{}
	}
	if len(b) > maxInternLen {
		return ParseName(string(b))
	}
	if n, ok := names.get(b); ok {
		return n
	}
	raw := Intern(b)
	return names.learn(raw, ParseName(raw)) // Prefix/Local share raw's backing array
}

// internSize reports the current table sizes (strings, names), for tests.
func internSize() (int, int) {
	return int(strs.n.Load()), int(names.n.Load())
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
