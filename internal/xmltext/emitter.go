package xmltext

import (
	"fmt"
	"sync"
)

// Emitter is the XML writer: it builds a compact (no added whitespace)
// document by appending to a single pooled []byte, so a whole envelope is
// emitted with zero allocations and handed to the transport as one buffer. It
// is the inverse of Tokenizer: what it writes tokenizes back to the same
// logical document.
//
// An Emitter tracks the open elements and refuses to produce mismatched tags.
// A start tag's '>' is written lazily, so an End right after a Start yields a
// self-closing tag while Text("") in between yields <a></a>. Text and
// attribute values are escaped on write (AppendCharData, AppendEscAttr); the
// Raw methods append bytes the caller vouches for. Attributes go out in the
// order Attr is called.
//
// Errors are sticky — an empty element name, an attribute outside a start
// tag, an End with nothing open, text outside the root, "--" in a comment, an
// element left open at Finish: after the first failure every method is a
// no-op and Err/Finish report the error, so a call site can emit a whole
// document and check once.
type Emitter struct {
	buf    []byte
	stack  []Name
	inOpen bool
	marks  Marks
	err    error
}

// Marks is a small set of notes, one bit each, that a body writer leaves on
// an Emitter for whoever frames the document. The bits mean what writer and
// framer agree they mean: package soap names one per namespace prefix an
// Envelope declares only on demand.
type Marks uint8

// maxPooledEmitter caps the buffer capacity retained by the pool, so one
// pathological response does not pin a huge buffer forever.
const maxPooledEmitter = 1 << 20

var emitterPool = sync.Pool{
	New: func() any { return &Emitter{buf: make([]byte, 0, 4<<10)} },
}

// AcquireEmitter returns a reset Emitter from the pool. Callers must not
// retain the Emitter or any slice obtained from Bytes/Extend after
// ReleaseEmitter.
func AcquireEmitter() *Emitter {
	e := emitterPool.Get().(*Emitter)
	e.Reset()
	return e
}

// ReleaseEmitter recycles e. Oversized buffers are dropped instead of
// pooled. Releasing nil is a no-op, so release hooks can be unconditional.
func ReleaseEmitter(e *Emitter) {
	if e == nil || cap(e.buf) > maxPooledEmitter {
		return
	}
	emitterPool.Put(e)
}

// Reset clears all state for reuse, keeping the buffer's capacity.
func (e *Emitter) Reset() {
	e.buf = e.buf[:0]
	e.stack = e.stack[:0]
	e.inOpen = false
	e.marks = 0
	e.err = nil
}

// Mark adds m to the notes on the document: a body writer that used something
// its enclosing scope must declare says so, and the framer reads the union
// back with Marked once the body is written. Package soap uses it for the
// SOAP-ENC, xsi and xsd prefixes, each of which an Envelope declares only
// when a typed value (or a spliced reply that relied on it) asked for it.
func (e *Emitter) Mark(m Marks) { e.marks |= m }

// Marked returns everything marked since the last Reset.
func (e *Emitter) Marked() Marks { return e.marks }

// Err returns the first error encountered, if any.
func (e *Emitter) Err() error { return e.err }

// Len returns the number of bytes emitted so far.
func (e *Emitter) Len() int { return len(e.buf) }

// Bytes returns the emitted document. The slice aliases the Emitter's
// internal buffer: it is invalidated by further emission, Reset, or
// ReleaseEmitter.
func (e *Emitter) Bytes() []byte { return e.buf }

// Grow ensures capacity for n more bytes, to front-load the (at most one)
// buffer growth when the output size is known.
func (e *Emitter) Grow(n int) {
	if cap(e.buf)-len(e.buf) >= n {
		return
	}
	grown := make([]byte, len(e.buf), len(e.buf)+n)
	copy(grown, e.buf)
	e.buf = grown
}

func (e *Emitter) setErr(err error) {
	if e.err == nil {
		e.err = err
	}
}

// closeOpenTag completes a pending start tag with '>'.
func (e *Emitter) closeOpenTag() {
	if e.inOpen {
		e.buf = append(e.buf, '>')
		e.inOpen = false
	}
}

// appendName appends name in prefix:local form.
func (e *Emitter) appendName(name Name) {
	if name.Prefix != "" {
		e.buf = append(e.buf, name.Prefix...)
		e.buf = append(e.buf, ':')
	}
	e.buf = append(e.buf, name.Local...)
}

// Start opens an element. The '>' is emitted lazily so an immediately
// following End produces a self-closing tag.
func (e *Emitter) Start(name Name) {
	if e.err != nil {
		return
	}
	if name.Local == "" {
		e.setErr(fmt.Errorf("xmltext: empty element name"))
		return
	}
	e.closeOpenTag()
	e.stack = append(e.stack, name)
	e.inOpen = true
	if t, ok := tagTable[name]; ok {
		e.buf = append(e.buf, t.open...)
		return
	}
	e.buf = append(e.buf, '<')
	e.appendName(name)
}

// Attr appends an attribute to the element opened by the preceding Start.
// The value is escaped on write.
func (e *Emitter) Attr(name Name, value string) {
	if e.err != nil {
		return
	}
	if !e.inOpen {
		e.setErr(fmt.Errorf("xmltext: Attr(%s) outside of start tag", name))
		return
	}
	e.buf = append(e.buf, ' ')
	e.appendName(name)
	e.buf = append(e.buf, '=', '"')
	e.buf = AppendEscAttr(e.buf, value)
	e.buf = append(e.buf, '"')
}

// AttrRaw is Attr for values the caller guarantees need no escaping (e.g.
// numbers formatted into a scratch buffer); the bytes go in verbatim.
func (e *Emitter) AttrRaw(name Name, value []byte) {
	if e.err != nil {
		return
	}
	if !e.inOpen {
		e.setErr(fmt.Errorf("xmltext: Attr(%s) outside of start tag", name))
		return
	}
	e.buf = append(e.buf, ' ')
	e.appendName(name)
	e.buf = append(e.buf, '=', '"')
	e.buf = append(e.buf, value...)
	e.buf = append(e.buf, '"')
}

// End closes the most recently opened element.
func (e *Emitter) End() {
	if e.err != nil {
		return
	}
	if len(e.stack) == 0 {
		e.setErr(fmt.Errorf("xmltext: EndElement with no open element"))
		return
	}
	name := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	if e.inOpen {
		e.buf = append(e.buf, '/', '>')
		e.inOpen = false
		return
	}
	if t, ok := tagTable[name]; ok {
		e.buf = append(e.buf, t.close...)
		return
	}
	e.buf = append(e.buf, '<', '/')
	e.appendName(name)
	e.buf = append(e.buf, '>')
}

// Text writes character data inside the current element, in the shorter of
// its two spellings (see AppendCharData). An empty string still completes the
// open start tag, so Text("") distinguishes <a></a> from <a/>.
func (e *Emitter) Text(s string) {
	if e.err != nil {
		return
	}
	if len(e.stack) == 0 {
		e.setErr(fmt.Errorf("xmltext: text outside root element"))
		return
	}
	e.closeOpenTag()
	e.buf = AppendCharData(e.buf, s)
}

// RawText is Text without the open-element check: character data appended
// wherever the buffer stands. It exists for template splicing
// (msgcache), where the element structure lives in pre-serialized segments
// the Emitter never saw, so its stack is empty by construction.
func (e *Emitter) RawText(s string) {
	if e.err != nil {
		return
	}
	e.closeOpenTag()
	e.buf = AppendCharData(e.buf, s)
}

// Raw appends pre-serialized bytes verbatim, completing any open start tag
// first. It is the splice point for body fragments emitted into a separate
// Emitter, and for numbers formatted into scratch buffers (which never
// contain escapable characters).
func (e *Emitter) Raw(b []byte) {
	if e.err != nil {
		return
	}
	e.closeOpenTag()
	e.buf = append(e.buf, b...)
}

// RawString is Raw for string payloads.
func (e *Emitter) RawString(s string) {
	if e.err != nil {
		return
	}
	e.closeOpenTag()
	e.buf = append(e.buf, s...)
}

// Extend completes any open start tag, grows the buffer by n bytes and
// returns that tail for in-place encoding (base64, time formatting). The
// slice is invalidated like Bytes. Returns nil after an error.
func (e *Emitter) Extend(n int) []byte {
	if e.err != nil {
		return nil
	}
	e.closeOpenTag()
	l := len(e.buf)
	e.buf = append(e.buf, make([]byte, n)...)
	return e.buf[l : l+n]
}

// Comment writes an XML comment. The body must not contain "--".
func (e *Emitter) Comment(s string) {
	if e.err != nil {
		return
	}
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '-' && s[i+1] == '-' {
			e.setErr(fmt.Errorf("xmltext: comment contains %q", "--"))
			return
		}
	}
	e.closeOpenTag()
	e.buf = append(e.buf, "<!--"...)
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, "-->"...)
}

// Finish verifies the document is complete (every Start matched by an End)
// and returns the sticky error. The emitted bytes remain available via Bytes.
func (e *Emitter) Finish() error {
	if e.err == nil && (len(e.stack) > 0 || e.inOpen) {
		e.setErr(fmt.Errorf("xmltext: Flush with %d unclosed element(s)", len(e.stack)))
	}
	return e.err
}

// tagBytes holds a name's precomputed start-tag head ("<prefix:local") and
// end tag ("</prefix:local>").
type tagBytes struct {
	open  []byte
	close []byte
}

// tagTable maps the SOAP 1.1/1.2 vocabulary, as this repository's writers
// spell it, to precomputed tag bytes. It is built once at init and read-only
// afterwards, so lookups are safe from any goroutine; a map hit replaces three
// appends with one. Misses (e.g. application operation names) fall back to
// piecewise appends, still allocation-free.
var tagTable = buildTagTable()

func buildTagTable() map[Name]tagBytes {
	vocab := []string{
		// Envelope structure, both versions.
		"s:Envelope", "s:Header", "s:Body", "s:Fault",
		// SOAP 1.1 fault children.
		"faultcode", "faultstring", "faultactor", "detail",
		// SOAP 1.2 fault children.
		"s:Code", "s:Value", "s:Reason", "s:Text", "s:Node", "s:Detail",
		// Pack extension.
		"spi:Parallel_Method", "spi:Parallel_Response",
		// Array items.
		"item",
	}
	t := make(map[Name]tagBytes, len(vocab))
	for _, s := range vocab {
		n := ParseName(s)
		t[n] = tagBytes{
			open:  []byte("<" + s),
			close: []byte("</" + s + ">"),
		}
	}
	return t
}
