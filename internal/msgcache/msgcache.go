// Package msgcache implements the client-side message-caching
// optimizations the paper surveys in §2.2 and positions itself against:
//
//   - Devaram & Andresen, "SOAP Optimization via Parameterized Client-Side
//     Caching" (PDCS 2003) — reference [1]: cache a serialized request
//     message and only substitute the parameter values on subsequent
//     sends;
//   - Abu-Ghazaleh, Lewis & Govindaraju, "Differential Serialization for
//     Optimized SOAP Performance" (HPDC-13) — reference [3]: bypass the
//     serialization step for messages similar to previously-sent ones.
//
// The paper argues these techniques are orthogonal to SPI — they cut
// per-message CPU cost while SPI cuts the number of messages — and the
// experiment harness uses this package to measure exactly that: template
// caching accelerates serialization dramatically yet leaves the
// per-message network overhead untouched, so packing still dominates for
// many small requests.
//
// A Template is the serialized request envelope split at the parameter
// value positions. Rendering a call with new values is a byte splice — no
// DOM construction, no tree walking, no tag writing.
package msgcache

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

// Key identifies one template: the operation plus the parameter shape.
// Two calls share a template exactly when they target the same operation
// with the same parameter names and scalar types in the same order —
// Devaram's "parameterized" condition.
type Key struct {
	Service string
	Op      string
	Shape   string
}

// ShapeOf computes the parameter-shape component of a key. Values outside
// the scalar set (arrays, structs, nil) make the call uncacheable because
// their serialized form is not a single splice point. Integers split into
// two shape classes because the wire type (xsd:int vs xsd:long) depends on
// the value's range, and the template bakes the xsi:type in.
func ShapeOf(params []soapenc.Field) (string, bool) {
	b, ok := appendShape(nil, params)
	if !ok {
		return "", false
	}
	return string(b), true
}

// appendShape is ShapeOf in append form, so the cache's hit path can build
// the shape into a stack scratch buffer instead of allocating a string per
// call.
func appendShape(dst []byte, params []soapenc.Field) ([]byte, bool) {
	for _, p := range params {
		var t string
		switch v := p.Value.(type) {
		case string:
			t = "s"
		case int64:
			t = intShape(v)
		case int:
			t = intShape(int64(v))
		case int32:
			t = "i32"
		case float64:
			t = "f"
		case bool:
			t = "b"
		default:
			return nil, false
		}
		dst = append(dst, p.Name...)
		dst = append(dst, ':')
		dst = append(dst, t...)
		dst = append(dst, ';')
	}
	return dst, true
}

func intShape(n int64) string {
	if n >= math.MinInt32 && n <= math.MaxInt32 {
		return "i32"
	}
	return "i64"
}

// Template is a pre-serialized request envelope with holes at the
// parameter value positions.
type Template struct {
	segments [][]byte // len(params)+1 segments around the holes
}

// RenderTo splices the parameter values into the template directly onto an
// emitter, allocation-free: segments are appended verbatim and scalars are
// escaped or formatted into a stack scratch buffer, exactly as soapenc's
// streaming encoder writes them, so the bytes match a full serialization.
// The rendered document is em.Bytes(), valid until the emitter is released
// or reused.
func (t *Template) RenderTo(em *xmltext.Emitter, params []soapenc.Field) error {
	if len(params) != len(t.segments)-1 {
		return fmt.Errorf("msgcache: template has %d holes, got %d params",
			len(t.segments)-1, len(params))
	}
	var tmp [32]byte
	for i, seg := range t.segments {
		em.Raw(seg)
		if i >= len(params) {
			break
		}
		switch v := params[i].Value.(type) {
		case string:
			em.RawText(v)
		case int64:
			em.Raw(strconv.AppendInt(tmp[:0], v, 10))
		case int:
			em.Raw(strconv.AppendInt(tmp[:0], int64(v), 10))
		case int32:
			em.Raw(strconv.AppendInt(tmp[:0], int64(v), 10))
		case float64:
			em.Raw(soapenc.AppendDouble(tmp[:0], v))
		case bool:
			if v {
				em.RawString("true")
			} else {
				em.RawString("false")
			}
		default:
			// ShapeOf admits only the scalars above; anything else means
			// the template and the call disagree.
			return fmt.Errorf("msgcache: unsupported scalar type %T", v)
		}
	}
	return em.Err()
}

// Stats counts cache behaviour.
type Stats struct {
	Hits      int64
	Misses    int64
	Uncached  int64 // calls whose shape is not cacheable
	Templates int
}

// Cache holds templates keyed by operation and parameter shape. Safe for
// concurrent use.
type Cache struct {
	mu        sync.RWMutex
	templates map[Key]*Template
	// shapes interns shape strings: the hit path builds the shape into a
	// stack buffer and resolves it here with an allocation-free
	// map[string(bytes)] lookup, so rendering a cached call never allocates.
	shapes   map[string]string
	hits     int64
	misses   int64
	uncached int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		templates: make(map[Key]*Template),
		shapes:    make(map[string]string),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{Hits: c.hits, Misses: c.misses, Uncached: c.uncached, Templates: len(c.templates)}
}

// RenderTo writes the serialized request envelope for a call onto em, using
// a cached template when one exists — with a pooled emitter the steady-state
// hit path allocates nothing. ok reports whether the call was cacheable at
// all; when false nothing was written and the caller must serialize normally.
func (c *Cache) RenderTo(em *xmltext.Emitter, service, namespace, op string, params []soapenc.Field) (ok bool, err error) {
	tmpl, err := c.lookup(service, namespace, op, params)
	if tmpl == nil || err != nil {
		return false, err
	}
	if err := tmpl.RenderTo(em, params); err != nil {
		return false, err
	}
	return true, nil
}

// lookup resolves (building on miss) the template for a call, maintaining
// the counters. A nil template with nil error means the call is uncacheable.
// The hit path is allocation-free: the shape is appended into a stack
// scratch buffer and interned through the shapes map, so the Key is built
// entirely from strings that already exist.
func (c *Cache) lookup(service, namespace, op string, params []soapenc.Field) (*Template, error) {
	var scratch [96]byte
	shapeBuf, cacheable := appendShape(scratch[:0], params)
	if !cacheable {
		c.mu.Lock()
		c.uncached++
		c.mu.Unlock()
		return nil, nil
	}
	c.mu.RLock()
	shape, seen := c.shapes[string(shapeBuf)] // no-copy map probe
	var tmpl *Template
	if seen {
		tmpl = c.templates[Key{Service: service, Op: op, Shape: shape}]
	}
	c.mu.RUnlock()
	if tmpl == nil {
		var err error
		tmpl, err = buildTemplate(namespace, op, params)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		if !seen {
			shape = string(shapeBuf)
			c.shapes[shape] = shape
		}
		c.templates[Key{Service: service, Op: op, Shape: shape}] = tmpl
		c.misses++
		c.mu.Unlock()
	} else {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	return tmpl, nil
}

// buildTemplate writes the call's request as a client without a cache does —
// the entry and its parameters streamed, then framed in an envelope — and
// cuts that document where the parameter values lie. What a template splices
// around is therefore the stream writer's own output, start tags,
// xsi:type annotations and the Envelope's on-demand declarations included.
func buildTemplate(namespace, op string, params []soapenc.Field) (*Template, error) {
	body := xmltext.AcquireEmitter()
	defer xmltext.ReleaseEmitter(body)
	body.Start(xmltext.Name{Prefix: "m", Local: op})
	body.Attr(xmltext.Name{Prefix: "xmlns", Local: "m"}, namespace)
	// holes[i] is where parameter i's value lies in body. A scalar goes out
	// as <name>value</name>, with at most an xsi:type in the start tag: the
	// value runs from that tag's '>' to the end tag.
	holes := make([][2]int, len(params))
	for i, p := range params {
		at := body.Len()
		if err := soapenc.EncodeParamsTo(body, params[i:i+1]); err != nil {
			return nil, err
		}
		if err := body.Err(); err != nil {
			return nil, err
		}
		// The byte at at is the parameter's '<', or the '>' the entry's own
		// start tag still owed: the parameter's is the next one either way.
		holes[i] = [2]int{
			at + 1 + bytes.IndexByte(body.Bytes()[at+1:], '>') + 1,
			body.Len() - len("</>") - len(p.Name),
		}
	}
	body.End()
	if err := body.Finish(); err != nil {
		return nil, err
	}

	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(soap.V11, nil)
	enc.Emitter().Mark(body.Marked())
	enc.Emitter().Raw(body.Bytes())
	doc, err := enc.Finish()
	if err != nil {
		return nil, err
	}
	// The entry lies in the document as written; only what Finish declared on
	// the Envelope tag moved it.
	shift := bytes.Index(doc, body.Bytes())
	if shift < 0 {
		return nil, fmt.Errorf("msgcache: request entry not found in its own envelope")
	}
	segments := make([][]byte, 0, len(params)+1)
	from := 0
	for _, h := range holes {
		segments = append(segments, bytes.Clone(doc[from:shift+h[0]]))
		from = shift + h[1]
	}
	return &Template{segments: append(segments, bytes.Clone(doc[from:]))}, nil
}
