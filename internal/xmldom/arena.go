package xmldom

import (
	"io"
	"strings"
	"sync"

	"repro/internal/xmltext"
)

// Arena is a per-request slab allocator for DOM nodes. One decoded
// envelope's elements, text nodes, attribute storage and child slices all
// come from a handful of contiguous slabs instead of hundreds of
// individual heap objects; after the request is assembled the whole arena
// is recycled with ReleaseArena and the next envelope reuses the memory.
//
// Lifecycle contract: every node allocated from an arena is owned by it.
// Nothing reachable from the parsed tree may be retained past
// ReleaseArena — callers that need longer-lived data copy it out (decoded
// parameter values already are copies; header blocks are cloned by the
// server before they cross into application-stage workers). Release zeroes
// the used slab regions, so a violated contract shows up as zeroed or
// freshly-overwritten data, never as another request's values.
//
// A nil *Arena is valid everywhere and falls back to ordinary heap
// allocation, so tree-building code can be written once.
type Arena struct {
	elems []Element
	texts []Text
	attrs []xmltext.Attr
	kids  []Node

	// retired slabs, cleared and dropped on Reset; present only while a
	// single request outgrows the current slab sizes.
	fullElems [][]Element
	fullTexts [][]Text
	fullAttrs [][]xmltext.Attr
	fullKids  [][]Node
}

const (
	arenaMinChunk = 64
	arenaMaxChunk = 16384
	// arenaChildCap is the per-element child-slice capacity carved from
	// the node slab. Elements that outgrow it (Body with many entries)
	// spill to the heap with ordinary append growth.
	arenaChildCap = 2
)

// grow returns the capacity for the next slab of a kind whose current slab
// holds n: slabs double until arenaMaxChunk so steady state is one slab.
func grow(n int) int {
	switch {
	case n == 0:
		return arenaMinChunk
	case n >= arenaMaxChunk:
		return arenaMaxChunk
	default:
		return 2 * n
	}
}

// NewElement allocates an element with the given name from the arena.
func (a *Arena) NewElement(name xmltext.Name) *Element {
	if a == nil {
		return &Element{Name: name}
	}
	if len(a.elems) == cap(a.elems) {
		if cap(a.elems) > 0 {
			a.fullElems = append(a.fullElems, a.elems)
		}
		a.elems = make([]Element, 0, grow(cap(a.elems)))
	}
	a.elems = append(a.elems, Element{Name: name})
	el := &a.elems[len(a.elems)-1]
	el.Children = a.childSlice()
	return el
}

// NewText allocates a text node from the arena.
func (a *Arena) NewText(data string) *Text {
	if a == nil {
		return &Text{Data: data}
	}
	if len(a.texts) == cap(a.texts) {
		if cap(a.texts) > 0 {
			a.fullTexts = append(a.fullTexts, a.texts)
		}
		a.texts = make([]Text, 0, grow(cap(a.texts)))
	}
	a.texts = append(a.texts, Text{Data: data})
	return &a.texts[len(a.texts)-1]
}

// CopyAttrs copies a token's attributes into arena-backed storage and
// returns the copy. The result is capacity-clipped, so a later SetAttr
// reallocates to the heap instead of scribbling on a slab neighbour.
func (a *Arena) CopyAttrs(src []xmltext.Attr) []xmltext.Attr {
	n := len(src)
	if n == 0 {
		return nil
	}
	if a == nil {
		return append([]xmltext.Attr(nil), src...)
	}
	if cap(a.attrs)-len(a.attrs) < n {
		if cap(a.attrs) > 0 {
			a.fullAttrs = append(a.fullAttrs, a.attrs)
		}
		c := grow(cap(a.attrs))
		for c < n {
			c = grow(c)
		}
		a.attrs = make([]xmltext.Attr, 0, c)
	}
	start := len(a.attrs)
	a.attrs = a.attrs[:start+n]
	dst := a.attrs[start : start+n : start+n]
	copy(dst, src)
	return dst
}

// childSlice carves an empty, capacity-clipped child slice from the node
// slab. Appending past arenaChildCap migrates the slice to the heap.
func (a *Arena) childSlice() []Node {
	if a == nil {
		return nil
	}
	if cap(a.kids)-len(a.kids) < arenaChildCap {
		if cap(a.kids) > 0 {
			a.fullKids = append(a.fullKids, a.kids)
		}
		a.kids = make([]Node, 0, grow(cap(a.kids)))
	}
	start := len(a.kids)
	a.kids = a.kids[:start+arenaChildCap]
	return a.kids[start:start:(start + arenaChildCap)]
}

// Reset recycles the arena: every used slab region is zeroed (dropping the
// string and pointer references it held, so request N's values are
// unreachable from request N+1 even through a wrongly-retained node
// pointer) and the largest slab of each kind is kept for reuse.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	clear(a.elems)
	a.elems = a.elems[:0]
	clear(a.texts)
	a.texts = a.texts[:0]
	clear(a.attrs)
	a.attrs = a.attrs[:0]
	clear(a.kids)
	a.kids = a.kids[:0]
	for _, s := range a.fullElems {
		clear(s)
	}
	a.fullElems = nil
	for _, s := range a.fullTexts {
		clear(s)
	}
	a.fullTexts = nil
	for _, s := range a.fullAttrs {
		clear(s)
	}
	a.fullAttrs = nil
	for _, s := range a.fullKids {
		clear(s)
	}
	a.fullKids = nil
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// AcquireArena returns a recycled (or fresh) arena from the process pool.
func AcquireArena() *Arena {
	return arenaPool.Get().(*Arena)
}

// ReleaseArena resets the arena and returns it to the pool. The caller
// must not touch the arena or any node allocated from it afterwards.
func ReleaseArena(a *Arena) {
	if a == nil {
		return
	}
	a.Reset()
	arenaPool.Put(a)
}

// StartElementNode builds the element node for a start token, copying the
// token's attributes into arena storage and attaching it to parent (nil
// for a root).
func StartElementNode(a *Arena, tok *xmltext.Token, parent *Element) *Element {
	el := a.NewElement(tok.Name)
	el.Attrs = a.CopyAttrs(tok.Attrs)
	if parent != nil {
		parent.AddChild(el)
	}
	return el
}

// AppendText attaches one text run to el, merging with a preceding text
// node (CDATA adjacent to character data arrives as separate tokens) in
// amortized time linear in the merged run.
// Short all-whitespace runs — indentation, the dominant text content of
// pretty-printed envelopes — are interned instead of allocated. Streaming
// consumers (soap.StreamDecoder) use it to mirror ParseInArena's text
// handling exactly.
func AppendText(a *Arena, el *Element, raw []byte) {
	if n := len(el.Children); n > 0 {
		if t, ok := el.Children[n-1].(*Text); ok {
			if t.run == nil || t.run.String() != t.Data {
				t.run = new(strings.Builder)
				t.run.WriteString(t.Data)
			}
			t.run.Write(raw)
			t.Data = t.run.String()
			return
		}
	}
	var s string
	if len(raw) <= 32 && xmltext.IsWhitespace(raw) {
		s = xmltext.Intern(raw)
	} else {
		s = string(raw)
	}
	el.AddChild(a.NewText(s))
}

// CompleteSubtree consumes tokens until el's end tag, attaching the whole
// subtree beneath it. The tokenizer must be positioned just after el's
// start token; a self-closing start works too, because its synthetic end
// token is still pending and returns immediately.
func CompleteSubtree(tk *xmltext.Tokenizer, a *Arena, el *Element) error {
	depth := 1
	cur := el
	for {
		tok, err := tk.Next()
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmltext.KindStartElement:
			// Self-closing elements descend too: the tokenizer follows them
			// with a synthetic end token that pops right back.
			cur = StartElementNode(a, &tok, cur)
			depth++
		case xmltext.KindEndElement:
			depth--
			if depth == 0 {
				return nil
			}
			cur = cur.Parent
		case xmltext.KindText:
			AppendText(a, cur, tk.TokenBytes())
		case xmltext.KindComment:
			cur.AddChild(&Comment{Data: tok.Text})
		case xmltext.KindProcInst:
			// Not part of the model.
		}
	}
}

// ParseInArena reads one XML document from r, allocating the tree from the
// arena (heap when a is nil, making this equivalent to Parse). The
// tokenizer reads r to the end before it scans. The returned tree follows
// the arena lifecycle contract.
func ParseInArena(r io.Reader, a *Arena) (*Element, error) {
	tk := xmltext.NewTokenizer(r)
	tk.SetRawText(true)
	tk.SetReuseTokenAttrs(true)
	return parseDocument(tk, a)
}

// ParseBytesInArena is ParseInArena over an in-memory document, run on a
// pooled tokenizer that scans b where it lies: repeated decodes allocate
// no tokenizer and copy no input. The returned tree copies
// everything it keeps (names are interned, text and attribute values are
// materialized), so it never aliases the tokenizer or b.
func ParseBytesInArena(b []byte, a *Arena) (*Element, error) {
	tk := xmltext.AcquireTokenizer(b)
	tk.SetRawText(true)
	tk.SetReuseTokenAttrs(true)
	el, err := parseDocument(tk, a)
	xmltext.ReleaseTokenizer(tk)
	return el, err
}

// parseDocument reads a whole document from an already-configured
// tokenizer. Shared by Parse and ParseInArena.
func parseDocument(tk *xmltext.Tokenizer, a *Arena) (*Element, error) {
	var root *Element
	for {
		tok, err := tk.Next()
		if err == io.EOF {
			if root == nil {
				return nil, errEmptyDocument
			}
			return root, nil
		}
		if err != nil {
			return nil, err
		}
		if tok.Kind != xmltext.KindStartElement {
			// Comments, PIs and the XML declaration outside the root are
			// discarded, as in Parse.
			continue
		}
		root = StartElementNode(a, &tok, nil)
		// For a self-closing root the first token CompleteSubtree sees is
		// the synthetic end, so this returns immediately.
		if err := CompleteSubtree(tk, a, root); err != nil {
			return nil, err
		}
	}
}
