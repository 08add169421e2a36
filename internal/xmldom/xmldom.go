// Package xmldom provides a small document object model on top of the
// xmltext token stream.
//
// The SOAP layers use it to build and inspect envelopes: elements carry
// resolved namespace URIs, children keep document order, and serialization
// reproduces a document that parses back to an equivalent tree. The model is
// intentionally minimal — no DTDs, no entity customization — matching what
// SOAP 1.1 traffic requires.
package xmldom

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/xmltext"
)

// Standard namespace URIs used throughout the stack.
const (
	// NSXMLNS is the reserved namespace of xmlns declarations themselves.
	NSXMLNS = "http://www.w3.org/2000/xmlns/"
	// NSXML is the reserved namespace bound to the "xml" prefix.
	NSXML = "http://www.w3.org/XML/1998/namespace"
)

// Node is one node of the tree: *Element, *Text or *Comment.
type Node interface {
	node()
	// appendTo emits the node into an xmltext.Emitter.
	appendTo(e *xmltext.Emitter)
}

// Text is a character-data node.
type Text struct {
	Data string
	// run holds Data's bytes while AppendText extends the node, so a run of
	// adjacent text tokens is joined in linear time; Data is run's string.
	run *strings.Builder
}

func (*Text) node() {}

func (t *Text) appendTo(e *xmltext.Emitter) { e.Text(t.Data) }

// Comment is a comment node.
type Comment struct {
	Data string
}

func (*Comment) node() {}

func (c *Comment) appendTo(e *xmltext.Emitter) { e.Comment(c.Data) }

// Element is an XML element. Namespace declarations (xmlns / xmlns:p
// attributes) are kept in Attrs verbatim; prefix resolution walks the
// parent chain, so subtrees can be moved between documents as long as the
// needed declarations move with them.
type Element struct {
	Name     xmltext.Name
	Attrs    []xmltext.Attr
	Children []Node
	Parent   *Element
}

func (*Element) node() {}

// NewElement returns an element with the given prefixed name.
func NewElement(name xmltext.Name) *Element {
	return &Element{Name: name}
}

// AddChild appends a child node. If the node is an element its Parent is
// set to e.
func (e *Element) AddChild(n Node) {
	if c, ok := n.(*Element); ok {
		c.Parent = e
	}
	e.Children = append(e.Children, n)
}

// AddElement creates an element with the given name, appends it and returns
// it, enabling fluent tree construction.
func (e *Element) AddElement(name xmltext.Name) *Element {
	c := NewElement(name)
	e.AddChild(c)
	return c
}

// SetAttr sets (or replaces) an attribute.
func (e *Element) SetAttr(name xmltext.Name, value string) {
	for i := range e.Attrs {
		if e.Attrs[i].Name == name {
			e.Attrs[i].Value = value
			return
		}
	}
	e.Attrs = append(e.Attrs, xmltext.Attr{Name: name, Value: value})
}

// Attr returns the value of the attribute with the given prefixed name.
func (e *Element) Attr(name xmltext.Name) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrValue is Attr with a "" default, for optional attributes.
func (e *Element) AttrValue(name xmltext.Name) string {
	v, _ := e.Attr(name)
	return v
}

// DeclareNamespace adds an xmlns declaration binding prefix to uri on this
// element. An empty prefix declares the default namespace.
func (e *Element) DeclareNamespace(prefix, uri string) {
	if prefix == "" {
		e.SetAttr(xmltext.Name{Local: "xmlns"}, uri)
		return
	}
	e.SetAttr(xmltext.Name{Prefix: "xmlns", Local: prefix}, uri)
}

// ResolvePrefix resolves a namespace prefix to a URI by walking this element
// and its ancestors. The empty prefix resolves the default namespace. The
// reserved prefixes "xml" and "xmlns" resolve to their fixed URIs.
func (e *Element) ResolvePrefix(prefix string) (string, bool) {
	switch prefix {
	case "xml":
		return NSXML, true
	case "xmlns":
		return NSXMLNS, true
	}
	for el := e; el != nil; el = el.Parent {
		for _, a := range el.Attrs {
			if prefix == "" {
				if a.Name.Prefix == "" && a.Name.Local == "xmlns" {
					return a.Value, a.Value != ""
				}
			} else if a.Name.Prefix == "xmlns" && a.Name.Local == prefix {
				return a.Value, true
			}
		}
	}
	return "", prefix == "" // unbound default namespace means "no namespace"
}

// Namespace returns the resolved namespace URI of the element itself.
func (e *Element) Namespace() string {
	uri, _ := e.ResolvePrefix(e.Name.Prefix)
	return uri
}

// Is reports whether the element has the given namespace URI and local name.
func (e *Element) Is(ns, local string) bool {
	return e.Name.Local == local && e.Namespace() == ns
}

// ChildElements returns the element children, in document order.
func (e *Element) ChildElements() []*Element {
	var out []*Element
	for _, n := range e.Children {
		if c, ok := n.(*Element); ok {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first child element with the given namespace URI and
// local name, or nil. An empty ns matches any namespace.
func (e *Element) Child(ns, local string) *Element {
	for _, n := range e.Children {
		c, ok := n.(*Element)
		if !ok {
			continue
		}
		if c.Name.Local == local && (ns == "" || c.Namespace() == ns) {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all child elements with the given namespace URI and
// local name. An empty ns matches any namespace.
func (e *Element) ChildrenNamed(ns, local string) []*Element {
	var out []*Element
	for _, n := range e.Children {
		c, ok := n.(*Element)
		if !ok {
			continue
		}
		if c.Name.Local == local && (ns == "" || c.Namespace() == ns) {
			out = append(out, c)
		}
	}
	return out
}

// Text returns the concatenation of the element's direct text children.
func (e *Element) Text() string {
	// A decoded leaf almost always holds exactly one text child; return its
	// data without going through a builder (and its heap copy).
	if len(e.Children) == 1 {
		if t, ok := e.Children[0].(*Text); ok {
			return t.Data
		}
	}
	var b strings.Builder
	for _, n := range e.Children {
		if t, ok := n.(*Text); ok {
			b.WriteString(t.Data)
		}
	}
	return b.String()
}

// SetText replaces the element's children with a single text node.
func (e *Element) SetText(s string) {
	e.Children = e.Children[:0]
	e.AddChild(&Text{Data: s})
}

// Clone returns a deep copy of the subtree rooted at e. The clone's Parent
// is nil; namespace declarations inherited from ancestors of e are copied
// onto the clone, nearest ancestor first, so resolution keeps working when
// the subtree is re-homed. The attribute list is sized once, at an upper
// bound, rather than grown a declaration at a time.
func (e *Element) Clone() *Element {
	n := len(e.Attrs)
	for anc := e.Parent; anc != nil; anc = anc.Parent {
		n += len(anc.Attrs)
	}
	c := &Element{Name: e.Name}
	if n > 0 {
		c.Attrs = append(make([]xmltext.Attr, 0, n), e.Attrs...)
	}
	for anc := e.Parent; anc != nil; anc = anc.Parent {
		for _, a := range anc.Attrs {
			decl := a.Name.Prefix == "xmlns" || (a.Name.Prefix == "" && a.Name.Local == "xmlns")
			if _, bound := c.Attr(a.Name); decl && !bound {
				c.Attrs = append(c.Attrs, a)
			}
		}
	}
	e.cloneChildrenTo(c)
	return c
}

func (e *Element) cloneShallow(parent *Element) *Element {
	c := &Element{
		Name:   e.Name,
		Attrs:  append([]xmltext.Attr(nil), e.Attrs...),
		Parent: parent,
	}
	e.cloneChildrenTo(c)
	return c
}

// cloneChildrenTo deep-copies e's children onto c.
func (e *Element) cloneChildrenTo(c *Element) {
	for _, n := range e.Children {
		switch n := n.(type) {
		case *Element:
			c.Children = append(c.Children, n.cloneShallow(c))
		case *Text:
			c.Children = append(c.Children, &Text{Data: n.Data})
		case *Comment:
			c.Children = append(c.Children, &Comment{Data: n.Data})
		}
	}
}

func (e *Element) appendTo(em *xmltext.Emitter) {
	em.Start(e.Name)
	for _, a := range e.Attrs {
		em.Attr(a.Name, a.Value)
	}
	for _, n := range e.Children {
		n.appendTo(em)
	}
	em.End()
}

// AppendTo emits the subtree rooted at e into em: the bytes Serialize and
// String write for the same tree.
func (e *Element) AppendTo(em *xmltext.Emitter) { e.appendTo(em) }

// AppendNode emits any node into em — the package-external entry point for
// streaming mixed child lists (elements, text, comments) without a DOM
// type switch at each call site.
func AppendNode(n Node, em *xmltext.Emitter) { n.appendTo(em) }

// Serialize writes the subtree rooted at e as a complete document
// (without an XML declaration) to w, in one Write.
func (e *Element) Serialize(w io.Writer) error {
	em := xmltext.AcquireEmitter()
	defer xmltext.ReleaseEmitter(em)
	e.appendTo(em)
	if err := em.Finish(); err != nil {
		return err
	}
	_, err := w.Write(em.Bytes())
	return err
}

// WriteDocument serializes e as a full document with the XML declaration,
// for documents that travel without a Content-Type charset to say the same
// (the WSDL a GET returns). SOAP envelopes are written by Serialize.
func (e *Element) WriteDocument(w io.Writer) error {
	if _, err := io.WriteString(w, `<?xml version="1.0" encoding="UTF-8"?>`); err != nil {
		return err
	}
	return e.Serialize(w)
}

// String returns the compact serialization, for logs and tests.
func (e *Element) String() string {
	var b strings.Builder
	if err := e.Serialize(&b); err != nil {
		return fmt.Sprintf("<!ERROR %v>", err)
	}
	return b.String()
}

var errEmptyDocument = fmt.Errorf("xmldom: empty document")

// Parse reads one XML document from r and returns its root element.
// Comments are preserved inside the tree; the XML declaration and anything
// else outside the root element are discarded. The tree is heap-allocated
// and unrestricted in lifetime; the decode hot path uses ParseInArena
// instead.
func Parse(r io.Reader) (*Element, error) {
	return ParseInArena(r, nil)
}

// ParseString is Parse over a string, a convenience for tests.
func ParseString(s string) (*Element, error) {
	return Parse(strings.NewReader(s))
}

// Equal reports whether two subtrees are structurally equal: same names,
// same attributes (order-insensitive), same children (order-sensitive,
// ignoring comments and whitespace-only text).
func Equal(a, b *Element) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name {
		return false
	}
	if !attrsEqual(a.Attrs, b.Attrs) {
		return false
	}
	ac, bc := significantChildren(a), significantChildren(b)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		switch an := ac[i].(type) {
		case *Element:
			bn, ok := bc[i].(*Element)
			if !ok || !Equal(an, bn) {
				return false
			}
		case *Text:
			bn, ok := bc[i].(*Text)
			if !ok || an.Data != bn.Data {
				return false
			}
		}
	}
	return true
}

func attrsEqual(a, b []xmltext.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for _, aa := range a {
		found := false
		for _, bb := range b {
			if aa == bb {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func significantChildren(e *Element) []Node {
	var out []Node
	for _, n := range e.Children {
		switch n := n.(type) {
		case *Comment:
			continue
		case *Text:
			if strings.TrimSpace(n.Data) == "" {
				continue
			}
			out = append(out, n)
		default:
			out = append(out, n)
		}
	}
	return out
}
