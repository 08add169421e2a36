// Package xmltext implements an XML 1.0 tokenizer and writer.
//
// It is the lowest layer of the SOAP stack: everything above it (DOM,
// envelope codec, typed values) is built on the Token stream produced here.
// The tokenizer is a pull parser in the spirit of SAX: the caller repeatedly
// asks for the next token and decides what to do with it, so no tree is
// built at this layer. It scans a document already in memory (every message
// body is read whole before it is parsed) and hands out text and names where
// they lie in it.
//
// The dialect accepted is the subset of XML 1.0 that appears on the wire in
// SOAP exchanges: elements, attributes, character data, CDATA sections,
// comments, processing instructions and the XML declaration. DOCTYPE
// declarations are rejected (they are forbidden by the SOAP specification
// and are a classic denial-of-service vector).
package xmltext

import (
	"fmt"
	"strings"
)

// Name is a possibly-prefixed XML name as it appears in the document,
// e.g. "s:Envelope" has Prefix "s" and Local "Envelope".
// Namespace resolution (prefix to URI) is performed by package xmldom.
type Name struct {
	Prefix string
	Local  string
}

// String returns the name in prefix:local form.
func (n Name) String() string {
	if n.Prefix == "" {
		return n.Local
	}
	return n.Prefix + ":" + n.Local
}

// IsZero reports whether the name is empty.
func (n Name) IsZero() bool { return n.Prefix == "" && n.Local == "" }

// ParseName splits a raw XML name into prefix and local part.
// A name with no colon has an empty prefix.
func ParseName(raw string) Name {
	if i := strings.IndexByte(raw, ':'); i >= 0 {
		return Name{Prefix: raw[:i], Local: raw[i+1:]}
	}
	return Name{Local: raw}
}

// Attr is a single attribute of a start-element token. Values are stored
// fully unescaped.
type Attr struct {
	Name  Name
	Value string
}

// Kind identifies the type of a Token.
type Kind int

// Token kinds produced by the Tokenizer.
const (
	// KindStartElement is "<name attr=...>" or "<name/>"; see Token.SelfClosing.
	// The zero Kind is no token.
	KindStartElement Kind = iota + 1
	// KindEndElement is "</name>". Self-closing elements produce a synthetic
	// end token immediately after their start token.
	KindEndElement
	// KindText is character data between markup, fully unescaped.
	// CDATA sections are delivered as text.
	KindText
	// KindComment is "<!-- ... -->"; Text holds the comment body.
	KindComment
	// KindProcInst is "<?target data?>", including the XML declaration
	// (target "xml").
	KindProcInst
)

// String returns a human-readable kind name, for error messages and tests.
func (k Kind) String() string {
	switch k {
	case KindStartElement:
		return "StartElement"
	case KindEndElement:
		return "EndElement"
	case KindText:
		return "Text"
	case KindComment:
		return "Comment"
	case KindProcInst:
		return "ProcInst"
	default:
		return "Invalid"
	}
}

// Token is one lexical unit of the document.
type Token struct {
	Kind        Kind
	Name        Name   // element name, for Start/EndElement
	Attrs       []Attr // attributes, for StartElement
	Text        string // content, for Text/Comment/ProcInst
	Target      string // processing-instruction target, for ProcInst
	SelfClosing bool   // true for "<name/>"; a synthetic EndElement follows
}

// Pos is a position in the input, for error reporting. Lines and columns
// are 1-based; columns count bytes, not runes.
type Pos struct {
	Line int
	Col  int
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// SyntaxError describes malformed XML input.
type SyntaxError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmltext: syntax error at %s: %s", e.Pos, e.Msg)
}
