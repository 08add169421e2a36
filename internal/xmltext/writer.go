package xmltext

import (
	"bufio"
	"fmt"
	"io"
)

// Writer emits well-formed XML token by token. It is the inverse of
// Tokenizer: the byte stream it produces tokenizes back to the same logical
// document.
//
// A Writer tracks open elements and refuses to produce mismatched tags. All
// text and attribute values are escaped automatically. Errors are sticky:
// after the first failure every method is a no-op and Flush reports the
// error, so call sites can emit a whole document and check once.
type Writer struct {
	w      *bufio.Writer
	err    error
	stack  []Name
	indent string // "" means compact output
	// inOpenTag is true after StartElement until the '>' is written, which
	// happens lazily so self-closing tags can be detected.
	inOpenTag bool
	openName  Name
	openAttrs []Attr
	// hadChildren tracks whether the current element has any child content,
	// for indentation decisions.
	hadText bool
	// startedDoc is true once anything has been emitted, so indentation
	// never inserts a leading newline before the root element.
	startedDoc bool
}

// NewWriter returns a Writer emitting compact (no extra whitespace) XML to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 16<<10)}
}

// NewIndentWriter returns a Writer that indents nested elements with the
// given unit string (e.g. two spaces). Indentation is for human-facing
// output only; it inserts whitespace text nodes between elements.
func NewIndentWriter(w io.Writer, indent string) *Writer {
	nw := NewWriter(w)
	nw.indent = indent
	return nw
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) setErr(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

func (w *Writer) writeString(s string) {
	if w.err != nil {
		return
	}
	_, err := w.w.WriteString(s)
	w.setErr(err)
}

func (w *Writer) writeByte(c byte) {
	if w.err != nil {
		return
	}
	w.setErr(w.w.WriteByte(c))
}

// flushOpenTag completes a pending start tag. selfClose selects "/>".
func (w *Writer) flushOpenTag(selfClose bool) {
	if !w.inOpenTag {
		return
	}
	w.writeByte('<')
	w.writeString(w.openName.String())
	for _, a := range w.openAttrs {
		w.writeByte(' ')
		w.writeString(a.Name.String())
		w.writeString(`="`)
		w.writeString(EscapeAttr(a.Value))
		w.writeByte('"')
	}
	if selfClose {
		w.writeString("/>")
	} else {
		w.writeByte('>')
	}
	w.inOpenTag = false
	w.openAttrs = w.openAttrs[:0]
}

func (w *Writer) newlineIndent(depth int) {
	if w.indent == "" {
		return
	}
	w.writeByte('\n')
	for i := 0; i < depth; i++ {
		w.writeString(w.indent)
	}
}

// StartElement opens an element. Its tag bytes are emitted lazily so that
// an immediately following EndElement produces a self-closing tag.
func (w *Writer) StartElement(name Name, attrs ...Attr) {
	if w.err != nil {
		return
	}
	if name.Local == "" {
		w.setErr(fmt.Errorf("xmltext: empty element name"))
		return
	}
	if w.inOpenTag {
		w.flushOpenTag(false)
	}
	if w.startedDoc && !w.hadText {
		w.newlineIndent(len(w.stack))
	}
	w.startedDoc = true
	w.stack = append(w.stack, name)
	w.inOpenTag = true
	w.openName = name
	w.openAttrs = append(w.openAttrs, attrs...)
	w.hadText = false
}

// Attr adds an attribute to the element opened by the preceding
// StartElement. It must be called before any content is written.
func (w *Writer) Attr(name Name, value string) {
	if w.err != nil {
		return
	}
	if !w.inOpenTag {
		w.setErr(fmt.Errorf("xmltext: Attr(%s) outside of start tag", name))
		return
	}
	w.openAttrs = append(w.openAttrs, Attr{Name: name, Value: value})
}

// EndElement closes the most recently opened element.
func (w *Writer) EndElement() {
	if w.err != nil {
		return
	}
	if len(w.stack) == 0 {
		w.setErr(fmt.Errorf("xmltext: EndElement with no open element"))
		return
	}
	name := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	if w.inOpenTag {
		w.flushOpenTag(true)
		w.hadText = false
		return
	}
	if !w.hadText {
		w.newlineIndent(len(w.stack))
	}
	w.writeString("</")
	w.writeString(name.String())
	w.writeByte('>')
	w.hadText = false
}

// Text writes character data inside the current element, in the shorter of
// its two spellings (see AppendCharData).
func (w *Writer) Text(s string) {
	if w.err != nil {
		return
	}
	if len(w.stack) == 0 {
		w.setErr(fmt.Errorf("xmltext: text outside root element"))
		return
	}
	w.flushOpenTag(false)
	if w.err == nil {
		_, err := w.w.Write(AppendCharData(w.w.AvailableBuffer(), s))
		w.setErr(err)
	}
	w.hadText = true
}

// Comment writes an XML comment. The body must not contain "--".
func (w *Writer) Comment(s string) {
	if w.err != nil {
		return
	}
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '-' && s[i+1] == '-' {
			w.setErr(fmt.Errorf("xmltext: comment contains %q", "--"))
			return
		}
	}
	w.flushOpenTag(false)
	w.newlineIndent(len(w.stack))
	w.writeString("<!--")
	w.writeString(s)
	w.writeString("-->")
}

// WriteToken writes a token produced by a Tokenizer, enabling streaming
// copy/transform pipelines.
func (w *Writer) WriteToken(tok Token) {
	switch tok.Kind {
	case KindStartElement:
		w.StartElement(tok.Name, tok.Attrs...)
		if tok.SelfClosing {
			// The matching synthetic EndElement will arrive next; nothing
			// special to do because tags are emitted lazily.
		}
	case KindEndElement:
		w.EndElement()
	case KindText:
		w.Text(tok.Text)
	case KindComment:
		w.Comment(tok.Text)
	case KindProcInst:
		w.flushOpenTag(false)
		w.writeString("<?")
		w.writeString(tok.Target)
		if tok.Text != "" {
			w.writeByte(' ')
			w.writeString(tok.Text)
		}
		w.writeString("?>")
	default:
		w.setErr(fmt.Errorf("xmltext: cannot write token of kind %v", tok.Kind))
	}
}

// Flush completes the document and flushes buffered output. It fails if any
// element is still open or any earlier call failed.
func (w *Writer) Flush() error {
	if w.err == nil && (len(w.stack) > 0 || w.inOpenTag) {
		w.setErr(fmt.Errorf("xmltext: Flush with %d unclosed element(s)", len(w.stack)))
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}
