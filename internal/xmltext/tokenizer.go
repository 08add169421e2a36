package xmltext

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"unicode/utf8"
)

// Limits guarding against pathological or hostile input. They are generous
// for SOAP traffic (the paper's largest experiment packs 128 x 100 KB
// payloads into one envelope, well under these caps).
const (
	// MaxDepth is the maximum element nesting depth.
	MaxDepth = 1024
	// MaxTokenBytes is the maximum size of a single token (one text run,
	// one start tag including attributes, one comment, ...).
	MaxTokenBytes = 256 << 20
	// MaxAttrs is the maximum number of attributes on one element.
	MaxAttrs = 1024
)

// UTF8BOM is the byte order mark a UTF-8 document may begin with.
var UTF8BOM = []byte("\xEF\xBB\xBF")

// Tokenizer reads the XML tokens of a document held in memory.
//
// It scans the document's bytes from an offset: each token is one scan of
// the rest of the slice, and a line and column are worked out from the
// offset only when a SyntaxError is built. The zero value tokenizes an empty
// document; call NewTokenizer, ResetBytes or AcquireTokenizer. A Tokenizer
// checks well-formedness incrementally: tags must nest properly, attribute
// names must be unique per element, and exactly one root element is allowed.
type Tokenizer struct {
	doc  []byte
	off  int    // offset of the first byte not yet consumed
	err  error  // sticky error
	open []Name // stack of open elements

	// pendingEnd is set after a self-closing start tag so the next call
	// returns the synthetic end token.
	pendingEnd Name
	hasPending bool

	rootClosed bool // the root element has been closed

	text []byte // the last Text or ProcInst token's content (TokenBytes)
	buf  []byte // scratch for text and attribute values with references

	// rawText suppresses string materialization for Text tokens: the
	// caller reads the content through TokenBytes instead. See SetRawText.
	rawText bool
	// reuseAttrs makes successive start tokens share one Attrs backing
	// array. See SetReuseTokenAttrs.
	reuseAttrs bool
	attrs      []Attr // scratch for Token.Attrs when reuseAttrs is set
}

// NewTokenizer returns a Tokenizer over everything r holds: it reads r to
// the end first, into one allocation when r tells its length (as a
// bytes.Reader or strings.Reader does). A read error is what the first call
// to Next returns.
func NewTokenizer(r io.Reader) *Tokenizer {
	t := &Tokenizer{}
	if r != nil {
		var size int
		if sized, ok := r.(interface{ Len() int }); ok {
			size = sized.Len()
		}
		doc := bytes.NewBuffer(make([]byte, 0, size))
		_, err := io.Copy(doc, r)
		t.ResetBytes(doc.Bytes())
		t.err = err
	}
	return t
}

// ResetBytes prepares t to read the document b, discarding all state from
// the previous document while keeping grown scratch buffers. Raw-text and
// attribute-reuse modes persist across resets.
func (t *Tokenizer) ResetBytes(b []byte) {
	t.doc = b
	t.off = 0
	t.err = nil
	t.open = t.open[:0]
	t.pendingEnd = Name{}
	t.hasPending = false
	t.rootClosed = false
	t.text = nil
}

// tokenizerPool recycles Tokenizers — their element stacks and scratch
// buffers — across documents for the decode hot paths.
var tokenizerPool = sync.Pool{New: func() any { return &Tokenizer{} }}

// AcquireTokenizer returns a pooled Tokenizer positioned at the start of
// the in-memory document b, with raw-text and attribute-reuse modes off
// (callers enable what they need). Pass it to ReleaseTokenizer when done;
// after that neither the Tokenizer nor any TokenBytes slice obtained from
// it may be used.
func AcquireTokenizer(b []byte) *Tokenizer {
	t := tokenizerPool.Get().(*Tokenizer)
	t.rawText = false
	t.reuseAttrs = false
	t.ResetBytes(b)
	return t
}

// ReleaseTokenizer returns a Tokenizer obtained from AcquireTokenizer to
// the pool. It drops the reference to the caller's document so the pool
// never pins request bodies.
func ReleaseTokenizer(t *Tokenizer) {
	t.ResetBytes(nil)
	tokenizerPool.Put(t)
}

// SetRawText switches Text and ProcInst tokens to zero-copy delivery:
// their Text field stays empty and the content is read through TokenBytes
// instead, valid only until the next call to Next. Comment tokens are
// unaffected (they are not on any hot path). Callers that keep text beyond
// one token — like the DOM builder — copy it themselves, which lets them
// skip the copy entirely for whitespace runs and other text they discard
// (both hot consumers discard the XML declaration outright).
func (t *Tokenizer) SetRawText(on bool) { t.rawText = on }

// SetReuseTokenAttrs makes every start-element token share one attribute
// backing array: Token.Attrs is only valid until the next call to Next.
// Callers that copy attributes out immediately (the DOM builder does) save
// one allocation per element.
func (t *Tokenizer) SetReuseTokenAttrs(on bool) { t.reuseAttrs = on }

// TokenBytes returns the raw content bytes of the most recent Text token
// (and, under SetRawText, the only way to read it). The slice aliases the
// document or the tokenizer's scratch buffer: it is valid only until the
// next call to Next and must not be modified.
func (t *Tokenizer) TokenBytes() []byte { return t.text }

// InputOffset returns the number of input bytes consumed so far: the byte
// offset of the first unconsumed byte. After Next returns a token whose
// markup ends at the offset boundary (a start or end tag), the offset
// points just past that tag's closing '>'. Synthetic end tokens for
// self-closing tags consume no input, so the offset is stable across them.
// Combined with ResetBytes/AcquireTokenizer over an in-memory document,
// this lets callers recover the exact raw byte span of a subtree.
func (t *Tokenizer) InputOffset() int64 { return int64(t.off) }

// syntaxErr stops the tokenizer at offset at with a sticky SyntaxError.
func (t *Tokenizer) syntaxErr(at int, format string, args ...any) error {
	t.off = at
	err := &SyntaxError{Pos: t.position(), Msg: fmt.Sprintf(format, args...)}
	t.err = err
	return err
}

// position is the line and column of the offset: 1 plus the newlines before
// it, and 1 plus the bytes since the last of them.
func (t *Tokenizer) position() Pos {
	seen := t.doc[:t.off]
	return Pos{Line: 1 + bytes.Count(seen, []byte{'\n'}), Col: t.off - bytes.LastIndexByte(seen, '\n')}
}

// Next returns the next token. At end of input it returns io.EOF. Once any
// error has been returned, every subsequent call returns the same error.
func (t *Tokenizer) Next() (Token, error) {
	if t.err != nil {
		return Token{}, t.err
	}
	if t.hasPending {
		t.hasPending = false
		name := t.pendingEnd
		t.popElement()
		return Token{Kind: KindEndElement, Name: name}, nil
	}
	switch i := t.off + 1; {
	case t.off == len(t.doc) && len(t.open) > 0:
		return Token{}, t.syntaxErr(t.off, "unexpected EOF: element <%s> not closed", t.open[len(t.open)-1])
	case t.off == len(t.doc) && !t.rootClosed:
		return Token{}, t.syntaxErr(t.off, "unexpected EOF: no root element")
	case t.off == len(t.doc):
		t.err = io.EOF
		return Token{}, io.EOF
	case t.doc[t.off] != '<':
		return t.readText()
	case i == len(t.doc):
		return Token{}, t.syntaxErr(i, "unexpected EOF after '<'")
	case t.doc[i] == '/':
		return t.readEndTag(i + 1)
	case t.doc[i] == '!':
		return t.readBang(i + 1)
	case t.doc[i] == '?':
		return t.readProcInst(i + 1)
	}
	return t.readStartTag(t.off + 1)
}

// readText consumes character data up to the next '<' (or the end) and
// returns it as a single text token, with entities decoded. Text with no
// reference is handed out where it lies in the document; a run between
// references is copied once.
func (t *Tokenizer) readText() (Token, error) {
	d, start := t.doc, t.off
	i, from := start, start // from: the first byte not yet copied to buf
	t.buf = t.buf[:0]
	for {
		k := bytes.IndexAny(d[i:], "<&")
		if k < 0 {
			i = len(d)
			break
		}
		if i += k; d[i] == '<' {
			break
		}
		t.buf = append(t.buf, d[from:i]...)
		r, next, err := t.readEntity(i + 1)
		if err != nil {
			return Token{}, err
		}
		t.buf = utf8.AppendRune(t.buf, r)
		i, from = next, next
	}
	t.off = i
	t.text = d[start:i:i]
	if from != start {
		t.buf = append(t.buf, d[from:i]...)
		t.text = t.buf
	}
	if len(t.text) > MaxTokenBytes {
		return Token{}, t.syntaxErr(i, "text token exceeds %d bytes", MaxTokenBytes)
	}
	if len(t.open) == 0 {
		// Outside the root element only whitespace is allowed. Checked on
		// the raw bytes: this run is discarded either way, so it never
		// needs to become a string at all.
		text := t.text
		if t.off == len(text) {
			// The document's first bytes: a UTF-8 byte order mark may lead
			// them (the encoding declaration it stands in for is optional).
			text = bytes.TrimPrefix(text, UTF8BOM)
		}
		if !IsWhitespace(text) {
			return Token{}, t.syntaxErr(i, "character data outside root element")
		}
		// Skip it and continue with the following markup or EOF.
		return t.Next()
	}
	if t.rawText {
		return Token{Kind: KindText}, nil
	}
	return Token{Kind: KindText, Text: string(t.text)}, nil
}

// maxEntityName bounds the name between '&' and ';'.
const maxEntityName = 32

// readEntity decodes the entity reference whose name starts at i, just past
// its '&', and returns the offset past its ';'. The name is matched where it
// lies in the document, so a reference costs no allocation.
func (t *Tokenizer) readEntity(i int) (rune, int, error) {
	ref := t.doc[i:min(i+maxEntityName+1, len(t.doc))]
	semi := bytes.IndexByte(ref, ';')
	if semi < 0 {
		if len(ref) <= maxEntityName {
			return 0, 0, t.syntaxErr(i+len(ref), "unterminated entity reference")
		}
		return 0, 0, t.syntaxErr(i+len(ref), "entity reference too long")
	}
	r, msg := decodeEntity(ref[:semi])
	if msg != "" {
		return 0, 0, t.syntaxErr(i+semi+1, "%s", msg)
	}
	return r, i + semi + 1, nil
}

// decodeEntity resolves the name of a reference ("lt", "#x3C") to its
// character, or says why it cannot.
func decodeEntity(name []byte) (r rune, msg string) {
	switch string(name) {
	case "lt":
		return '<', ""
	case "gt":
		return '>', ""
	case "amp":
		return '&', ""
	case "quot":
		return '"', ""
	case "apos":
		return '\'', ""
	}
	if len(name) > 0 && name[0] == '#' {
		return decodeCharRef(name[1:])
	}
	return 0, fmt.Sprintf("unknown entity &%s;", name)
}

func decodeCharRef(s []byte) (r rune, msg string) {
	base := 10
	if len(s) > 0 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, "empty character reference"
	}
	var n int64
	for _, c := range s {
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, fmt.Sprintf("bad character reference &#%s;", s)
		}
		n = n*int64(base) + d
		if n > utf8.MaxRune {
			return 0, "character reference out of range"
		}
	}
	if !isValidXMLChar(rune(n)) {
		return 0, fmt.Sprintf("character reference U+%04X is not a valid XML character", n)
	}
	return rune(n), ""
}

// isValidXMLChar reports whether r is allowed in XML 1.0 content.
func isValidXMLChar(r rune) bool {
	switch {
	case r == '\t' || r == '\n' || r == '\r':
		return true
	case r >= 0x20 && r <= 0xD7FF:
		return true
	case r >= 0xE000 && r <= 0xFFFD:
		return true
	case r >= 0x10000 && r <= 0x10FFFF:
		return true
	}
	return false
}

// readStartTag parses "<name attr='v' ...>" or "<name ... />" from the name
// at i.
func (t *Tokenizer) readStartTag(i int) (Token, error) {
	if t.rootClosed {
		return Token{}, t.syntaxErr(i, "content after root element")
	}
	end, err := t.scanName(i)
	if err != nil {
		return Token{}, err
	}
	name := InternName(t.doc[i:end])
	tok := Token{Kind: KindStartElement, Name: name}
	if t.reuseAttrs {
		tok.Attrs = t.attrs[:0]
	}
	for i = end; ; {
		i = t.skipSpace(i)
		if i == len(t.doc) {
			return Token{}, t.syntaxErr(i, "unexpected EOF in tag <%s>", name)
		}
		switch t.doc[i] {
		case '>':
			t.off = i + 1
			t.pushElement(name)
			if t.reuseAttrs {
				t.attrs = tok.Attrs
			}
			return tok, t.err
		case '/':
			if i+1 == len(t.doc) || t.doc[i+1] != '>' {
				return Token{}, t.syntaxErr(min(i+2, len(t.doc)), "expected '>' after '/' in tag <%s>", name)
			}
			t.off = i + 2
			tok.SelfClosing = true
			t.pushElement(name)
			if t.err != nil {
				return Token{}, t.err
			}
			t.pendingEnd = name
			t.hasPending = true
			if t.reuseAttrs {
				t.attrs = tok.Attrs
			}
			return tok, nil
		}
		attr, next, err := t.readAttr(i)
		if err != nil {
			return Token{}, err
		}
		for _, a := range tok.Attrs {
			if a.Name == attr.Name {
				return Token{}, t.syntaxErr(next, "duplicate attribute %q in tag <%s>", attr.Name, name)
			}
		}
		if len(tok.Attrs) >= MaxAttrs {
			return Token{}, t.syntaxErr(next, "too many attributes in tag <%s>", name)
		}
		tok.Attrs = append(tok.Attrs, attr)
		i = next
	}
}

func (t *Tokenizer) pushElement(name Name) {
	if len(t.open) >= MaxDepth {
		t.syntaxErr(t.off, "element nesting exceeds depth %d", MaxDepth)
		return
	}
	t.open = append(t.open, name)
}

func (t *Tokenizer) popElement() {
	t.open = t.open[:len(t.open)-1]
	t.rootClosed = len(t.open) == 0
}

// readEndTag parses "</name>" from the name at i.
func (t *Tokenizer) readEndTag(i int) (Token, error) {
	end, err := t.scanName(i)
	if err != nil {
		return Token{}, err
	}
	name := InternName(t.doc[i:end])
	if i = t.skipSpace(end); i == len(t.doc) {
		return Token{}, t.syntaxErr(i, "unexpected EOF in end tag </%s>", name)
	}
	if t.doc[i] != '>' {
		return Token{}, t.syntaxErr(i+1, "expected '>' in end tag </%s>", name)
	}
	if len(t.open) == 0 {
		return Token{}, t.syntaxErr(i+1, "end tag </%s> with no open element", name)
	}
	if top := t.open[len(t.open)-1]; top != name {
		return Token{}, t.syntaxErr(i+1, "end tag </%s> does not match <%s>", name, top)
	}
	t.off = i + 1
	t.popElement()
	return Token{Kind: KindEndElement, Name: name}, nil
}

// readBang handles "<!--", "<![CDATA[" and "<!DOCTYPE"; i is past "<!".
func (t *Tokenizer) readBang(i int) (Token, error) {
	if i == len(t.doc) {
		return Token{}, t.syntaxErr(i, "unexpected EOF after '<!'")
	}
	switch t.doc[i] {
	case '-':
		return t.readComment(i)
	case '[':
		return t.readCDATA(i)
	default:
		return Token{}, t.syntaxErr(i, "DOCTYPE and other declarations are not allowed")
	}
}

// expect checks that lit is next at i and returns the offset past it. A
// mismatch stops the tokenizer past the first byte that differs, or at the
// end of the document.
func (t *Tokenizer) expect(i int, lit, msg string) (int, error) {
	n := 0
	for n < len(lit) && i+n < len(t.doc) && t.doc[i+n] == lit[n] {
		n++
	}
	if n < len(lit) {
		return 0, t.syntaxErr(min(i+n+1, len(t.doc)), "%s", msg)
	}
	return i + n, nil
}

// scanSection finds the terminator of the comment, CDATA section or
// processing instruction whose content starts at i, and returns the offset
// where the content ends and the terminator begins.
func (t *Tokenizer) scanSection(i int, terminator, what string) (int, error) {
	n := bytes.Index(t.doc[i:], []byte(terminator))
	if n > MaxTokenBytes || n < 0 && len(t.doc)-i > MaxTokenBytes {
		return 0, t.syntaxErr(i+MaxTokenBytes+1, "%s exceeds %d bytes", what, MaxTokenBytes)
	}
	if n < 0 {
		return 0, t.syntaxErr(len(t.doc), "unterminated %s", what)
	}
	return i + n, nil
}

// readComment parses "<!-- ... -->" from the first '-' at i. The content
// runs to the first "--", which must close the comment.
func (t *Tokenizer) readComment(i int) (Token, error) {
	i, err := t.expect(i, "--", "malformed comment open")
	if err != nil {
		return Token{}, err
	}
	end, err := t.scanSection(i, "--", "comment")
	if err != nil {
		return Token{}, err
	}
	switch {
	case end+2 == len(t.doc):
		return Token{}, t.syntaxErr(end+2, "unterminated comment")
	case t.doc[end+2] != '>':
		return Token{}, t.syntaxErr(end+3, "'--' not allowed inside comment")
	}
	t.off = end + 3
	return Token{Kind: KindComment, Text: string(t.doc[i:end])}, nil
}

// readCDATA parses "<![CDATA[ ... ]]>" from the '[' at i and returns the
// content as a text token.
func (t *Tokenizer) readCDATA(i int) (Token, error) {
	i, err := t.expect(i, "[CDATA[", "malformed CDATA open")
	if err != nil {
		return Token{}, err
	}
	if len(t.open) == 0 {
		return Token{}, t.syntaxErr(i, "CDATA outside root element")
	}
	end, err := t.scanSection(i, cdataClose, "CDATA section")
	if err != nil {
		return Token{}, err
	}
	t.off = end + len(cdataClose)
	t.text = t.doc[i:end:end]
	if t.rawText {
		return Token{Kind: KindText}, nil
	}
	return Token{Kind: KindText, Text: string(t.text)}, nil
}

// readProcInst parses "<?target data?>" from the target at i.
func (t *Tokenizer) readProcInst(i int) (Token, error) {
	end, err := t.scanName(i)
	if err != nil {
		return Token{}, err
	}
	target := Intern(t.doc[i:end])
	// scanName stopped before the end of the document.
	if c := t.doc[end]; !isSpaceByte(c) && c != '?' {
		return Token{}, t.syntaxErr(end+1, "malformed processing instruction")
	}
	stop, err := t.scanSection(end, "?>", "processing instruction")
	if err != nil {
		return Token{}, err
	}
	t.off = stop + 2
	t.text = t.doc[t.skipSpace(end):stop:stop]
	if t.rawText {
		// Raw mode extends to processing instructions: both hot consumers
		// (the DOM builder and the SOAP stream decoder) discard the XML
		// declaration, so don't materialize it.
		return Token{Kind: KindProcInst, Target: target}, nil
	}
	return Token{Kind: KindProcInst, Target: target, Text: string(t.text)}, nil
}

// scanName returns the end of the XML name (element, attribute or PI
// target) that starts at i.
func (t *Tokenizer) scanName(i int) (int, error) {
	j := i
	if j < len(t.doc) && nameClass[t.doc[j]] == nameStart {
		for j++; j < len(t.doc) && nameClass[t.doc[j]] != 0; j++ {
		}
	}
	switch {
	case j == len(t.doc):
		return 0, t.syntaxErr(j, "unexpected EOF in name")
	case j == i || t.doc[j-1] == ':': // a QName has a local part
		return 0, t.syntaxErr(j, "expected a name")
	}
	return j, nil
}

// readAttr parses the name="value" pair at i and returns the offset past
// its closing quote. Both the name and the value are interned: attribute
// values on SOAP traffic are overwhelmingly namespace URIs and type QNames
// that repeat on every message.
func (t *Tokenizer) readAttr(i int) (Attr, int, error) {
	end, err := t.scanName(i)
	if err != nil {
		return Attr{}, 0, err
	}
	d := t.doc
	name := InternName(d[i:end])
	switch i = t.skipSpace(end); {
	case i == len(d):
		return Attr{}, 0, t.syntaxErr(i, "unexpected EOF after attribute name %q", name)
	case d[i] != '=':
		return Attr{}, 0, t.syntaxErr(i+1, "expected '=' after attribute name %q", name)
	}
	switch i = t.skipSpace(i + 1); {
	case i == len(d):
		return Attr{}, 0, t.syntaxErr(i, "unexpected EOF after '='")
	case d[i] != '"' && d[i] != '\'':
		return Attr{}, 0, t.syntaxErr(i+1, "attribute value for %q must be quoted", name)
	}
	quote := d[i]
	i++
	q := bytes.IndexByte(d[i:], quote)
	if q < 0 {
		q = len(d) - i
	}
	// The value as written, unless a reference or a byte to normalize makes
	// it a copy. No entity can hold a quote, so every reference ends inside.
	raw, k := d[i:i+q], 0
	t.buf = t.buf[:0]
	for {
		n := bytes.IndexAny(raw[k:], "<&\t\n\r")
		if n < 0 {
			break
		}
		t.buf = append(t.buf, raw[k:k+n]...)
		switch k += n; raw[k] {
		case '<':
			return Attr{}, 0, t.syntaxErr(i+k+1, "'<' not allowed in attribute value")
		case '&':
			r, next, err := t.readEntity(i + k + 1)
			if err != nil {
				return Attr{}, 0, err
			}
			t.buf = utf8.AppendRune(t.buf, r)
			k = next - i
		default:
			// Attribute-value normalization per XML 1.0 3.3.3.
			t.buf = append(t.buf, ' ')
			k++
		}
	}
	value := raw
	if k > 0 {
		t.buf = append(t.buf, raw[k:]...)
		value = t.buf
	}
	if i+q == len(d) {
		return Attr{}, 0, t.syntaxErr(len(d), "unterminated attribute value for %q", name)
	}
	if len(value) > MaxTokenBytes {
		return Attr{}, 0, t.syntaxErr(i+q+1, "attribute value exceeds %d bytes", MaxTokenBytes)
	}
	return Attr{Name: name, Value: Intern(value)}, i + q + 1, nil
}

// skipSpace returns the offset of the first byte at or after i that is not
// whitespace.
func (t *Tokenizer) skipSpace(i int) int {
	for i < len(t.doc) && isSpaceByte(t.doc[i]) {
		i++
	}
	return i
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

// nameClass classes every byte for scanName: nameStart may begin an XML
// name, nameChar only continue one, 0 neither. Multi-byte UTF-8 sequences
// are accepted wholesale (bytes >= 0x80), which admits all non-ASCII name
// characters; this is deliberately permissive, matching what SOAP toolkits
// of the era accepted.
var nameClass = func() (class [256]byte) {
	for c := range class {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':', c >= 0x80:
			class[c] = nameStart
		case c >= '0' && c <= '9', c == '-', c == '.':
			class[c] = nameChar
		}
	}
	return class
}()

const (
	nameChar = 1 + iota
	nameStart
)
