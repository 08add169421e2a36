package xmltext

// This file is a frozen copy of the byte-at-a-time tokenizer, which read its
// input through a bufio.Reader and moved a line and column with every byte.
// It is the reference TestTokenizerMatchesFrozen and
// FuzzTokenizerMatchesFrozen hold Tokenizer to. Only names changed, and
// unreadByte counts the newlines it gives back (doubled): this reader counted
// the line of each such newline twice, and the differential forgives exactly
// that.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"unicode/utf8"
)

// frozenTokenizer reads a stream of XML tokens from an io.Reader.
//
// The zero value is not usable; call newFrozenTokenizer. A frozenTokenizer checks
// well-formedness incrementally: tags must nest properly, attribute names
// must be unique per element, and exactly one root element is allowed.
type frozenTokenizer struct {
	r    *bufio.Reader
	pos  Pos
	off  int64  // bytes consumed from the input
	err  error  // sticky error
	open []Name // stack of open elements

	// pendingEnd is set after a self-closing start tag so the next call
	// returns the synthetic end token.
	pendingEnd Name
	hasPending bool

	sawRoot    bool // a root element has been opened
	rootClosed bool // the root element has been closed

	buf []byte // scratch for token assembly, reused between calls
	val []byte // scratch for attribute values, reused between calls

	// rawText suppresses string materialization for Text tokens: the
	// caller reads the content through TokenBytes instead. See SetRawText.
	rawText bool
	// reuseAttrs makes successive start tokens share one Attrs backing
	// array. See SetReuseTokenAttrs.
	reuseAttrs bool
	attrs      []Attr // scratch for Token.Attrs when reuseAttrs is set

	// src backs ResetBytes, so tokenizing an in-memory document needs no
	// separate bytes.Reader allocation.
	src bytes.Reader

	// doubled counts the newlines unreadByte gave back after counting them:
	// each moved every later position down one line.
	doubled int
}

// newFrozenTokenizer returns a frozenTokenizer reading from r.
func newFrozenTokenizer(r io.Reader) *frozenTokenizer {
	t := &frozenTokenizer{}
	t.Reset(r)
	return t
}

// Reset prepares t to read a new document from r, discarding all state
// from the previous document while keeping grown scratch buffers (and the
// 16 KB read buffer). Raw-text and attribute-reuse modes persist across
// resets.
func (t *frozenTokenizer) Reset(r io.Reader) {
	if t.r == nil {
		t.r = bufio.NewReaderSize(r, 16<<10)
	} else {
		t.r.Reset(r)
	}
	t.pos = Pos{Line: 1, Col: 1}
	t.off = 0
	t.err = nil
	t.doubled = 0
	t.open = t.open[:0]
	t.pendingEnd = Name{}
	t.hasPending = false
	t.sawRoot = false
	t.rootClosed = false
	t.buf = t.buf[:0]
	t.val = t.val[:0]
}

// ResetBytes is Reset over an in-memory document, reusing an internal
// bytes.Reader so repeated decodes allocate nothing for the source.
func (t *frozenTokenizer) ResetBytes(b []byte) {
	t.src.Reset(b)
	t.Reset(&t.src)
}

// SetRawText switches Text and ProcInst tokens to zero-copy delivery:
// their Text field stays empty and the content is read through TokenBytes
// instead, valid only until the next call to Next. Comment tokens are
// unaffected (they are not on any hot path). Callers that keep text beyond
// one token — like the DOM builder — copy it themselves, which lets them
// skip the copy entirely for whitespace runs and other text they discard
// (both hot consumers discard the XML declaration outright).
func (t *frozenTokenizer) SetRawText(on bool) { t.rawText = on }

// SetReuseTokenAttrs makes every start-element token share one attribute
// backing array: Token.Attrs is only valid until the next call to Next.
// Callers that copy attributes out immediately (the DOM builder does) save
// one allocation per element.
func (t *frozenTokenizer) SetReuseTokenAttrs(on bool) { t.reuseAttrs = on }

// TokenBytes returns the raw content bytes of the most recent Text token
// (and, under SetRawText, the only way to read it). The slice aliases the
// tokenizer's scratch buffer: it is valid only until the next call to Next
// and must not be modified.
func (t *frozenTokenizer) TokenBytes() []byte { return t.buf }

// InputOffset returns the number of input bytes consumed so far: the byte
// offset of the first unconsumed byte. After Next returns a token whose
// markup ends at the offset boundary (a start or end tag), the offset
// points just past that tag's closing '>'. Synthetic end tokens for
// self-closing tags consume no input, so the offset is stable across them.
// Combined with ResetBytes/AcquireTokenizer over an in-memory document,
// this lets callers recover the exact raw byte span of a subtree.
func (t *frozenTokenizer) InputOffset() int64 { return t.off }

func (t *frozenTokenizer) syntaxErr(format string, args ...any) error {
	err := &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf(format, args...)}
	t.err = err
	return err
}

// readByte consumes one byte, tracking position.
func (t *frozenTokenizer) readByte() (byte, error) {
	c, err := t.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		t.err = err
		return 0, err
	}
	if c == '\n' {
		t.pos.Line++
		t.pos.Col = 1
	} else {
		t.pos.Col++
	}
	t.off++
	return c, nil
}

func (t *frozenTokenizer) unreadByte() {
	// bufio guarantees one byte of unread after a successful ReadByte.
	_ = t.r.UnreadByte()
	if t.pos.Col == 1 {
		t.doubled++
	}
	if t.pos.Col > 1 {
		t.pos.Col--
	}
	t.off--
}

func (t *frozenTokenizer) peekByte() (byte, error) {
	b, err := t.r.Peek(1)
	if err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		t.err = err
		return 0, err
	}
	return b[0], nil
}

// window returns the unread bytes the read buffer already holds, reading
// more only when it holds none; io.EOF when the input is spent. Character
// data is scanned in it a run at a time. The slice is valid until the next
// read from t.r.
func (t *frozenTokenizer) window() ([]byte, error) {
	if t.r.Buffered() == 0 {
		if _, err := t.peekByte(); err != nil {
			return nil, err
		}
	}
	return t.r.Peek(t.r.Buffered())
}

// consume takes run — the head of the last window or Peek — off the input,
// moving position and offset across it as readByte would a byte at a time.
func (t *frozenTokenizer) consume(run []byte) {
	if lines := bytes.Count(run, []byte{'\n'}); lines > 0 {
		t.pos.Line += lines
		t.pos.Col = len(run) - bytes.LastIndexByte(run, '\n')
	} else {
		t.pos.Col += len(run)
	}
	t.off += int64(len(run))
	_, _ = t.r.Discard(len(run)) // run is buffered: cannot fail
}

// Next returns the next token. At end of input it returns io.EOF. Once any
// error has been returned, every subsequent call returns the same error.
func (t *frozenTokenizer) Next() (Token, error) {
	if t.err != nil {
		return Token{}, t.err
	}
	if t.hasPending {
		t.hasPending = false
		name := t.pendingEnd
		t.popElement(name)
		return Token{Kind: KindEndElement, Name: name}, nil
	}

	c, err := t.peekByte()
	if err == io.EOF {
		if len(t.open) > 0 {
			return Token{}, t.syntaxErr("unexpected EOF: element <%s> not closed", t.open[len(t.open)-1])
		}
		if !t.rootClosed {
			return Token{}, t.syntaxErr("unexpected EOF: no root element")
		}
		t.err = io.EOF
		return Token{}, io.EOF
	}
	if err != nil {
		return Token{}, err
	}

	if c == '<' {
		return t.readMarkup()
	}
	return t.readText()
}

// readText consumes character data up to the next '<' (or EOF) and returns
// it as a single text token, with entities decoded. Each run between
// references is found with one search of the window and copied once.
func (t *frozenTokenizer) readText() (Token, error) {
	t.buf = t.buf[:0]
	for {
		w, err := t.window()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Token{}, err
		}
		i := bytes.IndexAny(w, "<&")
		if i < 0 {
			i = len(w)
		}
		t.buf = append(t.buf, w[:i]...)
		if len(t.buf) > MaxTokenBytes {
			t.consume(w[:i])
			return Token{}, t.syntaxErr("text token exceeds %d bytes", MaxTokenBytes)
		}
		if i == len(w) {
			t.consume(w)
			continue
		}
		if w[i] == '<' {
			t.consume(w[:i])
			break
		}
		t.consume(w[:i+1])
		r, err := t.readEntity()
		if err != nil {
			return Token{}, err
		}
		t.buf = utf8.AppendRune(t.buf, r)
	}
	if len(t.open) == 0 {
		// Outside the root element only whitespace is allowed. Checked on
		// the raw bytes: this run is discarded either way, so it never
		// needs to become a string at all.
		text := t.buf
		if t.off == int64(len(text)) {
			// The document's first bytes: a UTF-8 byte order mark may lead
			// them (the encoding declaration it stands in for is optional).
			text = bytes.TrimPrefix(text, UTF8BOM)
		}
		if !IsWhitespace(text) {
			return Token{}, t.syntaxErr("character data outside root element")
		}
		// Skip it and continue with the following markup or EOF.
		return t.Next()
	}
	if t.rawText {
		return Token{Kind: KindText}, nil
	}
	return Token{Kind: KindText, Text: string(t.buf)}, nil
}

// frozenMaxEntityName bounds the name between '&' and ';'.
const frozenMaxEntityName = 32

// readEntity decodes one entity reference; the leading '&' has been
// consumed. The name is matched where it lies in the read buffer, so a
// reference costs no allocation.
func (t *frozenTokenizer) readEntity() (rune, error) {
	ref, _ := t.r.Peek(frozenMaxEntityName + 1) // short only when the input ends first
	semi := bytes.IndexByte(ref, ';')
	if semi < 0 {
		t.consume(ref)
		if len(ref) <= frozenMaxEntityName {
			return 0, t.syntaxErr("unterminated entity reference")
		}
		return 0, t.syntaxErr("entity reference too long")
	}
	r, msg := frozenDecodeEntity(ref[:semi])
	t.consume(ref[:semi+1])
	if msg != "" {
		return 0, t.syntaxErr("%s", msg)
	}
	return r, nil
}

// frozenDecodeEntity resolves the name of a reference ("lt", "#x3C") to its
// character, or says why it cannot.
func frozenDecodeEntity(name []byte) (r rune, msg string) {
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
		return frozenDecodeCharRef(name[1:])
	}
	return 0, fmt.Sprintf("unknown entity &%s;", name)
}

func frozenDecodeCharRef(s []byte) (r rune, msg string) {
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
	if !frozenIsValidXMLChar(rune(n)) {
		return 0, fmt.Sprintf("character reference U+%04X is not a valid XML character", n)
	}
	return rune(n), ""
}

// frozenIsValidXMLChar reports whether r is allowed in XML 1.0 content.
func frozenIsValidXMLChar(r rune) bool {
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

// readMarkup handles everything that begins with '<'.
func (t *frozenTokenizer) readMarkup() (Token, error) {
	if _, err := t.readByte(); err != nil { // consume '<'
		return Token{}, err
	}
	c, err := t.peekByte()
	if err != nil {
		return Token{}, t.syntaxErr("unexpected EOF after '<'")
	}
	switch c {
	case '/':
		_, _ = t.readByte()
		return t.readEndTag()
	case '!':
		_, _ = t.readByte()
		return t.readBang()
	case '?':
		_, _ = t.readByte()
		return t.readProcInst()
	default:
		return t.readStartTag()
	}
}

// readStartTag parses "<name attr='v' ...>" or "<name ... />"; the '<' has
// been consumed.
func (t *frozenTokenizer) readStartTag() (Token, error) {
	if t.rootClosed {
		return Token{}, t.syntaxErr("content after root element")
	}
	raw, err := t.readRawName()
	if err != nil {
		return Token{}, err
	}
	name := InternName(raw)
	tok := Token{Kind: KindStartElement, Name: name}
	if t.reuseAttrs {
		tok.Attrs = t.attrs[:0]
	}
	for {
		if err := t.skipSpace(); err != nil {
			return Token{}, t.syntaxErr("unexpected EOF in tag <%s>", name)
		}
		c, err := t.readByte()
		if err != nil {
			return Token{}, t.syntaxErr("unexpected EOF in tag <%s>", name)
		}
		switch c {
		case '>':
			t.pushElement(name)
			if t.reuseAttrs {
				t.attrs = tok.Attrs
			}
			return tok, t.err
		case '/':
			c2, err := t.readByte()
			if err != nil || c2 != '>' {
				return Token{}, t.syntaxErr("expected '>' after '/' in tag <%s>", name)
			}
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
		default:
			t.unreadByte()
			attr, err := t.readAttr()
			if err != nil {
				return Token{}, err
			}
			for _, a := range tok.Attrs {
				if a.Name == attr.Name {
					return Token{}, t.syntaxErr("duplicate attribute %q in tag <%s>", attr.Name, name)
				}
			}
			if len(tok.Attrs) >= MaxAttrs {
				return Token{}, t.syntaxErr("too many attributes in tag <%s>", name)
			}
			tok.Attrs = append(tok.Attrs, attr)
		}
	}
}

func (t *frozenTokenizer) pushElement(name Name) {
	if t.rootClosed {
		t.syntaxErr("second root element <%s>", name)
		return
	}
	if len(t.open) >= MaxDepth {
		t.syntaxErr("element nesting exceeds depth %d", MaxDepth)
		return
	}
	t.sawRoot = true
	t.open = append(t.open, name)
}

func (t *frozenTokenizer) popElement(name Name) {
	t.open = t.open[:len(t.open)-1]
	if len(t.open) == 0 {
		t.rootClosed = true
	}
	_ = name
}

// readEndTag parses "</name>"; the "</" has been consumed.
func (t *frozenTokenizer) readEndTag() (Token, error) {
	raw, err := t.readRawName()
	if err != nil {
		return Token{}, err
	}
	name := InternName(raw)
	if err := t.skipSpace(); err != nil {
		return Token{}, t.syntaxErr("unexpected EOF in end tag </%s>", name)
	}
	c, err := t.readByte()
	if err != nil || c != '>' {
		return Token{}, t.syntaxErr("expected '>' in end tag </%s>", name)
	}
	if len(t.open) == 0 {
		return Token{}, t.syntaxErr("end tag </%s> with no open element", name)
	}
	if top := t.open[len(t.open)-1]; top != name {
		return Token{}, t.syntaxErr("end tag </%s> does not match <%s>", name, top)
	}
	t.popElement(name)
	return Token{Kind: KindEndElement, Name: name}, nil
}

// readBang handles "<!--", "<![CDATA[" and "<!DOCTYPE"; "<!" has been consumed.
func (t *frozenTokenizer) readBang() (Token, error) {
	c, err := t.peekByte()
	if err != nil {
		return Token{}, t.syntaxErr("unexpected EOF after '<!'")
	}
	switch c {
	case '-':
		return t.readComment()
	case '[':
		return t.readCDATA()
	default:
		return Token{}, t.syntaxErr("DOCTYPE and other declarations are not allowed")
	}
}

// readComment parses "<!-- ... -->"; "<!" has been consumed.
func (t *frozenTokenizer) readComment() (Token, error) {
	for _, want := range []byte("--") {
		c, err := t.readByte()
		if err != nil || c != want {
			return Token{}, t.syntaxErr("malformed comment open")
		}
	}
	t.buf = t.buf[:0]
	dashes := 0
	for {
		c, err := t.readByte()
		if err != nil {
			return Token{}, t.syntaxErr("unterminated comment")
		}
		if c == '-' {
			dashes++
			if dashes > 2 {
				return Token{}, t.syntaxErr("'--' not allowed inside comment")
			}
			continue
		}
		if dashes == 2 {
			if c != '>' {
				return Token{}, t.syntaxErr("'--' not allowed inside comment")
			}
			return Token{Kind: KindComment, Text: string(t.buf)}, nil
		}
		for ; dashes > 0; dashes-- {
			t.buf = append(t.buf, '-')
		}
		t.buf = append(t.buf, c)
		if len(t.buf) > MaxTokenBytes {
			return Token{}, t.syntaxErr("comment exceeds %d bytes", MaxTokenBytes)
		}
	}
}

// readCDATA parses "<![CDATA[ ... ]]>"; "<!" has been consumed. The content
// is returned as a text token, copied a window at a time up to the one search
// that finds the terminator.
func (t *frozenTokenizer) readCDATA() (Token, error) {
	for _, want := range []byte("[CDATA[") {
		c, err := t.readByte()
		if err != nil || c != want {
			return Token{}, t.syntaxErr("malformed CDATA open")
		}
	}
	if len(t.open) == 0 {
		return Token{}, t.syntaxErr("CDATA outside root element")
	}
	t.buf = t.buf[:0]
	for {
		w, err := t.window()
		if err != nil {
			return Token{}, t.syntaxErr("unterminated CDATA section")
		}
		end := bytes.Index(w, []byte(cdataClose))
		content := w
		if end >= 0 {
			content = w[:end]
		} else {
			// A terminator may straddle the refill: hold back the ']'s
			// that could open it.
			for held := 0; held < 2 && bytes.HasSuffix(content, []byte("]")); held++ {
				content = content[:len(content)-1]
			}
		}
		t.buf = append(t.buf, content...)
		if len(t.buf) > MaxTokenBytes {
			t.consume(content)
			return Token{}, t.syntaxErr("CDATA exceeds %d bytes", MaxTokenBytes)
		}
		if end >= 0 {
			t.consume(w[:end+len(cdataClose)])
			if t.rawText {
				return Token{Kind: KindText}, nil
			}
			return Token{Kind: KindText, Text: string(t.buf)}, nil
		}
		held := len(w) - len(content)
		t.consume(content)
		// Read on past what was held back; nothing more means it was the
		// section's last input, not a terminator.
		if rest, _ := t.r.Peek(held + 1); len(rest) <= held {
			t.consume(rest)
			return Token{}, t.syntaxErr("unterminated CDATA section")
		}
	}
}

// readProcInst parses "<?target data?>"; "<?" has been consumed.
func (t *frozenTokenizer) readProcInst() (Token, error) {
	target, err := t.readName()
	if err != nil {
		return Token{}, err
	}
	t.buf = t.buf[:0]
	question := false
	first := true
	for {
		c, err := t.readByte()
		if err != nil {
			return Token{}, t.syntaxErr("unterminated processing instruction")
		}
		if first && !frozenIsSpaceByte(c) && c != '?' {
			return Token{}, t.syntaxErr("malformed processing instruction")
		}
		first = false
		if question && c == '>' {
			// Trim the separator whitespace on the raw bytes, then convert
			// once — the old code materialized the untrimmed string first
			// and trimmed the copy, paying for the data twice.
			b := t.buf
			for len(b) > 0 && frozenIsSpaceByte(b[0]) {
				b = b[1:]
			}
			if t.rawText {
				// Raw mode extends to processing instructions: both hot
				// consumers (the DOM builder and the SOAP stream decoder)
				// discard the XML declaration, so don't materialize it.
				t.buf = t.buf[:copy(t.buf, b)]
				return Token{Kind: KindProcInst, Target: target}, nil
			}
			return Token{Kind: KindProcInst, Target: target, Text: string(b)}, nil
		}
		if question {
			t.buf = append(t.buf, '?')
			question = false
		}
		if c == '?' {
			question = true
		} else {
			t.buf = append(t.buf, c)
		}
		if len(t.buf) > MaxTokenBytes {
			return Token{}, t.syntaxErr("processing instruction exceeds %d bytes", MaxTokenBytes)
		}
	}
}

// readRawName reads an XML name (element, attribute or PI target) into the
// scratch buffer. The returned slice is valid until the buffer's next use;
// callers convert it immediately via Intern/InternName.
func (t *frozenTokenizer) readRawName() ([]byte, error) {
	t.buf = t.buf[:0]
	for {
		c, err := t.readByte()
		if err != nil {
			return nil, t.syntaxErr("unexpected EOF in name")
		}
		if frozenIsNameByte(c, len(t.buf) == 0) {
			t.buf = append(t.buf, c)
			continue
		}
		t.unreadByte()
		break
	}
	if len(t.buf) == 0 || t.buf[len(t.buf)-1] == ':' { // a QName has a local part
		return nil, t.syntaxErr("expected a name")
	}
	return t.buf, nil
}

// readName is readRawName interned to a string.
func (t *frozenTokenizer) readName() (string, error) {
	raw, err := t.readRawName()
	if err != nil {
		return "", err
	}
	return Intern(raw), nil
}

// readAttr parses one name="value" pair. Both the name and the value are
// interned: attribute values on SOAP traffic are overwhelmingly namespace
// URIs and type QNames that repeat on every message.
func (t *frozenTokenizer) readAttr() (Attr, error) {
	raw, err := t.readRawName()
	if err != nil {
		return Attr{}, err
	}
	name := InternName(raw)
	if err := t.skipSpace(); err != nil {
		return Attr{}, t.syntaxErr("unexpected EOF after attribute name %q", name)
	}
	c, err := t.readByte()
	if err != nil || c != '=' {
		return Attr{}, t.syntaxErr("expected '=' after attribute name %q", name)
	}
	if err := t.skipSpace(); err != nil {
		return Attr{}, t.syntaxErr("unexpected EOF after '='")
	}
	quote, err := t.readByte()
	if err != nil || (quote != '"' && quote != '\'') {
		return Attr{}, t.syntaxErr("attribute value for %q must be quoted", name)
	}
	t.val = t.val[:0]
	for {
		c, err := t.readByte()
		if err != nil {
			return Attr{}, t.syntaxErr("unterminated attribute value for %q", name)
		}
		if c == quote {
			break
		}
		switch c {
		case '&':
			r, err := t.readEntity()
			if err != nil {
				return Attr{}, err
			}
			t.val = utf8.AppendRune(t.val, r)
		case '<':
			return Attr{}, t.syntaxErr("'<' not allowed in attribute value")
		case '\t', '\n', '\r':
			// Attribute-value normalization per XML 1.0 3.3.3.
			t.val = append(t.val, ' ')
		default:
			t.val = append(t.val, c)
		}
		if len(t.val) > MaxTokenBytes {
			return Attr{}, t.syntaxErr("attribute value exceeds %d bytes", MaxTokenBytes)
		}
	}
	return Attr{Name: name, Value: Intern(t.val)}, nil
}

// skipSpace consumes whitespace. It returns io.EOF if input ends.
func (t *frozenTokenizer) skipSpace() error {
	for {
		c, err := t.peekByte()
		if err != nil {
			return err
		}
		if !frozenIsSpaceByte(c) {
			return nil
		}
		if _, err := t.readByte(); err != nil {
			return err
		}
	}
}

func frozenIsSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

// frozenIsNameByte reports whether c may appear in an XML name. Multi-byte UTF-8
// sequences are accepted wholesale (bytes >= 0x80), which admits all
// non-ASCII name characters; this is deliberately permissive, matching what
// SOAP toolkits of the era accepted.
func frozenIsNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= 0x80:
		return true
	case first:
		return false
	case c >= '0' && c <= '9', c == '-', c == '.':
		return true
	}
	return false
}
