package xmltext

import "unicode/utf8"

// EscapeText escapes s for use as XML character data: '&', '<' and '>' are
// replaced by entity references, carriage returns by a character reference
// (so they survive end-of-line normalization), and invalid XML characters by
// U+FFFD. It is the escaped spelling of character data; the writers choose
// between it and a CDATA section through AppendCharData.
func EscapeText(s string) string {
	c := classify(s)
	if c.verbatim {
		return s
	}
	return string(appendEscaped(make([]byte, 0, len(s)+c.extra), s, &textEsc))
}

// cdataOpen and cdataClose frame a CDATA section. Their combined length is
// what a section costs, so it is what the escaped spelling must exceed before
// a section is the shorter one.
const (
	cdataOpen  = "<![CDATA["
	cdataClose = "]]>"
)

// AppendCharData appends s to dst as character data in the shorter of its two
// XML spellings: escaped, exactly as EscapeText renders it, or verbatim inside
// one CDATA section when s may stand in one (see classify) and the escapes
// would cost more than the section's own framing. Nothing to escape is one
// append. Every text writer goes through here, so none can disagree on a
// value's spelling.
func AppendCharData(dst []byte, s string) []byte {
	c := classify(s)
	switch {
	case c.verbatim:
		return append(dst, s...)
	case c.section():
		dst = append(dst, cdataOpen...)
		dst = append(dst, s...)
		return append(dst, cdataClose...)
	}
	return appendEscaped(dst, s, &textEsc)
}

// AppendEscAttr appends s to dst escaped for use inside a double-quoted
// attribute value. In addition to the text escapes it encodes '"', tab and
// newline so the exact value round-trips through attribute-value
// normalization. An attribute value never takes a CDATA section.
func AppendEscAttr(dst []byte, s string) []byte {
	return appendEscaped(dst, s, &attrEsc)
}

// escTable maps a byte to what the escaper writes in its place, as an index
// into escRefs: escCopy for a byte that is copied through, escDecode for one
// that belongs to a multi-byte sequence (whose validity only decoding it
// tells), else the replacement's.
type escTable [256]uint8

const (
	escCopy = iota
	escAmp
	escLT
	escGT
	escCR
	escQuot
	escTab
	escLF
	escBad // not an XML character: U+FFFD stands in for it
	escDecode
)

var escRefs = [...]string{
	escAmp: "&amp;", escLT: "&lt;", escGT: "&gt;", escCR: "&#13;",
	escQuot: "&quot;", escTab: "&#9;", escLF: "&#10;", escBad: "\uFFFD",
}

var textEsc, attrEsc = buildEscTables()

func buildEscTables() (text, attr escTable) {
	for c := 0; c < 0x20; c++ {
		text[c] = escBad
	}
	text['\t'], text['\n'], text['\r'] = escCopy, escCopy, escCR
	text['&'], text['<'], text['>'] = escAmp, escLT, escGT
	for c := utf8.RuneSelf; c < len(text); c++ {
		text[c] = escDecode
	}
	attr = text
	attr['"'], attr['\t'], attr['\n'] = escQuot, escTab, escLF
	return text, attr
}

// badSequence reports whether the multi-byte sequence at the head of s must
// be replaced — it is not valid UTF-8, or encodes a character XML excludes —
// and how many bytes it spans.
func badSequence(s string) (size int, bad bool) {
	r, size := utf8.DecodeRuneInString(s)
	return size, (r == utf8.RuneError && size == 1) || !isValidXMLChar(r)
}

// charClass is what one pass over a value tells the writer.
type charClass struct {
	// extra is how many bytes longer than s its escaped spelling is.
	extra int
	// verbatim: the escaped spelling is s itself.
	verbatim bool
	// cdata: s may stand in a CDATA section as it is — it holds no "]]>",
	// no carriage return (a parser would normalize it away, and a section
	// has no reference to protect it with) and nothing the escaper replaces
	// with U+FFFD.
	cdata bool
}

// section reports whether a CDATA section is the shorter spelling.
func (c charClass) section() bool {
	return c.cdata && c.extra > len(cdataOpen)+len(cdataClose)
}

// next finds the first byte of s at or after i that the table replaces:
// where it is, what goes in its place and how many bytes of s that stands for
// (more than one only for a multi-byte sequence replaced whole). at == len(s)
// when nothing more is replaced.
func (tab *escTable) next(s string, i int) (at int, esc string, width int) {
	for ; i < len(s); i++ {
		switch k := tab[s[i]]; k {
		case escCopy:
		case escDecode:
			size, bad := badSequence(s[i:])
			if bad {
				return i, escRefs[escBad], size
			}
			i += size - 1
		default:
			return i, escRefs[k], 1
		}
	}
	return len(s), "", 0
}

// classify walks s once as character data, a byte at a time with multi-byte
// sequences decoded only where they occur.
func classify(s string) charClass {
	c := charClass{verbatim: true, cdata: true}
	for i := 0; ; {
		at, esc, width := textEsc.next(s, i)
		if at == len(s) {
			return c
		}
		c.verbatim = false
		c.extra += len(esc) - width
		switch {
		case esc == escRefs[escBad], s[at] == '\r':
			c.cdata = false
		case s[at] == '>' && at >= 2 && s[at-1] == ']' && s[at-2] == ']':
			c.cdata = false
		}
		i = at + width
	}
}

// appendEscaped writes the escaped spelling of s in runs: everything up to
// the next byte the table replaces in one copy, then the replacement.
func appendEscaped(dst []byte, s string, tab *escTable) []byte {
	for i := 0; ; {
		at, esc, width := tab.next(s, i)
		dst = append(dst, s[i:at]...)
		if at == len(s) {
			return dst
		}
		dst = append(dst, esc...)
		i = at + width
	}
}
