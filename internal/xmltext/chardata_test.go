package xmltext

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unicode/utf8"
)

// referenceEscape is the escaper as it was before values were written in
// runs: one rune at a time, one switch. It stays here as the oracle — a value
// that keeps its escaped spelling must go out byte for byte as it always did.
func referenceEscape(s string, attr bool) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == '&':
			b.WriteString("&amp;")
		case r == '<':
			b.WriteString("&lt;")
		case r == '>':
			b.WriteString("&gt;")
		case r == '\r':
			b.WriteString("&#13;")
		case r == '"' && attr:
			b.WriteString("&quot;")
		case r == '\t' && attr:
			b.WriteString("&#9;")
		case r == '\n' && attr:
			b.WriteString("&#10;")
		case r == utf8.RuneError && size == 1, !isValidXMLChar(r):
			b.WriteRune(utf8.RuneError)
		default:
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// charDataCorpus is shared by the table test and the fuzz seeds.
var charDataCorpus = []string{
	"", "plain", "a<b&c>d", `quote"tab` + "\ttext", "\r\n", "\xff", "\x00", "\x7f",
	"ünïcødé", "mixed \xffü<&", "\uFFFD stays", "\uFFFE goes", "\xed\xa0\x80 surrogate",
	"\xf4\x90\x80\x80 past the last rune", "truncated \xe4\xb8",
	"<<<<", "<<<<<", "&&&&", "<<<&", "]]>", "a]]>b<<<<<<", "]]", "]]]>", "<<<<<]]", "<<<<<]]]",
	"<<<<<\r", "<<<<<\n", "<<<<<\x01", "<<<<<\xff", "<<<<<\uFFFE", "<<<<<中文",
	`</m:echoResponse><!-- " --><![CDATA[`,
	strings.Repeat("x", 1000) + "<", strings.Repeat("<&>\"", 64),
}

func TestEscapeMatchesReference(t *testing.T) {
	check := func(s string) bool {
		ok := true
		if got, want := EscapeText(s), referenceEscape(s, false); got != want {
			t.Errorf("EscapeText(%q) = %q, want %q", s, got, want)
			ok = false
		}
		if got, want := string(AppendEscAttr(nil, s)), referenceEscape(s, true); got != want {
			t.Errorf("AppendEscAttr(%q) = %q, want %q", s, got, want)
			ok = false
		}
		return ok
	}
	for _, s := range charDataCorpus {
		check(s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

// TestAppendCharDataSpelling pins the rule: verbatim when nothing is
// replaced, one CDATA section when the value may stand in one and its escapes
// would cost more than the section's twelve bytes, the escaped spelling
// otherwise.
func TestAppendCharDataSpelling(t *testing.T) {
	section := func(s string) string { return "<![CDATA[" + s + "]]>" }
	cases := []struct{ in, want string }{
		{"", ""},
		{"plain text", "plain text"},
		{`x<y&z"`, `x&lt;y&amp;z"`},
		// Twelve bytes of expansion tie with the section: the escapes stay.
		{"<<<<", "&lt;&lt;&lt;&lt;"},
		{"&&&", "&amp;&amp;&amp;"},
		// Thirteen and up: the section is shorter.
		{"<<<&", section("<<<&")},
		{"<<<<<", section("<<<<<")},
		{`</m:echoResponse><!-- " --><![CDATA[`, section(`</m:echoResponse><!-- " --><![CDATA[`)},
		{"<<<<<\n\t中文 \uFFFD", section("<<<<<\n\t中文 \uFFFD")},
		{"<<<<<]]", section("<<<<<]]")},
		{"<<<<<]] >", section("<<<<<]] >")},
		// What may not stand in a section, however long its escapes.
		{"<<<<<]]>", "&lt;&lt;&lt;&lt;&lt;]]&gt;"},
		{"<<<<<\r", "&lt;&lt;&lt;&lt;&lt;&#13;"},
		{"<<<<<\x01", "&lt;&lt;&lt;&lt;&lt;\uFFFD"},
		{"<<<<<\xff", "&lt;&lt;&lt;&lt;&lt;\uFFFD"},
		{"<<<<<\uFFFE", "&lt;&lt;&lt;&lt;&lt;\uFFFD"},
	}
	for _, c := range cases {
		if got := string(AppendCharData([]byte("pre"), c.in)); got != "pre"+c.want {
			t.Errorf("AppendCharData(%q) = %q, want %q", c.in, got, "pre"+c.want)
		}
		// Text and RawText spell a value the same way.
		e := AcquireEmitter()
		e.Start(Name{Local: "a"})
		e.Text(c.in)
		e.End()
		e.RawText(c.in)
		if want := "<a>" + c.want + "</a>" + c.want; string(e.Bytes()) != want {
			t.Errorf("%q: Emitter wrote %q, want %q", c.in, e.Bytes(), want)
		}
		ReleaseEmitter(e)
	}
	// Attribute values never take a section.
	if got := string(AppendEscAttr(nil, "<<<<<")); got != "&lt;&lt;&lt;&lt;&lt;" {
		t.Errorf("AppendEscAttr = %q", got)
	}
}

// textOf tokenizes doc and returns its character data, text tokens joined.
func textOf(t *testing.T, doc []byte) string {
	t.Helper()
	tk := NewTokenizer(bytes.NewReader(doc))
	var text strings.Builder
	for {
		tok, err := tk.Next()
		if err == io.EOF {
			return text.String()
		}
		if err != nil {
			t.Fatalf("tokenizing %q: %v", doc, err)
		}
		if tok.Kind == KindText {
			text.WriteString(tok.Text)
		}
	}
}

// FuzzCharData: whichever spelling AppendCharData picks for a value, a
// reader gets the text the escaped spelling gives it; the choice is never the
// longer one; and "]]>" appears only to close a section.
func FuzzCharData(f *testing.F) {
	for _, s := range charDataCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := AppendCharData(nil, s)
		escaped := EscapeText(s)
		if escaped != referenceEscape(s, false) {
			t.Fatalf("EscapeText(%q) = %q, the reference escaper writes %q", s, escaped, referenceEscape(s, false))
		}
		if len(out) > len(escaped) {
			t.Fatalf("%q: wrote %d bytes, escaped is %d", s, len(out), len(escaped))
		}
		if bytes.HasPrefix(out, []byte("<![CDATA[")) {
			if bytes.Index(out, []byte("]]>")) != len(out)-len("]]>") || string(out[len("<![CDATA["):len(out)-len("]]>")]) != s {
				t.Fatalf("%q: section %q does not hold the value verbatim up to its only terminator", s, out)
			}
		} else if string(out) != escaped {
			t.Fatalf("%q: wrote %q, neither a section nor the escaped spelling %q", s, out, escaped)
		}
		got := textOf(t, []byte("<a>"+string(out)+"</a>"))
		if want := textOf(t, []byte("<a>"+escaped+"</a>")); got != want {
			t.Fatalf("%q: spelled %q it reads back as %q, escaped as %q", s, out, got, want)
		}
	})
}

// readToken is one token as a caller sees it, with where the tokenizer
// stood after it.
type readToken struct {
	Tok  Token
	Text string
	Off  int64
	Pos  Pos
}

func readAll(tk *Tokenizer) ([]readToken, error) {
	tk.SetRawText(true)
	var out []readToken
	for {
		tok, err := tk.Next()
		if err != nil {
			return out, err
		}
		rt := readToken{Tok: tok, Off: tk.InputOffset(), Pos: tk.position()}
		if tok.Kind == KindText {
			rt.Text = string(tk.TokenBytes())
		}
		out = append(out, rt)
	}
}

// TestCharDataWindowBoundaries: terminators, references and the end of text
// at every offset around 16 KiB, where the tokenizer once refilled a read
// buffer. Every document reads the same — tokens, offsets, positions, error —
// from memory and from a reader that yields one byte at a time, and to the
// text it spells.
func TestCharDataWindowBoundaries(t *testing.T) {
	const window = 16 << 10
	type doc struct {
		name, doc string
		text      []string // the text tokens, in order; nil with err
		err       string
	}
	var docs []doc
	pad := func(n int) string { return strings.Repeat("x\n", n/2) + strings.Repeat("y", n%2) }
	// The terminator, and runs of ']' before it, at every offset around the
	// first refill ("<a><![CDATA[" is 12 bytes).
	for at := window - 6; at <= window+2; at++ {
		body := pad(at - 12)
		docs = append(docs,
			doc{name: "terminator", doc: "<a><![CDATA[" + body + "]]></a>", text: []string{body}},
			doc{name: "extra bracket", doc: "<a><![CDATA[" + body + "]]]></a>", text: []string{body + "]"}},
			doc{name: "brackets inside", doc: "<a><![CDATA[" + body + "]] ]>]]]]></a>", text: []string{body + "]] ]>]]"}},
			doc{name: "brackets then EOF", doc: "<a><![CDATA[" + body + "]]", err: "unterminated CDATA section"},
			doc{name: "EOF", doc: "<a><![CDATA[" + body, err: "unterminated CDATA section"},
			// An entity, and what ends the text, across the refill
			// ("<a>" is 3 bytes); the run goes on for 40 KiB.
			doc{name: "entity", doc: "<a>" + pad(at-3) + "&amp;" + pad(40<<10) + "</a>", text: []string{pad(at-3) + "&" + pad(40<<10)}},
			doc{name: "long entity", doc: "<a>" + pad(at-3) + "&#x00000000000000000000000000003C;</a>", text: []string{pad(at-3) + "<"}},
			doc{name: "entity then EOF", doc: "<a>" + pad(at-3) + "&am", err: "unterminated entity reference"},
			doc{name: "entity too long", doc: "<a>" + pad(at-3) + "&" + strings.Repeat("a", 40) + ";</a>", err: "entity reference too long"},
			doc{name: "end tag", doc: "<a>" + pad(at-3) + "</a>", text: []string{pad(at - 3)}},
			// A section between two escaped runs: three tokens.
			doc{name: "adjacent", doc: "<a>" + pad(at-3-5) + "&lt;<![CDATA[<y>]]>z&gt;</a>", text: []string{pad(at-3-5) + "<", "<y>", "z>"}},
		)
	}
	docs = append(docs,
		doc{name: "empty section", doc: "<a><![CDATA[]]></a>", text: []string{""}},
		doc{name: "just brackets", doc: "<a><![CDATA[]]]]></a>", text: []string{"]]"}},
		doc{name: "section outside root", doc: "<![CDATA[x]]><a/>", err: "CDATA outside root element"},
		doc{name: "malformed open", doc: "<a><![CDAT[x]]></a>", err: "malformed CDATA open"},
		doc{name: "unknown entity", doc: "<a>x&bogus;y</a>", err: "unknown entity &bogus;"},
		doc{name: "bad reference", doc: "<a>x&#xZ;y</a>", err: "bad character reference &#Z;"},
		doc{name: "empty reference", doc: "<a>&#;</a>", err: "empty character reference"},
		doc{name: "reference out of range", doc: "<a>&#x110000;</a>", err: "character reference out of range"},
		doc{name: "reference to a non-character", doc: "<a>&#0;</a>", err: "character reference U+0000 is not a valid XML character"},
		doc{name: "text after root", doc: "<a/>x", err: "character data outside root element"},
	)
	for _, d := range docs {
		fromBytes := NewTokenizer(nil)
		fromBytes.ResetBytes([]byte(d.doc))
		got, err := readAll(fromBytes)
		slow, slowErr := readAll(NewTokenizer(iotest.OneByteReader(strings.NewReader(d.doc))))
		what := d.name + " (" + strconv.Itoa(len(d.doc)) + " bytes)"
		if !reflect.DeepEqual(got, slow) || err.Error() != slowErr.Error() {
			t.Errorf("%s: windows of 16 KiB and of one byte disagree:\n%d tokens, %v\n%d tokens, %v", what, len(got), err, len(slow), slowErr)
			continue
		}
		if d.err != "" {
			if !strings.Contains(err.Error(), d.err) {
				t.Errorf("%s: %v, want %q", what, err, d.err)
			}
			continue
		}
		if err != io.EOF {
			t.Errorf("%s: %v", what, err)
			continue
		}
		var text []string
		for _, rt := range got {
			if rt.Tok.Kind == KindText {
				text = append(text, rt.Text)
			}
		}
		if !reflect.DeepEqual(text, d.text) {
			t.Errorf("%s: text tokens differ from what the document spells (%d tokens, want %d)", what, len(text), len(d.text))
		}
		if last := got[len(got)-1]; last.Off != int64(len(d.doc)) || last.Pos.Line != 1+strings.Count(d.doc, "\n") {
			t.Errorf("%s: ended at offset %d, line %d; the document has %d bytes, %d lines", what, last.Off, last.Pos.Line, len(d.doc), 1+strings.Count(d.doc, "\n"))
		}
	}
}

// TestPositionAcrossRuns: the line and column worked out from the offset
// after each token are where consuming the input a byte at a time left them.
func TestPositionAcrossRuns(t *testing.T) {
	tk := NewTokenizer(strings.NewReader("<a>one\ntwo &lt;\n<![CDATA[x\ny]]>z<b/>\n</a>"))
	want := []Pos{{1, 4}, {3, 1}, {4, 5}, {4, 6}, {4, 10}, {4, 10}, {5, 1}, {5, 5}}
	for i, w := range want {
		if _, err := tk.Next(); err != nil {
			t.Fatal(err)
		}
		if got := tk.position(); got != w {
			t.Errorf("after token %d: position %v, want %v", i, got, w)
		}
	}
	// A syntax error reports where the reader stood when it gave up.
	_, err := readAll(NewTokenizer(strings.NewReader("<a>\nab&bogus;</a>")))
	if se, ok := err.(*SyntaxError); !ok || se.Pos != (Pos{2, 10}) {
		t.Errorf("unknown entity reported as %v, want line 2 col 10", err)
	}
}

// TestEntityReferencesAllocateNothing: a reference is matched where it lies
// in the document, so escaped text — what third parties and older peers
// send — tokenizes without a per-reference allocation.
func TestEntityReferencesAllocateNothing(t *testing.T) {
	doc := []byte("<a>" + strings.Repeat("some text &lt;&amp;&gt; &quot;&apos; &#65;&#x3C; ", 2000) + "</a>")
	tk := NewTokenizer(nil)
	tk.SetRawText(true)
	run := func() {
		tk.ResetBytes(doc)
		for {
			if _, err := tk.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // grow the scratch buffers
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("tokenizing %d references allocated %v times a document", 7*2000, allocs)
	}
}

// BenchmarkCharData measures both directions on one special-dense 16 KiB
// value — one byte in 32 of <&>", as the benchmark's payload pool is — in
// both spellings.
func BenchmarkCharData(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	value := make([]byte, 16<<10)
	for i := range value {
		if value[i] = byte('a' + rng.Intn(26)); rng.Intn(32) == 0 {
			value[i] = `<&>"`[rng.Intn(4)]
		}
	}
	s := string(value)
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(s)))
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst = AppendCharData(dst[:0], s)
		}
	})
	b.Run("write-escaped", func(b *testing.B) {
		b.SetBytes(int64(len(s)))
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst = appendEscaped(dst[:0], s, &textEsc)
		}
	})
	for _, spelling := range []struct {
		name string
		doc  []byte
	}{
		{"read", []byte("<a>" + string(AppendCharData(nil, s)) + "</a>")},
		{"read-escaped", []byte("<a>" + EscapeText(s) + "</a>")},
	} {
		b.Run(spelling.name, func(b *testing.B) {
			b.SetBytes(int64(len(s)))
			b.ReportAllocs()
			tk := NewTokenizer(nil)
			tk.SetRawText(true)
			for i := 0; i < b.N; i++ {
				tk.ResetBytes(spelling.doc)
				for {
					if _, err := tk.Next(); err != nil {
						break
					}
				}
			}
		})
	}
}
