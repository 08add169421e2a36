package xmltext

import (
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestWriterSimple(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.StartElement(Name{Local: "a"}, Attr{Name: Name{Local: "x"}, Value: `1 & "two"`})
	w.Text("hi <there>")
	w.StartElement(Name{Prefix: "p", Local: "b"})
	w.EndElement()
	w.EndElement()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `<a x="1 &amp; &quot;two&quot;">hi &lt;there&gt;<p:b/></a>`
	if b.String() != want {
		t.Errorf("got  %q\nwant %q", b.String(), want)
	}
}

func TestWriterMismatch(t *testing.T) {
	w := NewWriter(io.Discard)
	w.StartElement(Name{Local: "a"})
	w.EndElement()
	w.EndElement()
	if err := w.Flush(); err == nil {
		t.Error("extra EndElement not reported")
	}
}

func TestWriterUnclosed(t *testing.T) {
	w := NewWriter(io.Discard)
	w.StartElement(Name{Local: "a"})
	if err := w.Flush(); err == nil {
		t.Error("unclosed element not reported")
	}
}

func TestWriterEmptyName(t *testing.T) {
	w := NewWriter(io.Discard)
	w.StartElement(Name{})
	if err := w.Flush(); err == nil {
		t.Error("empty element name not reported")
	}
}

func TestWriterTextOutsideRoot(t *testing.T) {
	w := NewWriter(io.Discard)
	w.Text("oops")
	if err := w.Flush(); err == nil {
		t.Error("text outside root not reported")
	}
}

func TestWriterAttrMethod(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.StartElement(Name{Local: "a"})
	w.Attr(Name{Local: "k"}, "v")
	w.EndElement()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if b.String() != `<a k="v"/>` {
		t.Errorf("got %q", b.String())
	}

	w2 := NewWriter(io.Discard)
	w2.StartElement(Name{Local: "a"})
	w2.Text("x")
	w2.Attr(Name{Local: "late"}, "v")
	w2.EndElement()
	if err := w2.Flush(); err == nil {
		t.Error("late Attr not reported")
	}
}

func TestWriterCommentValidation(t *testing.T) {
	w := NewWriter(io.Discard)
	w.StartElement(Name{Local: "a"})
	w.Comment("bad -- comment")
	w.EndElement()
	if err := w.Flush(); err == nil {
		t.Error("comment containing -- not reported")
	}
}

func TestWriterIndent(t *testing.T) {
	var b strings.Builder
	w := NewIndentWriter(&b, "  ")
	w.StartElement(Name{Local: "a"})
	w.StartElement(Name{Local: "b"})
	w.Text("x")
	w.EndElement()
	w.EndElement()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "<a>\n  <b>x</b>\n</a>"
	if b.String() != want {
		t.Errorf("got  %q\nwant %q", b.String(), want)
	}
}

// roundTrip serializes a small token program and re-tokenizes it, comparing
// logical content.
func TestWriterTokenizerRoundTrip(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.StartElement(Name{Local: "root"}, Attr{Name: Name{Local: "attr"}, Value: "a<b&c\"d'e\tf\ng"})
	w.Text("text with 中文 & entities <>")
	w.StartElement(Name{Prefix: "ns", Local: "child"})
	w.Text("inner")
	w.EndElement()
	w.Comment(" a comment ")
	w.EndElement()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	toks := drain(t, b.String())
	if toks[0].Attrs[0].Value != "a<b&c\"d'e\tf\ng" {
		t.Errorf("attr round trip = %q", toks[0].Attrs[0].Value)
	}
	if toks[1].Text != "text with 中文 & entities <>" {
		t.Errorf("text round trip = %q", toks[1].Text)
	}
}

// sanitizeXMLString replaces characters that XML cannot represent (and so
// the writer deliberately replaces with U+FFFD) so quick-generated strings
// become representable.
func sanitizeXMLString(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == utf8.RuneError || !isValidXMLChar(r) {
			b.WriteRune(' ')
		} else {
			b.WriteRune(r)
		}
	}
	return strings.ToValidUTF8(b.String(), " ")
}

// Property: any representable string survives text escape -> tokenize.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(raw string) bool {
		s := sanitizeXMLString(raw)
		var b strings.Builder
		w := NewWriter(&b)
		w.StartElement(Name{Local: "t"})
		w.Text(s)
		w.EndElement()
		if err := w.Flush(); err != nil {
			return false
		}
		tk := NewTokenizer(strings.NewReader(b.String()))
		var got strings.Builder
		for {
			tok, err := tk.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Logf("input %q -> %q: %v", s, b.String(), err)
				return false
			}
			if tok.Kind == KindText {
				got.WriteString(tok.Text)
			}
		}
		// \r is normalized to \n by XML line-end rules only in literal form;
		// our writer emits &#13; so it must round-trip exactly.
		return got.String() == s
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: any representable string survives attribute escape -> tokenize.
func TestQuickAttrRoundTrip(t *testing.T) {
	f := func(raw string) bool {
		s := sanitizeXMLString(raw)
		var b strings.Builder
		w := NewWriter(&b)
		w.StartElement(Name{Local: "t"}, Attr{Name: Name{Local: "a"}, Value: s})
		w.EndElement()
		if err := w.Flush(); err != nil {
			return false
		}
		tk := NewTokenizer(strings.NewReader(b.String()))
		tok, err := tk.Next()
		if err != nil {
			t.Logf("input %q -> %q: %v", s, b.String(), err)
			return false
		}
		v, ok := tok.Attr(Name{Local: "a"})
		return ok && v == s
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: escaping never produces raw markup characters.
func TestQuickEscapeProducesNoMarkup(t *testing.T) {
	f := func(s string) bool {
		esc := EscapeText(s)
		if strings.ContainsAny(esc, "<>") {
			return false
		}
		for i := 0; i < len(esc); i++ {
			if esc[i] == '&' {
				// must start an entity
				rest := esc[i:]
				if !strings.HasPrefix(rest, "&amp;") &&
					!strings.HasPrefix(rest, "&lt;") &&
					!strings.HasPrefix(rest, "&gt;") &&
					!strings.HasPrefix(rest, "&#") {
					return false
				}
			}
		}
		aesc := EscapeAttr(s)
		return !strings.ContainsAny(aesc, `<>"`)
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEscapeFastPath(t *testing.T) {
	s := "plain ascii text"
	if got := EscapeText(s); got != s {
		t.Errorf("EscapeText(%q) = %q", s, got)
	}
	if got := EscapeAttr(s); got != s {
		t.Errorf("EscapeAttr(%q) = %q", s, got)
	}
}

func TestEscapeSpecials(t *testing.T) {
	cases := []struct{ in, text, attr string }{
		{"a&b", "a&amp;b", "a&amp;b"},
		{"a<b>c", "a&lt;b&gt;c", "a&lt;b&gt;c"},
		{`q"q`, `q"q`, "q&quot;q"},
		{"a\rb", "a&#13;b", "a&#13;b"},
		{"a\tb\nc", "a\tb\nc", "a&#9;b&#10;c"},
		{"中文", "中文", "中文"},
	}
	for _, c := range cases {
		if got := EscapeText(c.in); got != c.text {
			t.Errorf("EscapeText(%q) = %q, want %q", c.in, got, c.text)
		}
		if got := EscapeAttr(c.in); got != c.attr {
			t.Errorf("EscapeAttr(%q) = %q, want %q", c.in, got, c.attr)
		}
	}
}

// Property: WriteToken(tokenize(doc)) reproduces an equivalent token stream.
func TestCopyThroughWriteToken(t *testing.T) {
	src := `<?xml version="1.0" encoding="UTF-8"?><r a="1"><b>text &amp; more</b><!--c--><d/></r>`
	toks := drain(t, src)
	var b strings.Builder
	w := NewWriter(&b)
	for _, tok := range toks {
		w.WriteToken(tok)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	toks2 := drain(t, b.String())
	if !reflect.DeepEqual(normalize(toks), normalize(toks2)) {
		t.Errorf("token streams differ:\n%v\n%v", toks, toks2)
	}
}

// normalize clears fields that may legitimately differ across a write cycle
// (self-closing form).
func normalize(toks []Token) []Token {
	out := make([]Token, len(toks))
	for i, tok := range toks {
		tok.SelfClosing = false
		if tok.Attrs != nil && len(tok.Attrs) == 0 {
			tok.Attrs = nil
		}
		out[i] = tok
	}
	return out
}
