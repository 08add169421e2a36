package xmltext

import (
	"io"
	"strings"
	"testing"
)

// drain reads all tokens from the input, failing the test on error.
func drain(t *testing.T, src string) []Token {
	t.Helper()
	tk := NewTokenizer(strings.NewReader(src))
	var toks []Token
	for {
		tok, err := tk.Next()
		if err == io.EOF {
			return toks
		}
		if err != nil {
			t.Fatalf("Next(): %v (tokens so far: %v)", err, toks)
		}
		toks = append(toks, tok)
	}
}

// expectErr asserts that tokenizing src fails with a SyntaxError whose
// message contains want.
func expectErr(t *testing.T, src, want string) {
	t.Helper()
	tk := NewTokenizer(strings.NewReader(src))
	for {
		_, err := tk.Next()
		if err == io.EOF {
			t.Fatalf("tokenizing %q succeeded, want error containing %q", src, want)
		}
		if err != nil {
			se, ok := err.(*SyntaxError)
			if !ok {
				t.Fatalf("error %v is %T, want *SyntaxError", err, err)
			}
			if !strings.Contains(se.Msg, want) {
				t.Fatalf("error %q does not contain %q", se.Msg, want)
			}
			return
		}
	}
}

func TestTokenizeSimpleElement(t *testing.T) {
	toks := drain(t, `<a>hi</a>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3: %v", len(toks), toks)
	}
	if toks[0].Kind != KindStartElement || toks[0].Name.Local != "a" {
		t.Errorf("token 0 = %+v, want start <a>", toks[0])
	}
	if toks[1].Kind != KindText || toks[1].Text != "hi" {
		t.Errorf("token 1 = %+v, want text %q", toks[1], "hi")
	}
	if toks[2].Kind != KindEndElement || toks[2].Name.Local != "a" {
		t.Errorf("token 2 = %+v, want end </a>", toks[2])
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := drain(t, `<a/>`)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2", len(toks))
	}
	if !toks[0].SelfClosing {
		t.Error("start token not marked self-closing")
	}
	if toks[1].Kind != KindEndElement {
		t.Errorf("second token = %v, want synthetic EndElement", toks[1])
	}
}

func TestTokenizeAttributes(t *testing.T) {
	toks := drain(t, `<a x="1" ns:y='two &amp; three' empty=""/>`)
	at := toks[0].Attrs
	if len(at) != 3 {
		t.Fatalf("got %d attrs, want 3", len(at))
	}
	if at[0].Name != (Name{Local: "x"}) || at[0].Value != "1" {
		t.Errorf("attr 0 = %+v", at[0])
	}
	if at[1].Name != (Name{Prefix: "ns", Local: "y"}) || at[1].Value != "two & three" {
		t.Errorf("attr 1 = %+v", at[1])
	}
	if at[2].Value != "" {
		t.Errorf("attr 2 value = %q, want empty", at[2].Value)
	}
}

func TestTokenizePrefixedNames(t *testing.T) {
	toks := drain(t, `<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"></SOAP-ENV:Envelope>`)
	want := Name{Prefix: "SOAP-ENV", Local: "Envelope"}
	if toks[0].Name != want {
		t.Errorf("name = %v, want %v", toks[0].Name, want)
	}
	if toks[0].Name.String() != "SOAP-ENV:Envelope" {
		t.Errorf("String() = %q", toks[0].Name.String())
	}
}

func TestTokenizeEntities(t *testing.T) {
	toks := drain(t, `<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;&#x4e2d;</a>`)
	want := `<>&"'AB中`
	if toks[1].Text != want {
		t.Errorf("text = %q, want %q", toks[1].Text, want)
	}
}

func TestTokenizeCDATA(t *testing.T) {
	toks := drain(t, `<a><![CDATA[<not & markup> ]] ]]]></a>`)
	want := `<not & markup> ]] ]`
	if toks[1].Text != want {
		t.Errorf("text = %q, want %q", toks[1].Text, want)
	}
}

func TestTokenizeComment(t *testing.T) {
	toks := drain(t, `<a><!-- hello - world --></a>`)
	if toks[1].Kind != KindComment || toks[1].Text != " hello - world " {
		t.Errorf("token = %+v", toks[1])
	}
}

func TestTokenizeDeclaration(t *testing.T) {
	toks := drain(t, "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>")
	if toks[0].Kind != KindProcInst || toks[0].Target != "xml" {
		t.Errorf("token 0 = %+v, want xml declaration", toks[0])
	}
	if !strings.Contains(toks[0].Text, `version="1.0"`) {
		t.Errorf("declaration text = %q", toks[0].Text)
	}
}

func TestTokenizeWhitespaceHandling(t *testing.T) {
	toks := drain(t, "  \n <a> <b/> </a> \n")
	// Whitespace outside the root is skipped; inside it is preserved.
	kinds := make([]Kind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []Kind{KindStartElement, KindText, KindStartElement, KindEndElement, KindText, KindEndElement}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

func TestTokenizeNestedDepth(t *testing.T) {
	var b strings.Builder
	const depth = 100
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	toks := drain(t, b.String())
	if len(toks) != 2*depth {
		t.Fatalf("got %d tokens, want %d", len(toks), 2*depth)
	}
}

func TestTokenizeErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<a></b>`, "does not match"},
		{`<a>`, "not closed"},
		{`</a>`, "no open element"},
		{`<a><a/>`, "not closed"},
		{`<a/><b/>`, "root element"},
		{`text`, "character data outside root"},
		{`<a>&bogus;</a>`, "unknown entity"},
		{`<a>&#xZZ;</a>`, "bad character reference"},
		{`<a>&#0;</a>`, "not a valid XML character"},
		{`<a x=1/>`, "must be quoted"},
		{`<a x="1" x="2"/>`, "duplicate attribute"},
		{`<a x="<"/>`, "'<' not allowed"},
		{`<!DOCTYPE html><a/>`, "DOCTYPE"},
		{`<a><!-- -- --></a>`, "'--' not allowed"},
		{`<a`, "unexpected EOF"},
		{``, "no root element"},
		{`<a/>trailing`, "character data outside root"},
		// Outside the root, XML 1.0 allows white space only as itself.
		{`&#9;<a/>`, "character data outside root"},
		{"\xEF\xBB\xBF&#9;<a/>", "character data outside root"},
		{"\xEF\xBB\xBF \n&#x20;<a/>", "character data outside root"},
		{`<?pi?>&#32;<a/>`, "character data outside root"},
		{`<a/>&#10;`, "character data outside root"},
		{"<a/><!--c--> &#xD; ", "character data outside root"},
		{`<a><![CDATA[x]]</a>`, "unterminated CDATA"},
		{`<>`, "expected a name"},
		{`<:/>`, "expected a name"},
		{`<a:></a:>`, "expected a name"},
		{`<a b:="1"/>`, "expected a name"},
	}
	for _, c := range cases {
		expectErr(t, c.src, c.want)
	}
}

func TestTokenizerStickyError(t *testing.T) {
	tk := NewTokenizer(strings.NewReader(`<a></b>`))
	if _, err := tk.Next(); err != nil {
		t.Fatalf("first token: %v", err)
	}
	_, err1 := tk.Next()
	if err1 == nil {
		t.Fatal("expected error")
	}
	_, err2 := tk.Next()
	if err1 != err2 {
		t.Errorf("errors differ: %v vs %v", err1, err2)
	}
}

func TestTokenizerMaxDepth(t *testing.T) {
	var b strings.Builder
	for i := 0; i < MaxDepth+1; i++ {
		b.WriteString("<a>")
	}
	expectErr(t, b.String(), "nesting exceeds")
}

func TestTokenizerPositions(t *testing.T) {
	tk := NewTokenizer(strings.NewReader("<a>\n  <b></c>\n</a>"))
	var err error
	for err == nil {
		_, err = tk.Next()
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error = %v, want *SyntaxError", err)
	}
	if se.Pos.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Pos.Line)
	}
}

// TestTokenizeErrorPositions: an error is reported at the line and column of
// the offset where reading stopped, also after a name that ends at a newline
// (whose line the byte-at-a-time reader counted twice).
func TestTokenizeErrorPositions(t *testing.T) {
	cases := []struct {
		src, want string
		pos       Pos
	}{
		{"<a\n b=\"1\" b=\"2\"/>", "duplicate attribute", Pos{2, 13}},
		{"<a>\n<b\n></c></a>", "does not match", Pos{3, 6}},
		{"<a\n\n\n>x</b>", "does not match", Pos{4, 7}},
		{"<a>\n  <b></c>\n</a>", "does not match", Pos{2, 10}},
		{"<a:\n/>", "expected a name", Pos{1, 4}},
	}
	for _, c := range cases {
		tk := NewTokenizer(strings.NewReader(c.src))
		var err error
		for err == nil {
			_, err = tk.Next()
		}
		se, ok := err.(*SyntaxError)
		if !ok || !strings.Contains(se.Msg, c.want) || se.Pos != c.pos {
			t.Errorf("%q: %v, want %q at %v", c.src, err, c.want, c.pos)
		}
	}
}

func TestTokenizeProcInst(t *testing.T) {
	toks := drain(t, `<?pi some data?><a/>`)
	if toks[0].Kind != KindProcInst || toks[0].Target != "pi" || toks[0].Text != "some data" {
		t.Errorf("token = %+v", toks[0])
	}
}

func TestTokenizeUTF8Text(t *testing.T) {
	toks := drain(t, "<a>北京 — Beijing</a>")
	if toks[1].Text != "北京 — Beijing" {
		t.Errorf("text = %q", toks[1].Text)
	}
}

func TestParseName(t *testing.T) {
	if n := ParseName("a:b"); n != (Name{Prefix: "a", Local: "b"}) {
		t.Errorf("ParseName(a:b) = %v", n)
	}
	if n := ParseName("b"); n != (Name{Local: "b"}) {
		t.Errorf("ParseName(b) = %v", n)
	}
	if !(Name{}).IsZero() {
		t.Error("zero Name not IsZero")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{0, KindStartElement, KindEndElement, KindText, KindComment, KindProcInst}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
}

func TestTokenizeAttrValueNormalization(t *testing.T) {
	toks := drain(t, "<a x=\"one\ttwo\nthree\"/>")
	if got := toks[0].Attrs[0].Value; got != "one two three" {
		t.Errorf("normalized value = %q, want %q", got, "one two three")
	}
}

// TestTokenizerByteOrderMark: a UTF-8 byte order mark may stand where the
// XML declaration would, and nowhere else.
func TestTokenizerByteOrderMark(t *testing.T) {
	const bom = "\xEF\xBB\xBF"
	for _, tc := range []struct {
		doc string
		ok  bool
	}{
		{bom + `<a>x</a>`, true},
		{bom + `<?xml version="1.0"?><a/>`, true},
		{bom + " \n<a/>", true},
		{bom + bom + `<a/>`, false},
		{" " + bom + `<a/>`, false},
		{`<a/>` + bom, false},
		{bom + `x<a/>`, false},
	} {
		tk := AcquireTokenizer([]byte(tc.doc))
		var err error
		for err == nil {
			_, err = tk.Next()
		}
		ReleaseTokenizer(tk)
		if (err == io.EOF) != tc.ok {
			t.Errorf("%q: %v, want accepted: %v", tc.doc, err, tc.ok)
		}
	}
}
