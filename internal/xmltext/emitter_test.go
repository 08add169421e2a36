package xmltext

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// emitOp is one writer instruction.
type emitOp struct {
	kind  string // "start", "attr", "end", "text", "comment"
	name  Name
	value string
}

// applyOps drives a pooled Emitter through ops and returns what it wrote and
// what Finish said.
func applyOps(t *testing.T, ops []emitOp) (string, error) {
	t.Helper()
	e := AcquireEmitter()
	defer ReleaseEmitter(e)
	for _, op := range ops {
		switch op.kind {
		case "start":
			e.Start(op.name)
		case "attr":
			e.Attr(op.name, op.value)
		case "end":
			e.End()
		case "text":
			e.Text(op.value)
		case "comment":
			e.Comment(op.value)
		default:
			t.Fatalf("unknown op %q", op.kind)
		}
	}
	err := e.Finish()
	return string(e.Bytes()), err
}

// TestEmitterParityDocuments pins the bytes of whole documents: lazy start
// tags, escaping in text and attribute values, comments.
func TestEmitterParityDocuments(t *testing.T) {
	name := func(p, l string) Name { return Name{Prefix: p, Local: l} }
	cases := []struct {
		desc string
		ops  []emitOp
		want string
	}{
		{"simple element", []emitOp{
			{kind: "start", name: name("", "root")},
			{kind: "text", value: "hello"},
			{kind: "end"},
		}, `<root>hello</root>`},
		{"envelope nesting", []emitOp{
			{kind: "start", name: name("SOAP-ENV", "Envelope")},
			{kind: "attr", name: name("xmlns", "SOAP-ENV"), value: "http://schemas.xmlsoap.org/soap/envelope/"},
			{kind: "start", name: name("SOAP-ENV", "Body")},
			{kind: "start", name: name("m", "echo")},
			{kind: "attr", name: name("xmlns", "m"), value: "urn:spi:Echo"},
			{kind: "text", value: "payload"},
			{kind: "end"},
			{kind: "end"},
			{kind: "end"},
		}, `<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"><SOAP-ENV:Body>` +
			`<m:echo xmlns:m="urn:spi:Echo">payload</m:echo></SOAP-ENV:Body></SOAP-ENV:Envelope>`},
		{"self-closing", []emitOp{
			{kind: "start", name: name("", "a")},
			{kind: "start", name: name("", "b")},
			{kind: "attr", name: name("", "x"), value: "1"},
			{kind: "end"},
			{kind: "end"},
		}, `<a><b x="1"/></a>`},
		{"empty text keeps explicit close tag", []emitOp{
			{kind: "start", name: name("", "a")},
			{kind: "text", value: ""},
			{kind: "end"},
		}, `<a></a>`},
		{"escaping in text and attrs", []emitOp{
			{kind: "start", name: name("", "a")},
			{kind: "attr", name: name("", "q"), value: `<&>"` + "\t\n\r"},
			{kind: "text", value: `a<b&c>d"e` + "\r\n\t"},
			{kind: "end"},
		}, `<a q="&lt;&amp;&gt;&quot;&#9;&#10;&#13;">a&lt;b&amp;c&gt;d"e&#13;` + "\n\t</a>"},
		{"invalid utf8 and control chars", []emitOp{
			{kind: "start", name: name("", "a")},
			{kind: "attr", name: name("", "q"), value: "x\xffy\x01z"},
			{kind: "text", value: "x\xffy\x01z "},
			{kind: "end"},
		}, "<a q=\"x\uFFFDy\uFFFDz\">x\uFFFDy\uFFFDz </a>"},
		{"comment", []emitOp{
			{kind: "start", name: name("", "a")},
			{kind: "comment", value: " note "},
			{kind: "end"},
		}, `<a><!-- note --></a>`},
		{"multibyte text", []emitOp{
			{kind: "start", name: name("", "a")},
			{kind: "text", value: "héllo wörld — 日本語"},
			{kind: "end"},
		}, `<a>héllo wörld — 日本語</a>`},
	}
	for _, tc := range cases {
		t.Run(tc.desc, func(t *testing.T) {
			got, err := applyOps(t, tc.ops)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("output mismatch:\ngot:  %q\nwant: %q", got, tc.want)
			}
		})
	}
}

// TestEmitterParityErrors pins the sticky errors: each misuse is reported by
// Finish with the message below, whatever follows it.
func TestEmitterParityErrors(t *testing.T) {
	name := func(p, l string) Name { return Name{Prefix: p, Local: l} }
	cases := []struct {
		desc string
		ops  []emitOp
		want string
	}{
		{"empty element name", []emitOp{{kind: "start", name: Name{}}}, "xmltext: empty element name"},
		{"attr outside start tag", []emitOp{
			{kind: "start", name: name("", "a")},
			{kind: "text", value: "x"},
			{kind: "attr", name: name("", "q"), value: "1"},
		}, "xmltext: Attr(q) outside of start tag"},
		{"end with no open element", []emitOp{{kind: "end"}}, "xmltext: EndElement with no open element"},
		{"text outside root", []emitOp{{kind: "text", value: "x"}}, "xmltext: text outside root element"},
		{"comment with double dash", []emitOp{
			{kind: "start", name: name("", "a")},
			{kind: "comment", value: "a--b"},
		}, `xmltext: comment contains "--"`},
		{"unclosed element at flush", []emitOp{{kind: "start", name: name("", "a")}}, "xmltext: Flush with 1 unclosed element(s)"},
	}
	for _, tc := range cases {
		t.Run(tc.desc, func(t *testing.T) {
			// The error sticks: a well-formed tail does not clear it.
			ops := append(tc.ops[:len(tc.ops):len(tc.ops)], emitOp{kind: "start", name: name("", "z")}, emitOp{kind: "end"})
			for _, ops := range [][]emitOp{tc.ops, ops} {
				if _, err := applyOps(t, ops); err == nil || err.Error() != tc.want {
					t.Fatalf("error %v, want %s", err, tc.want)
				}
			}
		})
	}
}

// TestEmitterParityRandom drives the emitter through random documents with
// adversarial strings; testdata/random_documents.golden holds the bytes of
// each, one quoted line a document (-update rewrites it).
func TestEmitterParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	values := []string{
		"", "plain", "a<b", "x&y", `q"r`, "tab\tnl\ncr\r", "\xff\xfe",
		"\x00\x01", "ünïcødé", strings.Repeat("long", 100), "]]>", "--",
	}
	names := []Name{
		{Local: "root"}, {Prefix: "SOAP-ENV", Local: "Body"},
		{Prefix: "m", Local: "op"}, {Local: "item"}, {Prefix: "spi", Local: "Parallel_Response"},
	}
	var wrote []string
	for round := 0; round < 200; round++ {
		var ops []emitOp
		ops = append(ops, emitOp{kind: "start", name: names[rng.Intn(len(names))]})
		depth := 1
		for i := 0; i < 30 && depth > 0; i++ {
			switch rng.Intn(5) {
			case 0:
				ops = append(ops, emitOp{kind: "start", name: names[rng.Intn(len(names))]})
				depth++
			case 1:
				ops = append(ops, emitOp{kind: "attr", name: Name{Local: "a"}, value: values[rng.Intn(len(values))]})
			case 2:
				ops = append(ops, emitOp{kind: "text", value: values[rng.Intn(len(values))]})
			case 3, 4:
				ops = append(ops, emitOp{kind: "end"})
				depth--
			}
		}
		for ; depth > 0; depth-- {
			ops = append(ops, emitOp{kind: "end"})
		}
		out, err := applyOps(t, ops)
		if err != nil {
			// An attribute after content: the sequence is random, the message is not.
			out = "!" + err.Error()
		}
		wrote = append(wrote, strconv.Quote(out))
	}
	goldenLines(t, "testdata/random_documents.golden", wrote)
}

// goldenLines holds got to the lines of the file at path, which -update
// rewrites.
func goldenLines(t *testing.T, path string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(file), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d lines written, %s holds %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d: wrote %s\n%s holds %s", i+1, got[i], path, want[i])
		}
	}
}

func TestEmitterExtendAndRaw(t *testing.T) {
	e := AcquireEmitter()
	defer ReleaseEmitter(e)
	e.Start(Name{Local: "a"})
	tail := e.Extend(3)
	copy(tail, "xyz")
	e.Raw([]byte("<b/>"))
	e.RawString("<c/>")
	e.End()
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if got, want := string(e.Bytes()), "<a>xyz<b/><c/></a>"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestEmitterAttrRaw(t *testing.T) {
	e := AcquireEmitter()
	defer ReleaseEmitter(e)
	e.Start(Name{Local: "a"})
	e.AttrRaw(Name{Prefix: "SOAP-ENC", Local: "arrayType"}, []byte("xsd:anyType[3]"))
	e.End()
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if got, want := string(e.Bytes()), `<a SOAP-ENC:arrayType="xsd:anyType[3]"/>`; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestEmitterGrow(t *testing.T) {
	e := AcquireEmitter()
	defer ReleaseEmitter(e)
	e.Start(Name{Local: "a"})
	e.Grow(1 << 16)
	if cap(e.buf)-len(e.buf) < 1<<16 {
		t.Fatalf("Grow did not reserve capacity: cap=%d len=%d", cap(e.buf), len(e.buf))
	}
	e.Text("x")
	e.End()
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := string(e.Bytes()); got != "<a>x</a>" {
		t.Fatalf("got %q", got)
	}
}

// TestEmitterPoolRecycling hammers acquire/emit/release from many
// goroutines; run under -race via the race-pools make target.
func TestEmitterPoolRecycling(t *testing.T) {
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e := AcquireEmitter()
				e.Start(Name{Prefix: "SOAP-ENV", Local: "Envelope"})
				e.Start(Name{Prefix: "SOAP-ENV", Local: "Body"})
				payload := fmt.Sprintf("w%d-r%d", seed, i)
				e.Start(Name{Local: "data"})
				e.Text(payload)
				e.End()
				e.End()
				e.End()
				if err := e.Finish(); err != nil {
					t.Errorf("finish: %v", err)
				}
				want := `<SOAP-ENV:Envelope><SOAP-ENV:Body><data>` +
					payload + `</data></SOAP-ENV:Body></SOAP-ENV:Envelope>`
				if got := string(e.Bytes()); got != want {
					t.Errorf("pooled emitter corrupted: got %q want %q", got, want)
				}
				ReleaseEmitter(e)
			}
		}(w)
	}
	wg.Wait()
}

func TestEmitterOversizedNotPooled(t *testing.T) {
	e := &Emitter{buf: make([]byte, 0, maxPooledEmitter+1)}
	ReleaseEmitter(e) // must drop, not pool
	got := AcquireEmitter()
	defer ReleaseEmitter(got)
	if got == e {
		t.Fatal("oversized emitter was pooled")
	}
}

// TestAppendEscapeParity: the append form of the text escaper agrees with the
// string form (which chardata_test.go holds to the rune-at-a-time reference).
func TestAppendEscapeParity(t *testing.T) {
	cases := []string{
		"", "plain", "a<b&c>d", `quote"tab` + "\ttext", "\r\n", "\xff", "\x00",
		"ünïcødé", "mixed \xffü<&", strings.Repeat("x", 1000) + "<",
	}
	for _, s := range cases {
		if got, want := string(appendEscaped(nil, s, &textEsc)), EscapeText(s); got != want {
			t.Errorf("appendEscaped(%q) = %q, want %q", s, got, want)
		}
	}
}

func BenchmarkEmitterEnvelope(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := AcquireEmitter()
		e.Start(Name{Prefix: "SOAP-ENV", Local: "Envelope"})
		e.Start(Name{Prefix: "SOAP-ENV", Local: "Body"})
		for j := 0; j < 16; j++ {
			e.Start(Name{Prefix: "m", Local: "echo"})
			e.Attr(Name{Prefix: "xmlns", Local: "m"}, "urn:spi:Echo")
			e.Start(Name{Local: "data"})
			e.Text("payload")
			e.End()
			e.End()
		}
		e.End()
		e.End()
		if err := e.Finish(); err != nil {
			b.Fatal(err)
		}
		ReleaseEmitter(e)
	}
}

// TestEmitterMark: the framing notes accumulate, survive whatever is emitted
// after them, and a pooled emitter comes back without them.
func TestEmitterMark(t *testing.T) {
	e := AcquireEmitter()
	if e.Marked() != 0 {
		t.Fatal("fresh emitter is marked")
	}
	e.Start(Name{Local: "a"})
	e.Mark(1)
	e.Mark(4)
	e.Mark(1)
	e.End()
	if e.Marked() != 5 || string(e.Bytes()) != "<a/>" {
		t.Fatalf("marked = %b, bytes %q", e.Marked(), e.Bytes())
	}
	ReleaseEmitter(e)
	if e = AcquireEmitter(); e.Marked() != 0 {
		t.Fatal("marks survived the pool")
	}
	ReleaseEmitter(e)
}

// emit runs build on a pooled emitter and returns the document and what
// Finish reported.
func emit(build func(e *Emitter)) (string, error) {
	e := AcquireEmitter()
	defer ReleaseEmitter(e)
	build(e)
	err := e.Finish()
	return string(e.Bytes()), err
}

// The TestWriter tests are the writer's contract one behaviour at a time;
// their names predate the Emitter being the only XML writer.

func TestWriterSimple(t *testing.T) {
	got, err := emit(func(e *Emitter) {
		e.Start(Name{Local: "a"})
		e.Attr(Name{Local: "x"}, `1 & "two"`)
		e.Text("hi <there>")
		e.Start(Name{Prefix: "p", Local: "b"})
		e.End()
		e.End()
	})
	if want := `<a x="1 &amp; &quot;two&quot;">hi &lt;there&gt;<p:b/></a>`; err != nil || got != want {
		t.Errorf("got  %q (%v)\nwant %q", got, err, want)
	}
}

func TestWriterMismatch(t *testing.T) {
	if _, err := emit(func(e *Emitter) {
		e.Start(Name{Local: "a"})
		e.End()
		e.End()
	}); err == nil {
		t.Error("extra End not reported")
	}
}

func TestWriterUnclosed(t *testing.T) {
	if _, err := emit(func(e *Emitter) { e.Start(Name{Local: "a"}) }); err == nil {
		t.Error("unclosed element not reported")
	}
}

func TestWriterEmptyName(t *testing.T) {
	if _, err := emit(func(e *Emitter) { e.Start(Name{}) }); err == nil {
		t.Error("empty element name not reported")
	}
}

func TestWriterTextOutsideRoot(t *testing.T) {
	if _, err := emit(func(e *Emitter) { e.Text("oops") }); err == nil {
		t.Error("text outside root not reported")
	}
}

func TestWriterAttrMethod(t *testing.T) {
	got, err := emit(func(e *Emitter) {
		e.Start(Name{Local: "a"})
		e.Attr(Name{Local: "k"}, "v")
		e.End()
	})
	if err != nil || got != `<a k="v"/>` {
		t.Errorf("got %q (%v)", got, err)
	}
	for _, late := range []func(e *Emitter){
		func(e *Emitter) { e.Attr(Name{Local: "late"}, "v") },
		func(e *Emitter) { e.AttrRaw(Name{Local: "late"}, []byte("v")) },
	} {
		if _, err := emit(func(e *Emitter) {
			e.Start(Name{Local: "a"})
			e.Text("x")
			late(e)
			e.End()
		}); err == nil {
			t.Error("late attribute not reported")
		}
	}
}

func TestWriterCommentValidation(t *testing.T) {
	if _, err := emit(func(e *Emitter) {
		e.Start(Name{Local: "a"})
		e.Comment("bad -- comment")
		e.End()
	}); err == nil {
		t.Error("comment containing -- not reported")
	}
}

// TestWriterTokenizerRoundTrip: the Emitter is the inverse of the Tokenizer —
// what it writes tokenizes back to the same logical document.
func TestWriterTokenizerRoundTrip(t *testing.T) {
	doc, err := emit(func(e *Emitter) {
		e.Start(Name{Local: "root"})
		e.Attr(Name{Local: "attr"}, "a<b&c\"d'e\tf\ng")
		e.Text("text with 中文 & entities <>")
		e.Start(Name{Prefix: "ns", Local: "child"})
		e.Text("inner")
		e.End()
		e.Comment(" a comment ")
		e.End()
	})
	if err != nil {
		t.Fatal(err)
	}
	toks := drain(t, doc)
	want := []struct {
		kind Kind
		name Name
		text string
	}{
		{KindStartElement, Name{Local: "root"}, ""},
		{KindText, Name{}, "text with 中文 & entities <>"},
		{KindStartElement, Name{Prefix: "ns", Local: "child"}, ""},
		{KindText, Name{}, "inner"},
		{KindEndElement, Name{Prefix: "ns", Local: "child"}, ""},
		{KindComment, Name{}, " a comment "},
		{KindEndElement, Name{Local: "root"}, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("%d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Name != w.name || toks[i].Text != w.text {
			t.Errorf("token %d = %v, want %v", i, toks[i], w)
		}
	}
	if v, _ := toks[0].Attr(Name{Local: "attr"}); v != "a<b&c\"d'e\tf\ng" {
		t.Errorf("attr round trip = %q", v)
	}
}

// readBack is what a reader gets for a value the writer was given: the value
// itself where XML can represent it, U+FFFD in place of each character it
// excludes and each byte that is not UTF-8 (which ranges as RuneError).
func readBack(s string) string {
	var b strings.Builder
	for _, r := range s {
		if !isValidXMLChar(r) {
			r = utf8.RuneError
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Property: any string — arbitrary bytes included — survives text escape ->
// tokenize as readBack has it. A carriage return comes back too: the writer
// spells it &#13;, and never inside a CDATA section.
func TestQuickTextRoundTrip(t *testing.T) {
	roundTrip := func(s string) bool {
		doc, err := emit(func(e *Emitter) {
			e.Start(Name{Local: "t"})
			e.Text(s)
			e.End()
		})
		if err != nil {
			return false
		}
		tk := NewTokenizer(strings.NewReader(doc))
		var got strings.Builder
		for {
			tok, err := tk.Next()
			if err == io.EOF {
				return got.String() == readBack(s)
			}
			if err != nil {
				t.Logf("input %q -> %q: %v", s, doc, err)
				return false
			}
			if tok.Kind == KindText {
				got.WriteString(tok.Text)
			}
		}
	}
	f := func(s string, junk []byte) bool { return roundTrip(s) && roundTrip(string(junk)) }
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: any string survives attribute escape -> tokenize, likewise.
func TestQuickAttrRoundTrip(t *testing.T) {
	roundTrip := func(s string) bool {
		doc, err := emit(func(e *Emitter) {
			e.Start(Name{Local: "t"})
			e.Attr(Name{Local: "a"}, s)
			e.End()
		})
		if err != nil {
			return false
		}
		tok, err := NewTokenizer(strings.NewReader(doc)).Next()
		if err != nil {
			t.Logf("input %q -> %q: %v", s, doc, err)
			return false
		}
		v, ok := tok.Attr(Name{Local: "a"})
		return ok && v == readBack(s)
	}
	f := func(s string, junk []byte) bool { return roundTrip(s) && roundTrip(string(junk)) }
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
		return !bytes.ContainsAny(AppendEscAttr(nil, s), `<>"`)
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
	if got := string(AppendEscAttr(nil, s)); got != s {
		t.Errorf("AppendEscAttr(%q) = %q", s, got)
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
		if got := string(AppendEscAttr(nil, c.in)); got != c.attr {
			t.Errorf("AppendEscAttr(%q) = %q, want %q", c.in, got, c.attr)
		}
	}
}
