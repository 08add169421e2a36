package xmltext

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// emitOp is one writer instruction. The tests below drive Writer and Emitter
// through identical sequences and hold each to the same committed bytes.
type emitOp struct {
	kind  string // "start", "attr", "end", "text", "comment"
	name  Name
	value string
}

func applyOps(t *testing.T, ops []emitOp) (writerOut string, writerErr error, emitterOut string, emitterErr error) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	e := AcquireEmitter()
	defer ReleaseEmitter(e)
	for _, op := range ops {
		switch op.kind {
		case "start":
			w.StartElement(op.name)
			e.Start(op.name)
		case "attr":
			w.Attr(op.name, op.value)
			e.Attr(op.name, op.value)
		case "end":
			w.EndElement()
			e.End()
		case "text":
			w.Text(op.value)
			e.Text(op.value)
		case "comment":
			w.Comment(op.value)
			e.Comment(op.value)
		default:
			t.Fatalf("unknown op %q", op.kind)
		}
	}
	writerErr = w.Flush()
	emitterErr = e.Finish()
	return buf.String(), writerErr, string(e.Bytes()), emitterErr
}

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
			wOut, wErr, eOut, eErr := applyOps(t, tc.ops)
			if wErr != nil || eErr != nil {
				t.Fatalf("errors: writer=%v emitter=%v", wErr, eErr)
			}
			if wOut != tc.want || eOut != tc.want {
				t.Fatalf("output mismatch:\nwriter:  %q\nemitter: %q\nwant:    %q", wOut, eOut, tc.want)
			}
		})
	}
}

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
			_, wErr, _, eErr := applyOps(t, tc.ops)
			if wErr == nil || eErr == nil {
				t.Fatalf("expected errors, got writer=%v emitter=%v", wErr, eErr)
			}
			if wErr.Error() != tc.want || eErr.Error() != tc.want {
				t.Fatalf("error mismatch:\nwriter:  %v\nemitter: %v\nwant:    %s", wErr, eErr, tc.want)
			}
		})
	}
}

// TestEmitterParityRandom drives the writers through random valid documents
// with adversarial strings; testdata/random_documents.golden holds the bytes
// of each, one quoted line a document (-update rewrites it).
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
		wOut, wErr, eOut, eErr := applyOps(t, ops)
		if (wErr == nil) != (eErr == nil) {
			t.Fatalf("round %d: error divergence writer=%v emitter=%v", round, wErr, eErr)
		}
		if wErr != nil {
			// An attribute after content: the sequence is random, the message is not.
			if wErr.Error() != eErr.Error() {
				t.Fatalf("round %d: error mismatch %v vs %v", round, wErr, eErr)
			}
			eOut = "!" + eErr.Error()
		} else if wOut != eOut {
			t.Fatalf("round %d: output mismatch\nwriter:  %q\nemitter: %q", round, wOut, eOut)
		}
		wrote = append(wrote, strconv.Quote(eOut))
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

// TestAppendEscapeParity: the append and length forms agree with the string
// forms (which chardata_test.go holds to the rune-at-a-time reference).
func TestAppendEscapeParity(t *testing.T) {
	cases := []string{
		"", "plain", "a<b&c>d", `quote"tab` + "\ttext", "\r\n", "\xff", "\x00",
		"ünïcødé", "mixed \xffü<&", strings.Repeat("x", 1000) + "<",
	}
	for _, s := range cases {
		if got, want := string(appendEscaped(nil, s, &textEsc)), EscapeText(s); got != want {
			t.Errorf("appendEscaped(%q) = %q, want %q", s, got, want)
		}
		if got, want := string(AppendEscAttr(nil, s)), EscapeAttr(s); got != want {
			t.Errorf("AppendEscAttr(%q) = %q, want %q", s, got, want)
		}
		if got, want := CharDataLen(s), len(AppendCharData(nil, s)); got != want {
			t.Errorf("CharDataLen(%q) = %d, want %d", s, got, want)
		}
		if got, want := EscapedAttrLen(s), len(EscapeAttr(s)); got != want {
			t.Errorf("EscapedAttrLen(%q) = %d, want %d", s, got, want)
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
