package xmltext

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestInternReturnsSharedCopy(t *testing.T) {
	// A seeded vocabulary string always hits the shared copy, regardless
	// of how full earlier tests (shuffled in any order) left the table.
	a := Intern([]byte("spi:id"))
	b := Intern([]byte("spi:id"))
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("second Intern of a seeded string did not return the shared copy")
	}
	// A fresh string shares its copy only while the table has room.
	size, _ := internSize()
	c := Intern([]byte("urn:intern-test:shared"))
	d := Intern([]byte("urn:intern-test:shared"))
	if c != d {
		t.Fatalf("interned strings differ: %q vs %q", c, d)
	}
	if size < maxInternEntries && unsafe.StringData(c) != unsafe.StringData(d) {
		t.Error("second Intern of the same bytes did not return the shared copy")
	}
}

func TestInternNameSplitsOnce(t *testing.T) {
	_, names := internSize()
	n1 := InternName([]byte("spi:internTestOp"))
	n2 := InternName([]byte("spi:internTestOp"))
	if n1 != n2 {
		t.Fatalf("interned names differ: %v vs %v", n1, n2)
	}
	if n1.Prefix != "spi" || n1.Local != "internTestOp" {
		t.Fatalf("bad split: %+v", n1)
	}
	// Pointer identity needs the name remembered, which needs table room —
	// shuffled test orders may have filled it first.
	if names < maxInternEntries && unsafe.StringData(n1.Local) != unsafe.StringData(n2.Local) {
		t.Error("second InternName did not return the cached Name")
	}
}

func TestInternSeededVocabulary(t *testing.T) {
	// The protocol vocabulary must hit without growing the table.
	s0, n0 := internSize()
	for _, s := range []string{
		"http://schemas.xmlsoap.org/soap/envelope/", "xsd:string", "true",
	} {
		Intern([]byte(s))
	}
	for _, s := range []string{"SOAP-ENV:Envelope", "spi:id", "xsi:type"} {
		InternName([]byte(s))
	}
	s1, n1 := internSize()
	if s1 != s0 || n1 != n0 {
		t.Errorf("seeded lookups grew the table: strings %d->%d names %d->%d", s0, s1, n0, n1)
	}
}

func TestInternCapAndLongStrings(t *testing.T) {
	long := strings.Repeat("x", maxInternLen+1)
	if got := Intern([]byte(long)); got != long {
		t.Fatalf("long string mangled")
	}
	s0, _ := internSize()
	Intern([]byte(long))
	if s1, _ := internSize(); s1 != s0 {
		t.Error("over-length string was interned")
	}
	// The cap stops growth but never breaks correctness.
	for i := 0; i < maxInternEntries+100; i++ {
		s := fmt.Sprintf("urn:cap-filler:%d", i)
		if got := Intern([]byte(s)); got != s {
			t.Fatalf("Intern(%q) = %q", s, got)
		}
	}
	if s1, _ := internSize(); s1 > maxInternEntries {
		t.Errorf("table exceeded cap: %d > %d", s1, maxInternEntries)
	}
}

func TestInternConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := fmt.Sprintf("urn:conc:%d", i%50)
				if got := Intern([]byte(s)); got != s {
					t.Errorf("Intern(%q) = %q", s, got)
					return
				}
				InternName([]byte(fmt.Sprintf("p:conc%d", i%50)))
			}
		}(g)
	}
	wg.Wait()
}

func TestIsWhitespace(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"", true}, {" \t\r\n", true}, {" x ", false}, {"x", false},
	} {
		if got := IsWhitespace([]byte(tc.in)); got != tc.want {
			t.Errorf("IsWhitespace(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestTokenBytesRawText checks the zero-copy text mode: content arrives via
// TokenBytes, matches the materialized mode byte for byte, and the slice is
// invalidated (reused) by the next token rather than leaking stale data.
func TestTokenBytesRawText(t *testing.T) {
	const doc = `<a>first &amp; entity</a>`
	tk := NewTokenizer(strings.NewReader(doc))
	tk.SetRawText(true)
	if tok, err := tk.Next(); err != nil || tok.Kind != KindStartElement {
		t.Fatalf("start: %v %v", tok, err)
	}
	tok, err := tk.Next()
	if err != nil || tok.Kind != KindText {
		t.Fatalf("text: %v %v", tok, err)
	}
	if tok.Text != "" {
		t.Errorf("raw mode materialized Text %q", tok.Text)
	}
	if got := string(tk.TokenBytes()); got != "first & entity" {
		t.Errorf("TokenBytes = %q", got)
	}
}

// TestRawTextMatchesMaterialized runs both modes over documents with
// entities, CDATA and mixed content and checks the byte streams agree.
func TestRawTextMatchesMaterialized(t *testing.T) {
	docs := []string{
		`<a>plain</a>`,
		`<a>one<b>two</b>three</a>`,
		`<a><![CDATA[<raw & bytes>]]></a>`,
		`<a>&#65;&lt;mix&gt;<![CDATA[]]>tail</a>`,
	}
	for _, doc := range docs {
		plain := NewTokenizer(strings.NewReader(doc))
		raw := NewTokenizer(strings.NewReader(doc))
		raw.SetRawText(true)
		for {
			a, errA := plain.Next()
			b, errB := raw.Next()
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: error divergence %v vs %v", doc, errA, errB)
			}
			if errA == io.EOF {
				break
			}
			if errA != nil {
				t.Fatalf("%s: %v", doc, errA)
			}
			if a.Kind != b.Kind || a.Name != b.Name {
				t.Fatalf("%s: token divergence %v vs %v", doc, a, b)
			}
			if a.Kind == KindText && a.Text != string(raw.TokenBytes()) {
				t.Fatalf("%s: text %q vs raw %q", doc, a.Text, raw.TokenBytes())
			}
		}
	}
}

// TestReuseTokenAttrs checks the shared-attrs mode: values are correct per
// token, and the backing array really is reused across tokens.
func TestReuseTokenAttrs(t *testing.T) {
	const doc = `<r><a x="1" y="2"/><b z="3"/></r>`
	tk := NewTokenizer(strings.NewReader(doc))
	tk.SetReuseTokenAttrs(true)
	var prev []Attr
	seen := 0
	for {
		tok, err := tk.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind != KindStartElement {
			continue
		}
		switch tok.Name.Local {
		case "a":
			if len(tok.Attrs) != 2 || tok.Attrs[0] != (Attr{Name{Local: "x"}, "1"}) {
				t.Errorf("a attrs = %v", tok.Attrs)
			}
			prev = tok.Attrs
			seen++
		case "b":
			if len(tok.Attrs) != 1 || tok.Attrs[0] != (Attr{Name{Local: "z"}, "3"}) {
				t.Errorf("b attrs = %v", tok.Attrs)
			}
			if len(prev) > 0 && len(tok.Attrs) > 0 && &prev[:1][0] != &tok.Attrs[:1][0] {
				t.Error("attrs backing array was not reused")
			}
			seen++
		}
	}
	if seen != 2 {
		t.Fatalf("saw %d start tokens with attrs, want 2", seen)
	}
}

// TestProcInstTrim pins the PI separator-trim behaviour the double-trim fix
// must preserve.
func TestProcInstTrim(t *testing.T) {
	tk := NewTokenizer(strings.NewReader(`<?xml   version="1.0"?><a/>`))
	tok, err := tk.Next()
	if err != nil || tok.Kind != KindProcInst {
		t.Fatalf("pi: %v %v", tok, err)
	}
	if tok.Target != "xml" || tok.Text != `version="1.0"` {
		t.Errorf("pi = target %q text %q", tok.Target, tok.Text)
	}
}
