package msgcache

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// fullSerialize is the reference path, the request as a client without a
// template cache writes it: the entry and its parameters streamed into an
// envelope.
func fullSerialize(t testing.TB, namespace, op string, params []soapenc.Field) []byte {
	t.Helper()
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(soap.V11, nil)
	em := enc.Emitter()
	em.Start(xmltext.Name{Prefix: "m", Local: op})
	em.Attr(xmltext.Name{Prefix: "xmlns", Local: "m"}, namespace)
	if err := soapenc.EncodeParamsTo(em, params); err != nil {
		t.Fatal(err)
	}
	em.End()
	doc, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(doc)
}

// render is RenderTo onto a fresh emitter, returning a copy of the document.
func render(c *Cache, service, namespace, op string, params []soapenc.Field) ([]byte, bool, error) {
	em := xmltext.AcquireEmitter()
	defer xmltext.ReleaseEmitter(em)
	ok, err := c.RenderTo(em, service, namespace, op, params)
	return append([]byte(nil), em.Bytes()...), ok, err
}

func TestTemplateMatchesFullSerialization(t *testing.T) {
	c := New()
	paramSets := [][]soapenc.Field{
		{soapenc.F("city", "Beijing"), soapenc.F("days", int64(3))},
		{soapenc.F("city", "Shanghai"), soapenc.F("days", int64(7))},
		{soapenc.F("city", "text with <markup> & \"entities\""), soapenc.F("days", int64(-1))},
		{soapenc.F("city", ""), soapenc.F("days", int64(0))},
	}
	for i, params := range paramSets {
		got, ok, err := render(c, "Weather", "urn:w", "GetWeather", params)
		if err != nil || !ok {
			t.Fatalf("render %d: ok=%v err=%v", i, ok, err)
		}
		want := fullSerialize(t, "urn:w", "GetWeather", params)
		if string(got) != string(want) {
			t.Errorf("set %d:\ncache: %s\nfull:  %s", i, got, want)
		}
	}
	if n := len(c.templates); n != 1 {
		t.Errorf("templates = %d, want 1", n)
	}
}

// TestTemplateDeclaresOnDemand: a template follows the encoder. One built
// for strings alone declares neither xsi nor xsd, one with an int in it
// declares both, each matches a full serialization byte for byte, and
// rendering a cached shape allocates nothing.
func TestTemplateDeclaresOnDemand(t *testing.T) {
	c := New()
	for name, tc := range map[string]struct {
		params []soapenc.Field
		want   soap.Decls
	}{
		"strings": {[]soapenc.Field{soapenc.F("city", "Beijing"), soapenc.F("country", "")}, 0},
		"an int":  {[]soapenc.Field{soapenc.F("city", "Beijing"), soapenc.F("days", int64(3))}, soap.DeclXSI | soap.DeclXSD},
	} {
		got, ok, err := render(c, "Weather", "urn:w", "GetWeather", tc.params)
		if err != nil || !ok {
			t.Fatalf("%s: render: ok=%v err=%v", name, ok, err)
		}
		if want := fullSerialize(t, "urn:w", "GetWeather", tc.params); string(got) != string(want) {
			t.Errorf("%s:\ncache: %s\nfull:  %s", name, got, want)
		}
		if decls := soap.TagDecls(got[:bytes.IndexByte(got, '>')]); decls != tc.want {
			t.Errorf("%s: template Envelope declares %03b, want %03b (bits: SOAP-ENC, xsi, xsd)\n%s", name, decls, tc.want, got)
		}
		if bytes.Contains(got, []byte(`"xsd:string"`)) {
			t.Errorf("%s: a string states its type: %s", name, got)
		}
		em := xmltext.AcquireEmitter()
		if allocs := testing.AllocsPerRun(100, func() {
			em.Reset()
			if ok, err := c.RenderTo(em, "Weather", "urn:w", "GetWeather", tc.params); err != nil || !ok {
				t.Fatalf("%s: render: ok=%v err=%v", name, ok, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: rendering a cached shape allocates %v times", name, allocs)
		}
		xmltext.ReleaseEmitter(em)
	}
	if n := len(c.templates); n != 2 {
		t.Errorf("strings and a typed call share a template: %d templates", n)
	}
}

func TestScalarTypesRoundTrip(t *testing.T) {
	c := New()
	cases := [][]soapenc.Field{
		{soapenc.F("s", "x")},
		{soapenc.F("i", int64(42))},
		{soapenc.F("big", int64(math.MaxInt64))},
		{soapenc.F("f", 3.25)},
		{soapenc.F("f", math.Inf(1))},
		{soapenc.F("b", true)},
		{soapenc.F("b", false)},
		{soapenc.F("gi", int(7))},
		{soapenc.F("g32", int32(-7))},
	}
	for _, params := range cases {
		got, ok, err := render(c, "S", "urn:s", "op", params)
		if err != nil || !ok {
			t.Fatalf("render %v: ok=%v err=%v", params, ok, err)
		}
		want := fullSerialize(t, "urn:s", "op", params)
		if string(got) != string(want) {
			t.Errorf("params %v:\ncache: %s\nfull:  %s", params, got, want)
		}
	}
}

func TestIntWidthGetsDistinctTemplates(t *testing.T) {
	c := New()
	small := []soapenc.Field{soapenc.F("n", int64(1))}
	big := []soapenc.Field{soapenc.F("n", int64(math.MaxInt32)+1)}
	g1, _, err := render(c, "S", "urn:s", "op", small)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := render(c, "S", "urn:s", "op", big)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(g1), "xsd:int") || !strings.Contains(string(g2), "xsd:long") {
		t.Errorf("wrong xsi types:\n%s\n%s", g1, g2)
	}
	if len(c.templates) != 2 {
		t.Errorf("templates = %d, want 2 (separate int widths)", len(c.templates))
	}
}

func TestUncacheableShapes(t *testing.T) {
	c := New()
	for _, params := range [][]soapenc.Field{
		{soapenc.F("arr", soapenc.Array{"x"})},
		{soapenc.F("st", soapenc.NewStruct(soapenc.F("a", "b")))},
		{soapenc.F("nil", nil)},
		{soapenc.F("bytes", []byte("x"))},
	} {
		_, ok, err := render(c, "S", "urn:s", "op", params)
		if err != nil {
			t.Fatalf("render: %v", err)
		}
		if ok {
			t.Errorf("params %v should be uncacheable", params)
		}
	}
	if n := len(c.templates); n != 0 {
		t.Errorf("uncacheable calls built %d templates", n)
	}
}

func TestDistinctOperationsDistinctTemplates(t *testing.T) {
	c := New()
	render(c, "A", "urn:a", "op1", []soapenc.Field{soapenc.F("x", "1")})
	render(c, "A", "urn:a", "op2", []soapenc.Field{soapenc.F("x", "1")})
	render(c, "B", "urn:b", "op1", []soapenc.Field{soapenc.F("x", "1")})
	render(c, "A", "urn:a", "op1", []soapenc.Field{soapenc.F("y", "1")}) // different name
	if n := len(c.templates); n != 4 {
		t.Errorf("templates = %d, want 4", n)
	}
}

func TestRenderedDocumentParses(t *testing.T) {
	c := New()
	params := []soapenc.Field{soapenc.F("q", "a<b&c"), soapenc.F("n", int64(9))}
	doc, ok, err := render(c, "S", "urn:s", "op", params)
	if err != nil || !ok {
		t.Fatal(err)
	}
	env, err := soap.Decode(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("rendered doc does not parse: %v\n%s", err, doc)
	}
	got, err := soapenc.DecodeParams(env.Body[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !soapenc.Equal(got[0].Value, "a<b&c") || !soapenc.Equal(got[1].Value, int64(9)) {
		t.Errorf("decoded params = %v", got)
	}
}

func TestConcurrentRender(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				params := []soapenc.Field{soapenc.F("x", strings.Repeat("y", i+1))}
				if _, ok, err := render(c, "S", "urn:s", "op", params); err != nil || !ok {
					t.Errorf("render: ok=%v err=%v", ok, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n := len(c.templates); n != 1 {
		t.Errorf("templates = %d, want 1", n)
	}
}

// Property: for random scalar parameter lists, the cache render always
// equals the full serialization.
func TestQuickCacheEqualsFull(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New()
		n := 1 + r.Intn(4)
		for round := 0; round < 3; round++ {
			params := make([]soapenc.Field, n)
			for i := range params {
				name := string(rune('a' + i))
				switch r.Intn(4) {
				case 0:
					params[i] = soapenc.F(name, randText(r))
				case 1:
					params[i] = soapenc.F(name, int64(r.Intn(1000)))
				case 2:
					params[i] = soapenc.F(name, float64(r.Intn(1000))/8)
				default:
					params[i] = soapenc.F(name, r.Intn(2) == 0)
				}
			}
			got, ok, err := render(c, "S", "urn:s", "op", params)
			if err != nil || !ok {
				return false
			}
			want := fullSerialize(t, "urn:s", "op", params)
			if string(got) != string(want) {
				t.Logf("mismatch:\ncache: %s\nfull:  %s", got, want)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randText(r *rand.Rand) string {
	letters := []rune("ab<>&\"'中 \t")
	out := make([]rune, r.Intn(10))
	for i := range out {
		out[i] = letters[r.Intn(len(letters))]
	}
	return string(out)
}

func BenchmarkFullSerialization(b *testing.B) {
	params := []soapenc.Field{soapenc.F("city", "Beijing"), soapenc.F("days", int64(3))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fullSerialize(b, "urn:w", "GetWeather", params)
	}
}

func BenchmarkTemplateRender(b *testing.B) {
	c := New()
	params := []soapenc.Field{soapenc.F("city", "Beijing"), soapenc.F("days", int64(3))}
	if _, ok, err := render(c, "Weather", "urn:w", "GetWeather", params); err != nil || !ok {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := render(c, "Weather", "urn:w", "GetWeather", params); err != nil {
			b.Fatal(err)
		}
	}
}
