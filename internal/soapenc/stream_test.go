package soapenc

import (
	"bytes"
	"flag"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

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

func streamEncodeString(t *testing.T, name string, v Value) (string, error) {
	t.Helper()
	em := xmltext.AcquireEmitter()
	defer xmltext.ReleaseEmitter(em)
	if err := EncodeTo(em, name, v); err != nil {
		return "", err
	}
	if err := em.Err(); err != nil {
		return "", err
	}
	return string(em.Bytes()), nil
}

// TestEncodeToParity pins the bytes of every type in the closed value model,
// including the edge values.
func TestEncodeToParity(t *testing.T) {
	ts := time.Date(2006, 1, 2, 15, 4, 5, 123456789, time.FixedZone("X", 3600))
	const array = ` xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType`
	cases := []struct {
		desc string
		v    Value
		want string
	}{
		{"nil", nil, `<p xsi:nil="true"/>`},
		{"string", "hello", `<p>hello</p>`},
		{"string empty", "", `<p></p>`},
		{"string escapes", `a<b&c>d"e` + "\r\n\t", `<p>a&lt;b&amp;c&gt;d"e&#13;` + "\n\t</p>"},
		{"string invalid utf8", "x\xffy", "<p>x\uFFFDy</p>"},
		{"bool true", true, `<p xsi:type="xsd:boolean">true</p>`},
		{"bool false", false, `<p xsi:type="xsd:boolean">false</p>`},
		{"int small", int64(42), `<p xsi:type="xsd:int">42</p>`},
		{"int negative", int64(-7), `<p xsi:type="xsd:int">-7</p>`},
		{"int32 boundary", int64(math.MaxInt32), `<p xsi:type="xsd:int">2147483647</p>`},
		{"long", int64(math.MaxInt32) + 1, `<p xsi:type="xsd:long">2147483648</p>`},
		{"long min", int64(math.MinInt64), `<p xsi:type="xsd:long">-9223372036854775808</p>`},
		{"plain int", int(5), `<p xsi:type="xsd:int">5</p>`},
		{"int32 typed", int32(-9), `<p xsi:type="xsd:int">-9</p>`},
		{"double", 3.14159, `<p xsi:type="xsd:double">3.14159</p>`},
		{"double negzero", math.Copysign(0, -1), `<p xsi:type="xsd:double">-0</p>`},
		{"double nan", math.NaN(), `<p xsi:type="xsd:double">NaN</p>`},
		{"double inf", math.Inf(1), `<p xsi:type="xsd:double">INF</p>`},
		{"double -inf", math.Inf(-1), `<p xsi:type="xsd:double">-INF</p>`},
		{"double huge", 1e308, `<p xsi:type="xsd:double">1e+308</p>`},
		{"bytes", []byte{0x00, 0xff, 0x10, 0x20}, `<p xsi:type="xsd:base64Binary">AP8QIA==</p>`},
		{"bytes empty", []byte{}, `<p xsi:type="xsd:base64Binary"></p>`},
		{"datetime", ts, `<p xsi:type="xsd:dateTime">2006-01-02T14:04:05.123456789Z</p>`},
		{"datetime utc sec", time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC), `<p xsi:type="xsd:dateTime">2020-06-01T00:00:00Z</p>`},
		{"array", Array{"a", int64(1), true}, `<p` + array + `[3]"><item>a</item>` +
			`<item xsi:type="xsd:int">1</item><item xsi:type="xsd:boolean">true</item></p>`},
		{"array empty", Array{}, `<p` + array + `[0]"/>`},
		{"array nested", Array{Array{"x"}, nil}, `<p` + array + `[2]"><item` + array + `[1]"><item>x</item></item><item xsi:nil="true"/></p>`},
		{"struct", NewStruct(F("a", "x"), F("b", int64(2))), `<p><a>x</a><b xsi:type="xsd:int">2</b></p>`},
		{"struct empty", NewStruct(), `<p/>`},
		{"struct nil", (*Struct)(nil), `<p xsi:nil="true"/>`},
		{"struct nested", NewStruct(F("inner", NewStruct(F("deep", 1.5)))), `<p><inner><deep xsi:type="xsd:double">1.5</deep></inner></p>`},
	}
	for _, tc := range cases {
		t.Run(tc.desc, func(t *testing.T) {
			got, err := streamEncodeString(t, "p", tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("byte divergence:\ngot:  %s\nwant: %s", got, tc.want)
			}
		})
	}
}

func TestEncodeToErrors(t *testing.T) {
	cases := []struct {
		desc string
		v    Value
		want string
	}{
		{"unsupported", complex64(1), "soapenc: unsupported value type complex64"},
		{"empty struct field", NewStruct(F("", "x")), "soapenc: struct field with empty name"},
		{"unsupported in array", Array{uint(1)}, "soapenc: unsupported value type uint"},
	}
	for _, tc := range cases {
		t.Run(tc.desc, func(t *testing.T) {
			if _, err := streamEncodeString(t, "p", tc.v); err == nil || err.Error() != tc.want {
				t.Fatalf("error %v, want %s", err, tc.want)
			}
		})
	}
}

func TestEncodeParamsToParity(t *testing.T) {
	params := []Field{
		F("message", "hello & <world>"),
		F("count", int64(3)),
		F("when", time.Date(2021, 3, 4, 5, 6, 7, 0, time.UTC)),
	}
	const want = `<op><message>hello &amp; &lt;world&gt;</message><count xsi:type="xsd:int">3</count>` +
		`<when xsi:type="xsd:dateTime">2021-03-04T05:06:07Z</when></op>`
	em := xmltext.AcquireEmitter()
	defer xmltext.ReleaseEmitter(em)
	em.Start(xmltext.Name{Local: "op"})
	if err := EncodeParamsTo(em, params); err != nil {
		t.Fatal(err)
	}
	em.End()
	if err := em.Err(); err != nil {
		t.Fatal(err)
	}
	if got := string(em.Bytes()); got != want {
		t.Fatalf("divergence:\ngot:  %s\nwant: %s", got, want)
	}

	if err := EncodeParamsTo(em, []Field{F("", "x")}); err == nil ||
		!strings.Contains(err.Error(), "parameter with empty name") {
		t.Fatalf("empty-name error changed: %v", err)
	}
}

// TestEncodeToStreamRoundTrip re-decodes stream-encoded values.
func TestEncodeToStreamRoundTrip(t *testing.T) {
	values := []Value{
		"text", int64(99), true, 2.5, []byte("blob"),
		Array{"a", int64(1)}, NewStruct(F("k", "v")),
	}
	for _, v := range values {
		s, err := streamEncodeString(t, "p", v)
		if err != nil {
			t.Fatal(err)
		}
		// Wrap so xsd/xsi/SOAP-ENC prefixes resolve during decode.
		doc := `<w xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"` +
			` xmlns:xsd="http://www.w3.org/2001/XMLSchema"` +
			` xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/">` + s + `</w>`
		root, err := xmldom.ParseString(doc)
		if err != nil {
			t.Fatalf("parse %s: %v", doc, err)
		}
		got, err := Decode(root.ChildElements()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, v) {
			t.Fatalf("round trip changed value: %#v -> %#v", v, got)
		}
	}
}

func BenchmarkEncodeParamsToStream(b *testing.B) {
	params := []Field{F("message", "hello"), F("count", int64(3))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		em := xmltext.AcquireEmitter()
		em.Start(xmltext.Name{Local: "op"})
		if err := EncodeParamsTo(em, params); err != nil {
			b.Fatal(err)
		}
		em.End()
		xmltext.ReleaseEmitter(em)
	}
}

// TestArrayMarksEmitter: a value marks on the emitter exactly the prefixes it
// wrote — a string none, nil xsi, a typed scalar xsi and xsd, an array all
// three — so the envelope encoder framing the document knows what to declare.
func TestArrayMarksEmitter(t *testing.T) {
	typed := soap.DeclXSI | soap.DeclXSD
	for _, tc := range []struct {
		v    Value
		want soap.Decls
	}{
		{"text", 0}, {"", 0}, {NewStruct(F("k", "v")), 0}, {NewStruct(), 0},
		{nil, soap.DeclXSI}, {(*Struct)(nil), soap.DeclXSI}, {NewStruct(F("k", nil)), soap.DeclXSI},
		{int64(1), typed}, {int64(math.MaxInt64), typed}, {true, typed}, {2.5, typed}, {[]byte("b"), typed},
		{time.Unix(0, 0), typed}, {NewStruct(F("k", "v"), F("n", 1)), typed},
		{Array{}, typed | soap.DeclEncoding}, {NewStruct(F("k", Array{"deep"})), typed | soap.DeclEncoding},
	} {
		em := xmltext.AcquireEmitter()
		if err := EncodeTo(em, "p", tc.v); err != nil {
			t.Fatal(err)
		}
		if em.Marked() != tc.want {
			t.Errorf("%#v: emitter marked %03b, want %03b (bits: SOAP-ENC, xsi, xsd)", tc.v, em.Marked(), tc.want)
		}
		xmltext.ReleaseEmitter(em)
	}
}

// TestClosedSetRoundTrip is the round-trip property over the closed value set,
// whole envelopes: the stream encoder writes the bytes
// testdata/closed_set.golden holds, one quoted line a message — declarations
// on the Envelope tag included — and what it writes decodes back to the value
// that went in. The strings are the ones a reader deciding by spelling alone
// could take for something else.
func TestClosedSetRoundTrip(t *testing.T) {
	values := []Value{
		"", " ", " \t\r\n ", "123", "-7", "true", "false", "1.5", "NaN", "2006-01-02T15:04:05Z", "aGk=",
		" padded ", "a<b&c", nil, true, 2.5, []byte("blob"), time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC),
		int64(math.MaxInt32), int64(math.MaxInt32) + 1, int64(math.MinInt32), int64(math.MinInt32) - 1,
		int64(math.MaxInt64), int64(math.MinInt64),
		Array{}, Array{"", " ", "123", "true"}, Array{"two", int64(2), nil, Array{"deep"}},
		NewStruct(F("empty", ""), F("blank", "  "), F("digits", "123"), F("flag", "true")),
		NewStruct(F("n", int64(1)), F("s", "x"), F("list", Array{"y"}), F("none", nil)),
	}
	var wrote []string
	check := func(params []Field) {
		t.Helper()
		enc := soap.NewStreamEncoder()
		defer enc.Release()
		enc.Begin(soap.V11, nil)
		em := enc.Emitter()
		em.Start(xmltext.Name{Prefix: "m", Local: "op"})
		em.Attr(xmltext.Name{Prefix: "xmlns", Local: "m"}, "urn:t")
		if err := EncodeParamsTo(em, params); err != nil {
			t.Fatal(err)
		}
		em.End()
		stream, err := enc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		wrote = append(wrote, strconv.Quote(string(stream)))

		back, err := soap.Decode(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: %v", stream, err)
		}
		got, err := DecodeParams(back.Body[0])
		if err != nil {
			t.Fatalf("%s: %v", stream, err)
		}
		if !Equal(&Struct{Fields: got}, &Struct{Fields: params}) {
			t.Errorf("%#v came back as %#v\n%s", params, got, stream)
		}
	}
	for _, v := range values {
		check([]Field{F("p", v)})
	}
	// And all of them in one message.
	var all []Field
	for i, v := range values {
		all = append(all, F("p"+strconv.Itoa(i), v))
	}
	check(all)
	goldenLines(t, "testdata/closed_set.golden", wrote)
}
