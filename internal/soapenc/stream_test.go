package soapenc

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// domEncodeString serializes the DOM-path encoding of (name, v).
func domEncodeString(t *testing.T, name string, v Value) (string, error) {
	t.Helper()
	parent := xmldom.NewElement(xmltext.Name{Local: "parent"})
	el, err := Encode(parent, name, v)
	if err != nil {
		return "", err
	}
	return el.String(), nil
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

// TestEncodeToParity pins the streaming value serializers byte-identical
// to the DOM path for every type in the closed value model, including the
// edge values.
func TestEncodeToParity(t *testing.T) {
	ts := time.Date(2006, 1, 2, 15, 4, 5, 123456789, time.FixedZone("X", 3600))
	cases := []struct {
		desc string
		v    Value
	}{
		{"nil", nil},
		{"string", "hello"},
		{"string empty", ""},
		{"string escapes", `a<b&c>d"e` + "\r\n\t"},
		{"string invalid utf8", "x\xffy"},
		{"bool true", true},
		{"bool false", false},
		{"int small", int64(42)},
		{"int negative", int64(-7)},
		{"int32 boundary", int64(math.MaxInt32)},
		{"long", int64(math.MaxInt32) + 1},
		{"long min", int64(math.MinInt64)},
		{"plain int", int(5)},
		{"int32 typed", int32(-9)},
		{"double", 3.14159},
		{"double negzero", math.Copysign(0, -1)},
		{"double nan", math.NaN()},
		{"double inf", math.Inf(1)},
		{"double -inf", math.Inf(-1)},
		{"double huge", 1e308},
		{"bytes", []byte{0x00, 0xff, 0x10, 0x20}},
		{"bytes empty", []byte{}},
		{"datetime", ts},
		{"datetime utc sec", time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)},
		{"array", Array{"a", int64(1), true}},
		{"array empty", Array{}},
		{"array nested", Array{Array{"x"}, nil}},
		{"struct", NewStruct(F("a", "x"), F("b", int64(2)))},
		{"struct empty", NewStruct()},
		{"struct nil", (*Struct)(nil)},
		{"struct nested", NewStruct(F("inner", NewStruct(F("deep", 1.5))))},
	}
	for _, tc := range cases {
		t.Run(tc.desc, func(t *testing.T) {
			want, wantErr := domEncodeString(t, "p", tc.v)
			got, gotErr := streamEncodeString(t, "p", tc.v)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error divergence: dom=%v stream=%v", wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if got != want {
				t.Fatalf("byte divergence:\ndom:    %s\nstream: %s", want, got)
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
			_, domErr := domEncodeString(t, "p", tc.v)
			_, streamErr := streamEncodeString(t, "p", tc.v)
			if domErr == nil || streamErr == nil {
				t.Fatalf("expected errors, dom=%v stream=%v", domErr, streamErr)
			}
			if domErr.Error() != streamErr.Error() {
				t.Fatalf("error text diverged:\ndom:    %v\nstream: %v", domErr, streamErr)
			}
			if streamErr.Error() != tc.want {
				t.Fatalf("error message changed: %v", streamErr)
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
	parent := xmldom.NewElement(xmltext.Name{Local: "op"})
	if err := EncodeParams(parent, params); err != nil {
		t.Fatal(err)
	}
	want := parent.String()

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
		t.Fatalf("divergence:\ndom:    %s\nstream: %s", want, got)
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
// whole envelopes through both writers: the DOM and the stream encoder write
// the same bytes — declarations on the Envelope tag included — and what they
// write decodes back to the value that went in. The strings are the ones a
// reader deciding by spelling alone could take for something else.
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
	check := func(params []Field) {
		t.Helper()
		op := xmldom.NewElement(xmltext.Name{Prefix: "m", Local: "op"})
		op.DeclareNamespace("m", "urn:t")
		if err := EncodeParams(op, params); err != nil {
			t.Fatal(err)
		}
		env := soap.New()
		env.AddBody(op)
		var dom strings.Builder
		if err := env.Encode(&dom); err != nil {
			t.Fatal(err)
		}

		enc := soap.NewStreamEncoder()
		defer enc.Release()
		enc.Begin(soap.V11, nil)
		em := enc.Emitter()
		em.Start(op.Name)
		em.Attr(xmltext.Name{Prefix: "xmlns", Local: "m"}, "urn:t")
		if err := EncodeParamsTo(em, params); err != nil {
			t.Fatal(err)
		}
		em.End()
		stream, err := enc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if string(stream) != dom.String() {
			t.Fatalf("%#v: writers diverge:\ndom:    %s\nstream: %s", params, dom.String(), stream)
		}

		back, err := soap.Decode(strings.NewReader(dom.String()))
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
}
