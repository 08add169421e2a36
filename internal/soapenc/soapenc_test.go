package soapenc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// encodedDocument streams params as the parameters of the one body entry,
// <Op>, of an envelope, which declares the prefixes they use.
func encodedDocument(params ...Field) (string, error) {
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(soap.V11, nil)
	em := enc.Emitter()
	em.Start(xmltext.Name{Local: "Op"})
	if err := EncodeParamsTo(em, params); err != nil {
		return "", err
	}
	em.End()
	doc, err := enc.Finish()
	return string(doc), err
}

// encodeInEnvelope encodes v under a proper envelope so the standard
// prefixes resolve, then re-parses the document and returns the element
// carrying v.
func encodeInEnvelope(t *testing.T, v Value) *xmldom.Element {
	t.Helper()
	doc, err := encodedDocument(F("param", v))
	if err != nil {
		t.Fatalf("encoding %v: %v", v, err)
	}
	env, err := soap.Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("decode envelope: %v (doc %s)", err, doc)
	}
	return env.Body[0].Child("", "param")
}

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	el := encodeInEnvelope(t, v)
	got, err := Decode(el)
	if err != nil {
		t.Fatalf("Decode(%v): %v", v, err)
	}
	return got
}

func TestScalarRoundTrips(t *testing.T) {
	cases := []Value{
		"hello world",
		"",
		"text with <markup> & \"entities\" and 中文",
		true,
		false,
		int64(0),
		int64(42),
		int64(-1),
		int64(math.MaxInt32),
		int64(math.MaxInt32) + 1,
		int64(math.MinInt64),
		3.14159,
		0.0,
		-2.5e300,
		math.Inf(1),
		math.Inf(-1),
		[]byte("binary\x00data\xff"),
		[]byte{},
		time.Date(2006, 7, 5, 12, 30, 45, 123456789, time.UTC),
		nil,
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !Equal(v, got) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

func TestNaNRoundTrip(t *testing.T) {
	got := roundTrip(t, math.NaN())
	f, ok := got.(float64)
	if !ok || !math.IsNaN(f) {
		t.Errorf("NaN round trip = %#v", got)
	}
}

func TestIntTypeSelection(t *testing.T) {
	el := encodeInEnvelope(t, int64(7))
	if ty := el.AttrValue(xmltext.Name{Prefix: "xsi", Local: "type"}); ty != "xsd:int" {
		t.Errorf("small int type = %q, want xsd:int", ty)
	}
	el = encodeInEnvelope(t, int64(math.MaxInt32)+1)
	if ty := el.AttrValue(xmltext.Name{Prefix: "xsi", Local: "type"}); ty != "xsd:long" {
		t.Errorf("large int type = %q, want xsd:long", ty)
	}
}

func TestGoIntConvenience(t *testing.T) {
	got := roundTrip(t, int(5))
	if !Equal(int64(5), got) {
		t.Errorf("int encoded round trip = %#v", got)
	}
	got = roundTrip(t, int32(-9))
	if !Equal(int64(-9), got) {
		t.Errorf("int32 encoded round trip = %#v", got)
	}
}

func TestArrayRoundTrip(t *testing.T) {
	arr := Array{"a", int64(1), true, Array{"nested"}, nil}
	got := roundTrip(t, arr)
	if !Equal(arr, got) {
		t.Errorf("array round trip = %#v", got)
	}
}

func TestEmptyArrayRoundTrip(t *testing.T) {
	got := roundTrip(t, Array{})
	arr, ok := got.(Array)
	if !ok || len(arr) != 0 {
		t.Errorf("empty array round trip = %#v", got)
	}
}

func TestStructRoundTrip(t *testing.T) {
	s := NewStruct(
		F("name", "airline-1"),
		F("price", 199.99),
		F("seats", int64(3)),
		F("tags", Array{"cheap", "fast"}),
		F("inner", NewStruct(F("k", "v"))),
	)
	got := roundTrip(t, s)
	if !Equal(s, got) {
		t.Errorf("struct round trip = %#v", got)
	}
}

func TestStructAccessors(t *testing.T) {
	s := NewStruct(F("s", "x"), F("i", int64(3)), F("f", 1.5), F("b", true))
	if s.GetString("s") != "x" || s.GetInt("i") != 3 || s.GetFloat("f") != 1.5 || !s.GetBool("b") {
		t.Errorf("accessors wrong: %#v", s)
	}
	if s.GetString("missing") != "" || s.GetInt("s") != 0 {
		t.Error("missing/mistyped accessors should zero")
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) ok")
	}
}

func TestDecodeUntypedElement(t *testing.T) {
	el, err := xmldom.ParseString(`<p>plain text</p>`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Decode(el)
	if err != nil {
		t.Fatal(err)
	}
	if v != "plain text" {
		t.Errorf("untyped decode = %#v", v)
	}

	el2, err := xmldom.ParseString(`<p><a>1</a><b>2</b></p>`)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Decode(el2)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := v2.(*Struct)
	if !ok || s.GetString("a") != "1" || s.GetString("b") != "2" {
		t.Errorf("untyped struct decode = %#v", v2)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:int">notanint</p>`,
		`<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:boolean">maybe</p>`,
		`<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:double">wide</p>`,
		`<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:base64Binary">!!!</p>`,
		`<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:dateTime">yesterday</p>`,
		`<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:fancyUnknown">x</p>`,
	}
	for _, src := range cases {
		el, err := xmldom.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(el); err == nil {
			t.Errorf("Decode(%s) succeeded, want error", src)
		}
	}
}

func TestEncodeRejectsUnsupported(t *testing.T) {
	if _, err := encodedDocument(F("p", struct{ X int }{1})); err == nil {
		t.Error("arbitrary struct type accepted")
	}
	if _, err := encodedDocument(F("p", map[string]int{})); err == nil {
		t.Error("map accepted")
	}
	if _, err := encodedDocument(F("", "x")); err == nil {
		t.Error("empty param name accepted")
	}
}

func TestParamsRoundTrip(t *testing.T) {
	params := []Field{
		F("city", "Beijing"),
		F("days", int64(3)),
		F("detail", true),
	}
	doc, err := encodedDocument(params...)
	if err != nil {
		t.Fatal(err)
	}
	env2, err := soap.Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeParams(env2.Body[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(params) {
		t.Fatalf("got %d params", len(got))
	}
	for i := range params {
		if got[i].Name != params[i].Name || !Equal(got[i].Value, params[i].Value) {
			t.Errorf("param %d = %#v, want %#v", i, got[i], params[i])
		}
	}
}

// randomValue generates a random encodable value. Strings avoid characters
// XML cannot carry; structs always have at least one field (an empty struct
// is indistinguishable from an empty string on the wire, which is a
// documented property of loosely-typed SOAP encoding).
func randomValue(r *rand.Rand, depth int) Value {
	kinds := 7
	if depth > 0 {
		kinds = 9
	}
	switch r.Intn(kinds) {
	case 0:
		return randString(r)
	case 1:
		return r.Intn(2) == 0
	case 2:
		return int64(r.Uint64())
	case 3:
		return r.NormFloat64() * 1e6
	case 4:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		return b
	case 5:
		return time.Unix(r.Int63n(4e9), int64(r.Intn(1e9))).UTC()
	case 6:
		return nil
	case 7:
		n := r.Intn(4)
		arr := make(Array, n)
		for i := range arr {
			arr[i] = randomValue(r, depth-1)
		}
		return arr
	default:
		n := 1 + r.Intn(3)
		s := &Struct{}
		for i := 0; i < n; i++ {
			s.Fields = append(s.Fields, Field{
				Name:  string(rune('a' + i)),
				Value: randomValue(r, depth-1),
			})
		}
		return s
	}
}

func randString(r *rand.Rand) string {
	letters := []rune("abc <>&\"'\t\n中文xyz")
	n := r.Intn(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = letters[r.Intn(len(letters))]
	}
	return string(out)
}

// Property: every generated value survives encode -> serialize -> parse ->
// decode.
func TestQuickValueRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)

		doc, err := encodedDocument(F("p", v))
		if err != nil {
			t.Logf("encode %#v: %v", v, err)
			return false
		}
		env2, err := soap.Decode(strings.NewReader(doc))
		if err != nil {
			t.Logf("decode doc: %v", err)
			return false
		}
		got, err := Decode(env2.Body[0].Child("", "p"))
		if err != nil {
			t.Logf("decode value: %v", err)
			return false
		}
		if !Equal(v, got) {
			t.Logf("mismatch: %#v -> %#v (doc %s)", v, got, doc)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEqualCrossTypes(t *testing.T) {
	if Equal("1", int64(1)) || Equal(true, "true") || Equal(nil, "") {
		t.Error("cross-type values compared equal")
	}
	if Equal(Array{"a"}, Array{"b"}) || Equal(NewStruct(F("a", "x")), NewStruct(F("b", "x"))) {
		t.Error("different composites compared equal")
	}
}
