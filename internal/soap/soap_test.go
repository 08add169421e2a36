package soap

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// faultDocument is f as the one body entry of an envelope in version v, the
// way a server answers with it.
func faultDocument(t *testing.T, f *Fault, v Version) []byte {
	t.Helper()
	enc := NewStreamEncoder()
	defer enc.Release()
	enc.Begin(v, nil)
	f.AppendElementFor(enc.Emitter(), v)
	doc, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(doc)
}

func TestEnvelopeEncodeDecode(t *testing.T) {
	env := New()
	hdr := xmldom.NewElement(xmltext.Name{Local: "TraceID"})
	hdr.DeclareNamespace("", "urn:trace")
	hdr.SetText("abc-123")
	env.Header = append(env.Header, hdr)

	op := xmldom.NewElement(xmltext.Name{Local: "Echo"})
	op.DeclareNamespace("", "urn:echo")
	op.AddElement(xmltext.Name{Local: "msg"}).SetText("hello")
	env.Body = append(env.Body, op)

	var b strings.Builder
	if err := env.Encode(&b); err != nil {
		t.Fatal(err)
	}
	doc := b.String()
	if !strings.HasPrefix(doc, "<"+PrefixEnvelope+":Envelope ") {
		t.Errorf("document does not open on the Envelope (no writer emits an XML declaration): %.60s", doc)
	}
	if !strings.Contains(doc, PrefixEnvelope+":Envelope") {
		t.Error("missing envelope element")
	}

	env2, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(env2.Header) != 1 || env2.Header[0].Text() != "abc-123" {
		t.Errorf("header round trip = %v", env2.Header)
	}
	if len(env2.Body) != 1 {
		t.Fatalf("body entries = %d", len(env2.Body))
	}
	got := env2.Body[0]
	if !got.Is("urn:echo", "Echo") {
		t.Errorf("body entry = {%s}%s", got.Namespace(), got.Name.Local)
	}
	if got.Child("urn:echo", "msg").Text() != "hello" {
		t.Error("msg text lost")
	}
}

func TestEnvelopeNoHeader(t *testing.T) {
	env := New()
	env.Body = append(env.Body, xmldom.NewElement(xmltext.Name{Local: "Op"}))
	var b strings.Builder
	if err := env.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "Header") {
		t.Error("empty Header element emitted")
	}
	env2, err := Decode(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if env2.Header != nil {
		t.Errorf("header = %v, want nil", env2.Header)
	}
}

func TestDecodeRejectsNonEnvelope(t *testing.T) {
	cases := []string{
		`<NotAnEnvelope/>`,
		`<e:Envelope xmlns:e="urn:wrong"><e:Body/></e:Envelope>`,
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"></e:Envelope>`, // no body
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body/><e:Body/></e:Envelope>`,
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body/><e:Header/></e:Envelope>`,
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Bogus/><e:Body/></e:Envelope>`,
		`not xml at all`,
	}
	for _, src := range cases {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", src)
		}
	}
}

func TestFaultRoundTrip(t *testing.T) {
	f := ClientFault("bad parameter %q", "x")
	f.Actor = "urn:test-actor"
	detail := xmldom.NewElement(xmltext.Name{Local: "info"})
	detail.SetText("42")
	wrap := xmldom.NewElement(xmltext.Name{Local: "detail"})
	wrap.AddChild(detail)
	f.Detail = wrap

	env, err := Decode(bytes.NewReader(faultDocument(t, f, V11)))
	if err != nil {
		t.Fatal(err)
	}
	got := env.Fault()
	if got == nil {
		t.Fatal("fault not recognized")
	}
	if got.Code != FaultClient {
		t.Errorf("code = %q", got.Code)
	}
	if got.String != `bad parameter "x"` {
		t.Errorf("string = %q", got.String)
	}
	if got.Actor != "urn:test-actor" {
		t.Errorf("actor = %q", got.Actor)
	}
	if got.Detail == nil || got.Detail.Child("", "info").Text() != "42" {
		t.Errorf("detail = %v", got.Detail)
	}
	if !strings.Contains(got.Error(), "bad parameter") {
		t.Errorf("Error() = %q", got.Error())
	}
}

func TestFaultOnNonFaultBody(t *testing.T) {
	env := New()
	env.Body = append(env.Body, xmldom.NewElement(xmltext.Name{Local: "Op"}))
	if env.Fault() != nil {
		t.Error("non-fault body reported as fault")
	}
}

func TestDefaultFaultCode(t *testing.T) {
	doc := faultDocument(t, &Fault{String: "boom"}, V11)
	if want := "<faultcode>" + PrefixEnvelope + ":" + FaultServer + "</faultcode>"; !bytes.Contains(doc, []byte(want)) {
		t.Errorf("default code is not %s: %s", want, doc)
	}
}

func TestAsFault(t *testing.T) {
	if AsFault(nil) != nil {
		t.Error("AsFault(nil) != nil")
	}
	f := ClientFault("x")
	if AsFault(f) != f {
		t.Error("AsFault did not pass fault through")
	}
	g := AsFault(errBoom{})
	if g.Code != FaultServer || g.String != "boom" {
		t.Errorf("AsFault(errBoom) = %+v", g)
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestMustUnderstandHeaders(t *testing.T) {
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">
	  <e:Header>
	    <a xmlns="urn:a" e:mustUnderstand="1"/>
	    <b xmlns="urn:b"/>
	    <c xmlns="urn:c" e:mustUnderstand="0"/>
	  </e:Header>
	  <e:Body><Op xmlns="urn:x"/></e:Body>
	</e:Envelope>`
	env, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	mu := env.MustUnderstandHeaders()
	if len(mu) != 1 || mu[0].Name.Local != "a" {
		t.Errorf("mustUnderstand headers = %v", mu)
	}
}

func TestFigureStyleEnvelopeShape(t *testing.T) {
	// The root carries the declarations the paper's Figure 4 shows, in that
	// order — each but the envelope's own only when the content uses the prefix.
	const (
		envDecl = ` xmlns:s="http://schemas.xmlsoap.org/soap/envelope/"`
		encDecl = ` xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/"`
		xsiDecl = ` xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"`
		xsdDecl = ` xmlns:xsd="http://www.w3.org/2001/XMLSchema"`
	)
	plain := xmldom.NewElement(xmltext.Name{Local: "Op"})
	typed := xmldom.NewElement(xmltext.Name{Local: "Op"})
	typed.AddElement(xmltext.Name{Local: "n"}).SetAttr(xmltext.Name{Prefix: PrefixXSI, Local: "type"}, "xsd:int")
	array := xmldom.NewElement(xmltext.Name{Local: "Op"})
	array.AddElement(xmltext.Name{Local: "list"}).SetAttr(xmltext.Name{Prefix: PrefixXSI, Local: "type"}, "SOAP-ENC:Array")
	scoped := array.Clone()
	scoped.ChildElements()[0].DeclareNamespace(PrefixEncoding, NSEncoding)
	full := array.Clone()
	full.ChildElements()[0].SetAttr(xmltext.Name{Prefix: PrefixEncoding, Local: "arrayType"}, "xsd:anyType[0]")
	for _, tc := range []struct {
		name string
		body *xmldom.Element
		want string
	}{
		{"strings", plain, envDecl + ">"},
		{"typed value", typed, envDecl + xsiDecl + xsdDecl + ">"},
		{"bare array", array, envDecl + encDecl + xsiDecl + ">"},
		{"array declaring the prefix itself", scoped, envDecl + xsiDecl + ">"},
		{"array as soapenc writes it", full, envDecl + encDecl + xsiDecl + xsdDecl + ">"},
	} {
		env := New()
		env.Body = append(env.Body, tc.body)
		enc := NewStreamEncoder()
		doc, err := enc.EncodeEnvelope(env)
		if err != nil || !strings.HasPrefix(string(doc), "<s:Envelope"+tc.want) {
			t.Errorf("%s: streamed envelope (%v) does not open with %s:\n%s", tc.name, err, tc.want, doc)
		}
		enc.Release()
	}
}
