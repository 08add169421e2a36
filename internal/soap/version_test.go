package soap

import (
	"strings"
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

func TestVersionProperties(t *testing.T) {
	if V11.Namespace() != NSEnvelope || V12.Namespace() != NSEnvelope12 {
		t.Error("namespaces wrong")
	}
	if !strings.HasPrefix(V11.ContentType(), "text/xml") {
		t.Errorf("v11 content type = %q", V11.ContentType())
	}
	if !strings.HasPrefix(V12.ContentType(), "application/soap+xml") {
		t.Errorf("v12 content type = %q", V12.ContentType())
	}
	if V11.String() == V12.String() {
		t.Error("version names identical")
	}
}

func TestV12EnvelopeRoundTrip(t *testing.T) {
	env := New()
	env.Version = V12
	op := xmldom.NewElement(xmltext.Name{Local: "Op"})
	op.DeclareNamespace("", "urn:x")
	op.AddElement(xmltext.Name{Local: "p"}).SetText("v")
	env.Body = append(env.Body, op)

	var b strings.Builder
	if err := env.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), NSEnvelope12) {
		t.Fatalf("encoded envelope not 1.2:\n%s", b.String())
	}
	got, err := Decode(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != V12 {
		t.Errorf("decoded version = %v", got.Version)
	}
	if len(got.Body) != 1 || got.Body[0].Child("urn:x", "p").Text() != "v" {
		t.Errorf("body round trip = %v", got.Body)
	}
}

func TestV12FaultRoundTrip(t *testing.T) {
	f := ClientFault("bad thing")
	f.Actor = "urn:node"
	det := xmldom.NewElement(xmltext.Name{Local: "detail"})
	det.AddElement(xmltext.Name{Local: "why"}).SetText("because")
	f.Detail = det

	doc := string(faultDocument(t, f, V12))
	for _, want := range []string{"<s:Fault>", "s:Code", "s:Value", "s:Sender", "s:Reason", "s:Text", "s:Node"} {
		if !strings.Contains(doc, want) {
			t.Errorf("1.2 fault missing %s:\n%s", want, doc)
		}
	}
	// The fault leans on the Envelope's binding of s and binds nothing itself.
	if strings.Count(doc, "xmlns:") != 1 {
		t.Errorf("1.2 fault declares a namespace of its own:\n%s", doc)
	}

	got, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	pf := got.Fault()
	if pf == nil {
		t.Fatal("fault not recognized")
	}
	// Codes normalize back to 1.1 names.
	if pf.Code != FaultClient {
		t.Errorf("code = %q, want Client", pf.Code)
	}
	if pf.String != "bad thing" || pf.Actor != "urn:node" {
		t.Errorf("fault = %+v", pf)
	}
	if pf.Detail == nil || pf.Detail.Child("", "why").Text() != "because" {
		t.Errorf("detail = %v", pf.Detail)
	}
}

func TestV12ServerFaultCode(t *testing.T) {
	doc := faultDocument(t, ServerFault("boom"), V12)
	if !strings.Contains(string(doc), "s:Receiver") {
		t.Errorf("Server should map to Receiver:\n%s", doc)
	}
}

func TestFaultCodeMappingInverse(t *testing.T) {
	for _, code := range []string{FaultClient, FaultServer, FaultMustUnderstand, FaultVersionMismatch} {
		if got := faultCode11(faultCode12(code)); got != code {
			t.Errorf("mapping not inverse for %q: got %q", code, got)
		}
	}
}

func TestVersionMismatchError(t *testing.T) {
	_, err := Decode(strings.NewReader(`<e:Envelope xmlns:e="urn:soap:bogus"><e:Body/></e:Envelope>`))
	if err == nil {
		t.Fatal("bogus envelope version accepted")
	}
	vm, ok := err.(*VersionMismatchError)
	if !ok {
		t.Fatalf("err = %T, want *VersionMismatchError", err)
	}
	if vm.Namespace != "urn:soap:bogus" {
		t.Errorf("namespace = %q", vm.Namespace)
	}
}

func TestV12MustUnderstand(t *testing.T) {
	doc := `<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">
	  <env:Header><T xmlns="urn:t" env:mustUnderstand="true"/></env:Header>
	  <env:Body><Op xmlns="urn:x"/></env:Body>
	</env:Envelope>`
	env, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(env.MustUnderstandHeaders()) != 1 {
		t.Error("1.2 mustUnderstand header not detected")
	}
}
