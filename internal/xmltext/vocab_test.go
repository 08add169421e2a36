package xmltext_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// TestTagTableCoversTheEnvelope: every element name the envelope and fault
// writers emit, in either version — Envelope, Header, Body, the fault and
// each of its children — is one of the emitter's precomputed tags, so a tag
// of the frame costs one append. Names under the application's prefix (the
// header block, the detail's content) are the caller's, and are skipped.
func TestTagTableCoversTheEnvelope(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		header := xmldom.NewElement(xmltext.Name{Prefix: "app", Local: "Token"})
		header.DeclareNamespace("app", "urn:app")
		detail := xmldom.NewElement(xmltext.Name{Local: "detail"})
		why := detail.AddElement(xmltext.Name{Prefix: "app", Local: "why"})
		why.DeclareNamespace("app", "urn:app")
		f := &soap.Fault{Code: soap.FaultClient, String: "bad", Actor: "urn:actor", Detail: detail}

		enc := soap.NewStreamEncoder()
		enc.Begin(v, []*xmldom.Element{header})
		f.AppendElementFor(enc.Emitter(), v)
		doc, err := enc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		tk := xmltext.NewTokenizer(bytes.NewReader(doc))
		seen := 0
		for {
			tok, err := tk.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%v: %v: %s", v, err, doc)
			}
			if tok.Kind != xmltext.KindStartElement || tok.Name.Prefix == "app" {
				continue
			}
			seen++
			if !xmltext.InTagTable(tok.Name) {
				t.Errorf("%v: the writers emit <%s>, which is not a precomputed tag", v, tok.Name)
			}
		}
		enc.Release()
		if seen < 7 {
			t.Errorf("%v: only %d names of the envelope vocabulary in %s", v, seen, doc)
		}
	}
}
