package soapenc

import (
	"strings"
	"testing"
	"time"

	"repro/internal/xmldom"
)

// Edge cases exercising the decoder's leniency and strictness boundaries,
// beyond the round-trip property tests.

func TestDecodeLenientTypes(t *testing.T) {
	// Aliased/legacy xsd type names the era's toolkits emitted.
	cases := []struct {
		typ, text string
		want      Value
	}{
		{"anyURI", "http://x", "http://x"},
		{"token", "tok", "tok"},
		{"normalizedString", "n s", "n s"},
		{"short", "12", int64(12)},
		{"byte", "-7", int64(-7)},
		{"integer", "999999999999", int64(999999999999)},
		{"unsignedInt", "4000000000", int64(4000000000)},
		{"unsignedShort", "65535", int64(65535)},
		{"float", "1.5", 1.5},
		{"decimal", "2.25", 2.25},
		{"boolean", "1", true},
		{"boolean", "0", false},
	}
	for _, c := range cases {
		doc := `<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"` +
			` xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:` + c.typ + `">` + c.text + `</p>`
		el, err := xmldom.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(el)
		if err != nil {
			t.Errorf("xsd:%s %q: %v", c.typ, c.text, err)
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("xsd:%s %q = %#v, want %#v", c.typ, c.text, got, c.want)
		}
	}
}

func TestDecodeUnknownTypeAnnotationFallsBack(t *testing.T) {
	// An xsi:type in a foreign namespace decodes structurally, like the
	// lenient toolkits did.
	doc := `<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"` +
		` xmlns:v="urn:vendor" xsi:type="v:CustomThing"><a>1</a></p>`
	el, err := xmldom.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(el)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := got.(*Struct)
	if !ok || s.GetString("a") != "1" {
		t.Errorf("decoded = %#v", got)
	}

	// Same annotation with text content decodes as string.
	doc2 := `<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"` +
		` xmlns:v="urn:vendor" xsi:type="v:CustomThing">plain</p>`
	el2, _ := xmldom.ParseString(doc2)
	got2, err := Decode(el2)
	if err != nil || got2 != "plain" {
		t.Errorf("decoded = %#v, %v", got2, err)
	}
}

func TestDecodeUnresolvablePrefixFails(t *testing.T) {
	// xsi:type with an undeclared prefix names no type at all. Guessing
	// structurally would turn a SOAP-ENC:Array whose declaration was lost in
	// framing into a struct of items, so the decoder refuses instead.
	for _, doc := range []string{
		`<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="ghost:Thing">text</p>`,
		`<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema"` +
			` xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType[1]"><item xsi:type="xsd:int">1</item></p>`,
		// The attribute-name half: a type or nil whose own prefix is bound
		// nowhere — what an on-demand writer that forgot to declare xsi would
		// send — used to be skipped, and 5 came back as the string "5".
		`<p xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:int">5</p>`,
		`<p xsi:nil="true"/>`,
		`<p xsi:nil="false">kept</p>`,
		`<p><n ghost:type="xsd:int">5</n></p>`,
	} {
		el, err := xmldom.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Decode(el); err == nil || !strings.Contains(err.Error(), "not bound to a namespace") {
			t.Errorf("decoded = %#v, %v; want an unbound-prefix error", got, err)
		}
	}
}

func TestDecodeXsiNilVariants(t *testing.T) {
	for _, variant := range []string{`xsi:nil="true"`, `xsi:nil="1"`} {
		doc := `<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" ` + variant + `>ignored</p>`
		el, _ := xmldom.ParseString(doc)
		got, err := Decode(el)
		if err != nil || got != nil {
			t.Errorf("%s decoded = %#v, %v", variant, got, err)
		}
	}
	// nil="false" does not nullify, and an unprefixed nil or type is in no
	// namespace: somebody else's attribute.
	for _, doc := range []string{
		`<p xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:nil="false">kept</p>`,
		`<p nil="true" type="xsd:int">kept</p>`,
	} {
		el, _ := xmldom.ParseString(doc)
		got, err := Decode(el)
		if err != nil || got != "kept" {
			t.Errorf("%s decoded = %#v, %v", doc, got, err)
		}
	}
}

func TestEncodeNilStructPointer(t *testing.T) {
	doc, err := encodedDocument(F("s", (*Struct)(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, `<s xsi:nil="true"/>`) {
		t.Errorf("nil struct encoded as %s", doc)
	}
}

func TestDateTimeTimezonePreserved(t *testing.T) {
	// Encoding normalizes to UTC; the instant must survive exactly.
	loc := time.FixedZone("UTC+8", 8*3600)
	ts := time.Date(2006, 9, 26, 15, 4, 5, 0, loc)
	got, err := Decode(encodeInEnvelope(t, ts))
	if err != nil {
		t.Fatal(err)
	}
	gt, ok := got.(time.Time)
	if !ok || !gt.Equal(ts) {
		t.Errorf("time round trip = %v, want instant %v", got, ts)
	}
}
