package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// writtenDocument streams an envelope in version v whose body write writes —
// with the writers this package sends with.
func writtenDocument(t *testing.T, v soap.Version, write func(em *xmltext.Emitter) error) []byte {
	t.Helper()
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(v, nil)
	if err := write(enc.Emitter()); err != nil {
		t.Fatal(err)
	}
	doc, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(doc)
}

// faultDocument is the whole-message fault document a server answers with.
func faultDocument(f *soap.Fault, v soap.Version) []byte {
	resp := GatewayFaultResponse(f, v)
	defer resp.Release()
	return bytes.Clone(resp.Body)
}

// writtenEntry streams one body entry through write and reads it back as a
// tree, for the tests that take a document apart or put one together by hand.
func writtenEntry(t *testing.T, write func(em *xmltext.Emitter) error) *xmldom.Element {
	t.Helper()
	env, err := soap.Decode(bytes.NewReader(writtenDocument(t, soap.V11, write)))
	if err != nil {
		t.Fatal(err)
	}
	return env.Body[0]
}

// mustRequestElement is a single call's request entry.
func mustRequestElement(t *testing.T, ns, op string, params ...soapenc.Field) *xmldom.Element {
	t.Helper()
	return writtenEntry(t, func(em *xmltext.Emitter) error {
		return appendRequestEntry(em, &batchEntry{ns: ns, op: op, params: params}, &batchEntry{})
	})
}

// mustResponseElement is a single call's response entry.
func mustResponseElement(t *testing.T, ns, op string, results ...soapenc.Field) *xmldom.Element {
	t.Helper()
	return writtenEntry(t, func(em *xmltext.Emitter) error {
		return appendResponseEntry(em, &rpcResult{op: op, results: results}, ns, "", -1)
	})
}

// mustPackedRequest is the Parallel_Method a Batch of entries sends.
func mustPackedRequest(t *testing.T, entries ...batchEntry) *xmldom.Element {
	t.Helper()
	return writtenEntry(t, (&Batch{entries: entries}).writeBody)
}

// reparse round-trips an element through serialization inside an envelope,
// as the wire does.
func reparse(t *testing.T, body *xmldom.Element) *xmldom.Element {
	t.Helper()
	parsed, err := soap.Decode(bytes.NewReader(encodedDocument(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	return parsed.Body[0]
}

// encodedDocument is the document a tree-built body entry goes out in.
func encodedDocument(t *testing.T, body *xmldom.Element) []byte {
	t.Helper()
	env := soap.New()
	env.Body = append(env.Body, body)
	var b bytes.Buffer
	if err := env.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestDecodeRequestElementDefaults(t *testing.T) {
	el := reparse(t, mustRequestElement(t, "urn:s", "op", soapenc.F("x", "1")))
	req, fault := decodeRequestElement(el, "FromURL", 7)
	if fault != nil {
		t.Fatal(fault)
	}
	if req.service != "FromURL" || req.op != "op" || req.id != 7 {
		t.Errorf("req = %+v", req)
	}
	if len(req.params) != 1 || req.params[0].Name != "x" {
		t.Errorf("params = %v", req.params)
	}
}

func TestDecodeRequestElementNoService(t *testing.T) {
	el := reparse(t, mustRequestElement(t, "urn:s", "op"))
	_, fault := decodeRequestElement(el, "", 0)
	if fault == nil || fault.Code != soap.FaultClient {
		t.Errorf("fault = %v", fault)
	}
}

// packedWithID builds a one-entry batch whose entry carries the given
// explicit spi:id (the client itself never writes one).
func packedWithID(t *testing.T, id string) *xmldom.Element {
	t.Helper()
	pm := mustPackedRequest(t, batchEntry{service: "S", ns: "urn:s", op: "op"})
	pm.ChildElements()[0].SetAttr(attrID, id)
	return pm
}

func TestDecodeRequestElementBadID(t *testing.T) {
	wire := reparse(t, packedWithID(t, "not-a-number")).ChildElements()[0]
	_, fault := decodeRequestElement(wire, "", 0)
	if fault == nil || !strings.Contains(fault.String, "bad spi:id") {
		t.Errorf("fault = %v", fault)
	}
}

func TestDecodeRequestNegativeID(t *testing.T) {
	wire := reparse(t, packedWithID(t, "-3")).ChildElements()[0]
	if _, fault := decodeRequestElement(wire, "", 0); fault == nil {
		t.Error("negative id accepted")
	}
}

func TestSpiAttributesRequireNamespace(t *testing.T) {
	// An element with spi:service whose "spi" prefix resolves to the wrong
	// namespace is rejected, preventing attribute spoofing.
	doc := `<m:op xmlns:m="urn:s" xmlns:spi="urn:evil" spi:service="Victim"/>`
	el, err := xmldom.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, fault := decodeRequestElement(el, "", 0)
	if fault == nil || !strings.Contains(fault.String, "wrong namespace") {
		t.Errorf("fault = %v", fault)
	}
}

// readPackedReply reads a packed response document as a client exchange of n
// calls reads it, and returns what it said to each call it answered, by id.
// The error is the one the exchange would return or, failing that, the first
// answered call's, by id, whose values do not decode.
func readPackedReply(body []byte, n int) (map[int]*replySlot, error) {
	slots := make([]replySlot, n)
	r, err := readReply(body, reply{slots: slots})
	if err != nil {
		return nil, err
	}
	defer r.release()
	if err := r.packedErr(); err != nil {
		return nil, err
	}
	out := make(map[int]*replySlot, n)
	for id := range slots {
		if s := slots[id]; s.answered {
			if s.err != nil {
				return nil, s.err
			}
			s.fault = detachFault(s.fault)
			out[id] = &s
		}
	}
	return out, nil
}

func TestPackedResponseOrderAndIDs(t *testing.T) {
	results := []*rpcResult{
		{id: 2, service: "S", op: "op", results: []soapenc.Field{soapenc.F("v", "two")}},
		{id: 0, service: "S", op: "op", results: []soapenc.Field{soapenc.F("v", "zero")}},
		{id: 1, service: "S", op: "op", fault: soap.ClientFault("broken")},
	}
	// With and without the namespace hoisted onto Parallel_Response.
	for _, def := range []string{"", testNS("S")} {
		doc := buildServerResponse(t, soap.V11, results, nil, def)
		env, err := soap.Decode(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		wire := env.Body[0]
		if !isPackedResponse(wire) {
			t.Fatal("not recognized as packed response")
		}
		decoded, err := readPackedReply(doc, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(decoded) != 3 {
			t.Fatalf("decoded %d entries", len(decoded))
		}
		if !soapenc.Equal(decoded[2].results[0].Value, "two") {
			t.Errorf("id 2 = %v", decoded[2].results)
		}
		if !soapenc.Equal(decoded[0].results[0].Value, "zero") {
			t.Errorf("id 0 = %v", decoded[0].results)
		}
		if decoded[1].fault == nil || decoded[1].fault.String != "broken" {
			t.Errorf("id 1 fault = %v", decoded[1].fault)
		}
	}
}

func TestPackedReplyDuplicateID(t *testing.T) {
	pr := xmldom.NewElement(xmltext.Name{Prefix: PrefixPack, Local: ElemParallelResponse})
	pr.DeclareNamespace(PrefixPack, NSPack)
	for i := 0; i < 2; i++ {
		c := pr.AddElement(xmltext.Name{Local: "opResponse"})
		c.SetAttr(attrID, "0")
	}
	if _, err := readPackedReply(encodedDocument(t, pr), 2); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestPackedReplyPositionalFallback(t *testing.T) {
	// Entries without spi:id fall back to document order.
	pr := xmldom.NewElement(xmltext.Name{Prefix: PrefixPack, Local: ElemParallelResponse})
	pr.DeclareNamespace(PrefixPack, NSPack)
	a := pr.AddElement(xmltext.Name{Local: "opResponse"})
	a.AddElement(xmltext.Name{Local: "v"}).SetText("first")
	b := pr.AddElement(xmltext.Name{Local: "opResponse"})
	b.AddElement(xmltext.Name{Local: "v"}).SetText("second")
	decoded, err := readPackedReply(encodedDocument(t, pr), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !soapenc.Equal(decoded[0].results[0].Value, "first") || !soapenc.Equal(decoded[1].results[0].Value, "second") {
		t.Errorf("decoded = %v", decoded)
	}
}

// TestPackedReplyFaultComplete reads a per-item fault back whole: code,
// string, actor and detail.
func TestPackedReplyFaultComplete(t *testing.T) {
	f := &soap.Fault{Code: soap.FaultClient, String: "why", Actor: "urn:who"}
	det := xmldom.NewElement(xmltext.Name{Local: "detail"})
	det.AddElement(xmltext.Name{Local: "code"}).SetText("9")
	f.Detail = det
	decoded, err := readPackedReply(writtenDocument(t, soap.V11, func(em *xmltext.Emitter) error {
		em.Start(namePackResponse)
		em.Attr(nameXmlnsSpi, NSPack)
		f.AppendElementFor(em, soap.V11, xmltext.Attr{Name: attrID, Value: "0"})
		em.End()
		return nil
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := decoded[0].fault
	if got.Code != soap.FaultClient || got.String != "why" || got.Actor != "urn:who" {
		t.Errorf("fault = %+v", got)
	}
	if got.Detail == nil || got.Detail.Child("", "code").Text() != "9" {
		t.Errorf("detail = %v", got.Detail)
	}
}

func TestIsPackedPredicates(t *testing.T) {
	plain := mustRequestElement(t, "urn:s", "op")
	if isPackedRequest(plain) || isPackedResponse(plain) {
		t.Error("plain request misclassified")
	}
	// Same local name, wrong namespace.
	fake, err := xmldom.ParseString(`<Parallel_Method xmlns="urn:not-spi"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if isPackedRequest(fake) {
		t.Error("wrong-namespace Parallel_Method accepted")
	}
}

func TestEncodeResponseElementName(t *testing.T) {
	el := mustResponseElement(t, "urn:s", "GetWeather")
	if el.Name.Local != "GetWeatherResponse" {
		t.Errorf("response element = %s", el.Name)
	}
}

// TestPackedReplyEntryForNoCall refuses a reply with an entry that answers no
// call of the exchange, by its spi:id or, carrying none, by its position: the
// same whole-reply error as a duplicate, never an answer dropped unread.
func TestPackedReplyEntryForNoCall(t *testing.T) {
	for _, tc := range []struct {
		entries []string
		want    string
	}{
		{[]string{echoEntry("0"), echoEntry("9")}, `core: bad spi:id "9" in packed response`},
		{[]string{echoEntry("0"), echoEntry("-1")}, `core: bad spi:id "-1" in packed response`},
		{[]string{`<m:echoResponse/>`, `<m:echoResponse/>`, `<m:echoResponse/>`},
			"core: packed response entry 2 has no spi:id and no call at its position"},
	} {
		_, err := readPackedReply(replyBody(soap.V11, packedReply(tc.entries...)), 2)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v: %v, want %s", tc.entries, err, tc.want)
		}
	}
}
