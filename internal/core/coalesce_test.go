package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

func singleDoc(v soap.Version, entry string) []byte {
	env := "http://schemas.xmlsoap.org/soap/envelope/"
	if v == soap.V12 {
		env = soap.NSEnvelope12
	}
	return []byte(`<?xml version="1.0" encoding="UTF-8"?>` +
		`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + env + `" xmlns:spi="` + NSPack + `">` +
		`<SOAP-ENV:Body>` + entry + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`)
}

// coalescible reads body as a coalescing gateway does: the request's
// version and, when the call may join a batch, its entry; nil when it must be
// proxied whole.
func coalescible(body []byte, defaultService string, reg *registry.Container) (soap.Version, *ScatterEntry) {
	sr, _ := ParseCoalescible(body, defaultService, reg)
	if sr == nil || sr.Single == nil {
		return soap.V11, nil
	}
	return sr.Version, sr.Single
}

func TestParseCoalescible(t *testing.T) {
	reg := registry.NewContainer()
	reg.MustAddService("Echo", "urn:spi:Echo", "echo")

	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc := singleDoc(v, `<m:echo xmlns:m="urn:spi:Echo"><data>hi</data></m:echo>`)
		got, e := coalescible(doc, "Echo", nil)
		if e == nil {
			t.Fatalf("%v: coalescible call rejected", v)
		}
		if got != v || e.Service != "Echo" || e.Op != "echo" {
			t.Fatalf("%v: parsed %q.%q version %v", v, e.Service, e.Op, got)
		}
	}

	// Bare pack endpoint: the service resolves by namespace via the registry.
	doc := singleDoc(soap.V11, `<m:echo xmlns:m="urn:spi:Echo"><data>hi</data></m:echo>`)
	if _, e := coalescible(doc, "", reg); e == nil || e.Service != "Echo" {
		t.Fatalf("namespace resolution failed: %+v", e)
	}

	rejected := []struct {
		name string
		body []byte
	}{
		{"malformed", []byte(`<not-xml`)},
		{"header blocks", []byte(`<?xml version="1.0" encoding="UTF-8"?>` +
			`<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">` +
			`<SOAP-ENV:Header><h xmlns="urn:h">x</h></SOAP-ENV:Header>` +
			`<SOAP-ENV:Body><m:echo xmlns:m="urn:spi:Echo"/></SOAP-ENV:Body></SOAP-ENV:Envelope>`)},
		{"packed body", singleDoc(soap.V11,
			`<spi:Parallel_Method><m:echo xmlns:m="urn:spi:Echo"/></spi:Parallel_Method>`)},
		{"no service", singleDoc(soap.V11, `<m:echo xmlns:m="urn:unknown"/>`)},
		{"bad spi id", singleDoc(soap.V11, `<m:echo xmlns:m="urn:spi:Echo" spi:id="x"/>`)},
	}
	for _, tc := range rejected {
		if _, got := coalescible(tc.body, "", reg); got != nil {
			t.Errorf("%s: expected nil, got %+v", tc.name, got)
		}
	}
}

func TestSealIDMatchesScatterAnnotation(t *testing.T) {
	doc := singleDoc(soap.V11, `<m:echo xmlns:m="urn:spi:Echo" spi:service="Echo"><data>v</data></m:echo>`)
	_, entry := coalescible(doc, "", nil)
	if entry == nil {
		t.Fatal("parse failed")
	}
	entry.SealID(7)
	if entry.ID != 7 || entry.Slot != 7 {
		t.Fatalf("SealID set ID=%d Slot=%d", entry.ID, entry.Slot)
	}

	// The sealed entry must build a sub-batch that round-trips through
	// ParseScatterRequest with the same id, service and operation — i.e. a
	// backend sees exactly what an explicitly packed client would send.
	// (Attribute order inside the request element may differ from a
	// scatter-parsed entry; backends decode attributes by name.)
	doc2, err := BuildSubBatch(soap.V11, nil, []*ScatterEntry{entry})
	if err != nil {
		t.Fatal(err)
	}
	sr, fault := ParseScatterRequest(doc2, "")
	if fault != nil || !sr.Packed || len(sr.Entries) != 1 {
		t.Fatalf("scatter re-parse: fault=%v", fault)
	}
	e := sr.Entries[0]
	if e.Fault != nil || e.ID != 7 || e.Service != "Echo" || e.Op != "echo" {
		t.Fatalf("re-parsed entry: %+v (fault %v)", e, e.Fault)
	}
}

// TestStripEntryID: a segment spliced into a single call's response keeps
// everything but the spi:id on its own start tag, however that tag is spelled.
func TestStripEntryID(t *testing.T) {
	cases := []struct{ in, want string }{
		{`<m:echoResponse xmlns:m="urn:x" spi:id="3"><data>v</data></m:echoResponse>`,
			`<m:echoResponse xmlns:m="urn:x"><data>v</data></m:echoResponse>`},
		{`<m:r spi:id='3' xmlns:m='urn:x' a='1 > 0'/>`, `<m:r xmlns:m="urn:x" a="1 &gt; 0"/>`},
		{`<m:r xmlns:m="urn:x" spi:id="3"></m:r>`, `<m:r xmlns:m="urn:x"></m:r>`},
		// No spi:id: unchanged.
		{`<m:r xmlns:m="urn:x"><a>1</a></m:r>`, `<m:r xmlns:m="urn:x"><a>1</a></m:r>`},
		// spi:id beyond the root tag is not touched.
		{`<m:r xmlns:m="urn:x"><a spi:id="9">1</a></m:r>`, `<m:r xmlns:m="urn:x"><a spi:id="9">1</a></m:r>`},
	}
	for _, tc := range cases {
		resp := SpliceSingleResponse(soap.V11, []byte(tc.in), nil, 0)
		if want := `<s:Body>` + tc.want + `</s:Body>`; resp.StatusCode != 200 || !bytes.Contains(resp.Body, []byte(want)) {
			t.Errorf("%s spliced to HTTP %d\n%s\nwant it to hold %s", tc.in, resp.StatusCode, resp.Body, want)
		}
		resp.Release()
	}
}

// TestIsEntryFault: the reply reader takes an entry for a per-item fault, and
// parses it, under whatever prefix its writer bound to the envelope
// namespace, and an entry named Fault in any other namespace for an ordinary
// one.
func TestIsEntryFault(t *testing.T) {
	shard := []*ScatterEntry{{ID: 0}}
	read := func(p, decl, entry string) GatherReply {
		t.Helper()
		doc := `<` + p + `:Envelope xmlns:` + p + `="` + soap.NSEnvelope + `"` + decl + `><` + p + `:Body>` +
			`<spi:Parallel_Response xmlns:spi="` + NSPack + `">` + entry + `</spi:Parallel_Response></` + p + `:Body></` + p + `:Envelope>`
		r, err := (&ScatterRequest{}).SplitResponse([]byte(doc), shard)
		if err != nil || r.Segments[0] == nil {
			t.Fatalf("%s: %v", doc, err)
		}
		return r
	}
	for _, p := range []string{"SOAP-ENV", "s", "soapenv"} {
		r := read(p, "", `<`+p+`:Fault><faultcode>`+p+`:Client</faultcode><faultstring>bad &amp; worse</faultstring></`+p+`:Fault>`)
		if len(r.Faults) != 1 || r.Faults[0].Code != soap.FaultClient || r.Faults[0].String != "bad & worse" {
			t.Errorf("%s: fault entry read as %+v", p, r.Faults)
		}
	}
	for _, entry := range []string{
		`<s:Faulty/>`,
		`<m:echoResponse xmlns:m="urn:x"></m:echoResponse>`,
		`<m:FaultResponse xmlns:m="urn:x"></m:FaultResponse>`,
		`<Fault/>`,
		`<f:Fault xmlns:f="urn:not-soap"><faultstring>no</faultstring></f:Fault>`,
	} {
		if r := read("s", "", entry); r.Faults != nil {
			t.Errorf("%s misclassified as a fault", entry)
		}
	}
}

// TestSpliceSingleResponseParity pins the splice against the server's own
// encoders: an op segment re-frames to the exact bytes the server
// answers a single call with, and a fault entry, as the reply reader parses
// it, re-renders to the exact whole-message fault bytes, in both envelope
// versions.
func TestSpliceSingleResponseParity(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			// Success: what a backend's packed response carries for slot 3...
			respEl := mustResponseElement(t, "urn:spi:Echo", "echo", soapenc.F("data", "v"))
			segEnc := soap.NewStreamEncoder()
			em := segEnc.Emitter()
			respEl.AppendTo(em)
			if err := em.Finish(); err != nil {
				t.Fatal(err)
			}
			plain := append([]byte(nil), em.Bytes()...)
			segEnc.Release()
			seg := bytes.Replace(plain, []byte(` xmlns:m="urn:spi:Echo"`),
				[]byte(` xmlns:m="urn:spi:Echo" spi:id="3"`), 1)

			// ...must splice to what the direct server would answer.
			wantEnc := soap.NewStreamEncoder()
			wantEnc.Begin(v, nil)
			wantEnc.Emitter().Raw(plain)
			want, err := wantEnc.Finish()
			if err != nil {
				t.Fatal(err)
			}
			resp := SpliceSingleResponse(v, seg, nil, 0)
			if resp.StatusCode != 200 {
				t.Fatalf("splice: status=%d", resp.StatusCode)
			}
			if !bytes.Equal(resp.Body, want) {
				t.Errorf("success splice diverged\n got %s\nwant %s", resp.Body, want)
			}
			if ct := resp.Header.Get("Content-Type"); ct != v.ContentType() {
				t.Errorf("content type %q", ct)
			}
			resp.Release()
			wantEnc.Release()

			// Fault: the per-item SOAP 1.1 fault entry for slot 5 must
			// splice to the direct server's whole-message HTTP 500 fault.
			f := &soap.Fault{Code: FaultCodeTimeout, String: "deadline expired before Echo.echo finished"}
			fEnc := soap.NewStreamEncoder()
			fem := fEnc.Emitter()
			f.AppendElementFor(fem, soap.V11, xmltext.Attr{Name: attrID, Value: "5"})
			if err := fem.Finish(); err != nil {
				t.Fatal(err)
			}
			fseg := append([]byte(nil), fem.Bytes()...)
			fEnc.Release()

			wantFault := GatewayFaultResponse(f, v)
			doc := `<s:Envelope xmlns:s="` + soap.NSEnvelope + `"><s:Body><spi:Parallel_Response xmlns:spi="` + NSPack + `">` +
				string(fseg) + `</spi:Parallel_Response></s:Body></s:Envelope>`
			r, err := (&ScatterRequest{}).SplitResponse([]byte(doc), []*ScatterEntry{{ID: 5}})
			if err != nil || len(r.Faults) != 1 {
				t.Fatalf("fault entry: %+v, %v", r.Faults, err)
			}
			resp = GatewayFaultResponse(r.Faults[0], v)
			if resp.StatusCode != 500 {
				t.Fatalf("fault splice: status=%d", resp.StatusCode)
			}
			if !bytes.Equal(resp.Body, wantFault.Body) {
				t.Errorf("fault splice diverged\n got %s\nwant %s", resp.Body, wantFault.Body)
			}
			resp.Release()
			wantFault.Release()
		})
	}
}
