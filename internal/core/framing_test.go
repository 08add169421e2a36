package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmldom"
)

// The request-framing acceptance suite. A packed request may spell what its
// entries share — namespace, target service — on Parallel_Method (what the
// client sends since the batch-default framing) or on every entry (the long
// form: what it sent before, and what coalesced batches and third-party
// clients still send), and may mix the two. What runs depends on what the
// batch means, never on how it was spelled; the one thing a spelling decides
// is the response's own framing, which mirrors the xmlns:m Parallel_Method
// declared. So the forms of one batch fall into groups by that declaration,
// and every form of a group must produce the same committed bytes under
// testdata/parity/, in every feature cell.

// framingForm is one spelling of a packed request.
type framingForm struct {
	name   string
	target string
	pm     string // the Parallel_Method element
	// declares names the xmlns:m Parallel_Method itself declares, as the
	// golden's suffix: "" for none — the long form, answered with the bytes
	// every server before the mirrored default answered with.
	declares string
}

const (
	framingPM   = `<spi:Parallel_Method xmlns:spi="` + NSPack + `"`
	framingEnd  = `</spi:Parallel_Method>`
	echoNS      = ` xmlns:m="urn:spi:Echo"`
	weatherNS   = ` xmlns:m="urn:spi:WeatherService"`
	toEcho      = ` spi:service="Echo"`
	toWeather   = ` spi:service="WeatherService"`
	echoArgs    = `><message>first</message></m:echo>`
	weatherArgs = `><CityName>Beijing</CityName></m:GetWeather>`
)

// framingForms spell one batch — Echo.echo(first), then
// WeatherService.GetWeather(Beijing), the batch of testdata/packed1x.xml —
// every accepted way. Those that declare no xmlns:m on Parallel_Method
// answer with parity/framing_1x.xml, the others with
// parity/framing-echo_1x.xml or parity/framing-weather_1x.xml.
var framingForms = []framingForm{
	{"long", "/services/", framingPM + `>` +
		`<m:echo` + echoNS + ` spi:id="0"` + toEcho + echoArgs +
		`<m:GetWeather` + weatherNS + ` spi:id="1"` + toWeather + weatherArgs + framingEnd, ""},
	// The client's form: the first entry's namespace and service are the
	// batch default, the second entry overrides both.
	{"default", "/services/", framingPM + echoNS + toEcho + `>` +
		`<m:echo` + echoArgs +
		`<m:GetWeather` + weatherNS + toWeather + weatherArgs + framingEnd, "-echo"},
	// The default need not be the first entry's.
	{"default-is-second", "/services/", framingPM + weatherNS + toWeather + `>` +
		`<m:echo` + echoNS + toEcho + echoArgs +
		`<m:GetWeather` + weatherArgs + framingEnd, "-weather"},
	// Ids restated where they equal the slot change nothing.
	{"ids-restated", "/services/", framingPM + echoNS + toEcho + `>` +
		`<m:echo spi:id="0"` + echoArgs +
		`<m:GetWeather` + weatherNS + ` spi:id="1"` + toWeather + weatherArgs + framingEnd, "-echo"},
	// A hybrid: the default declared, and restated by the entry it fits.
	{"default-restated", "/services/", framingPM + echoNS + toEcho + `>` +
		`<m:echo` + echoNS + toEcho + echoArgs +
		`<m:GetWeather` + weatherNS + toWeather + weatherArgs + framingEnd, "-echo"},
	// Precedence: entry spi:service > Parallel_Method spi:service > URL.
	{"default-over-url", "/services/WeatherService", framingPM + echoNS + toEcho + `>` +
		`<m:echo` + echoArgs +
		`<m:GetWeather` + weatherNS + toWeather + weatherArgs + framingEnd, "-echo"},
	{"url-default", "/services/Echo", framingPM + echoNS + `>` +
		`<m:echo` + echoArgs +
		`<m:GetWeather` + weatherNS + toWeather + weatherArgs + framingEnd, "-echo"},
	// Service hoisted, namespaces left on the entries.
	{"service-only", "/services/", framingPM + toEcho + `>` +
		`<m:echo` + echoNS + echoArgs +
		`<m:GetWeather` + weatherNS + toWeather + weatherArgs + framingEnd, ""},
}

// framingIDForms give the first entry an explicit id that is not its slot:
// the response echoes it (parity/framing-ids{,-echo}_1x.xml).
var framingIDForms = []framingForm{
	{"long", "/services/", framingPM + `>` +
		`<m:echo` + echoNS + ` spi:id="7"` + toEcho + echoArgs +
		`<m:GetWeather` + weatherNS + ` spi:id="1"` + toWeather + weatherArgs + framingEnd, ""},
	{"default", "/services/", framingPM + echoNS + toEcho + `>` +
		`<m:echo spi:id="7"` + echoArgs +
		`<m:GetWeather` + weatherNS + toWeather + weatherArgs + framingEnd, "-echo"},
}

// framingNoServiceForms leave the first entry with no service from any of
// the three places: it alone faults (parity/framing-no-service{,-echo}_1x.xml).
var framingNoServiceForms = []framingForm{
	{"long", "/services/", framingPM + `>` +
		`<m:echo` + echoNS + ` spi:id="0"` + echoArgs +
		`<m:GetWeather` + weatherNS + ` spi:id="1"` + toWeather + weatherArgs + framingEnd, ""},
	{"default", "/services/", framingPM + echoNS + `>` +
		`<m:echo` + echoArgs +
		`<m:GetWeather` + weatherNS + toWeather + weatherArgs + framingEnd, "-echo"},
}

func TestPackedFramingAcceptance(t *testing.T) {
	batches := []struct {
		golden string
		forms  []framingForm
	}{
		{"framing", framingForms},
		{"framing-ids", framingIDForms},
		{"framing-no-service", framingNoServiceForms},
	}
	for _, f := range []parityFeatures{
		{name: "bare"},
		{name: "wsse", wsse: true},
		{name: "coupled", coupled: true},
		{name: "wsse-coupled", wsse: true, coupled: true},
	} {
		f := f
		t.Run(f.name, func(t *testing.T) {
			sys := newSystem(t, parityConfig(f))
			for _, v := range []soap.Version{soap.V11, soap.V12} {
				for _, b := range batches {
					for _, form := range b.forms {
						pm, err := xmldom.ParseString(form.pm)
						if err != nil {
							t.Fatalf("%s/%s: %v", b.golden, form.name, err)
						}
						doc := parityDoc(t, v, f.wsse, pm)
						code, body := postDoc(t, sys, form.target, v, doc)
						if code != 200 {
							t.Errorf("%v/%s/%s: status %d", v, b.golden, form.name, code)
						}
						f.pin(t, b.golden+form.declares+"_"+corpusSuffix(v), body)
					}
				}
				if f.wsse {
					continue
				}
				// The request goldens themselves, byte for byte: what the
				// client sent before the batch-default framing, and what it
				// sends now.
				for _, req := range []struct{ name, golden string }{
					{"packed11-long.xml", "framing"}, {"packed11.xml", "framing-echo"},
				} {
					name := req.name
					if v == soap.V12 {
						name = strings.Replace(name, "11", "12", 1)
					}
					doc, err := os.ReadFile(filepath.Join("testdata", name))
					if err != nil {
						t.Fatal(err)
					}
					code, body := postDoc(t, sys, "/services/", v, doc)
					if code != 200 {
						t.Errorf("%s: status %d", name, code)
					}
					f.pin(t, req.golden+"_"+corpusSuffix(v), body)
				}
			}
		})
	}
}

// TestBatchDefaultRoutesIdenticalEntries: with the namespace and service
// hoisted, two batches can carry byte-identical entries and still mean
// different calls. Each entry runs on its own batch's default service, and an
// interceptor sees it in its own batch's default namespace.
func TestBatchDefaultRoutesIdenticalEntries(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		s.EntryInterceptors = []EntryInterceptor{func(entry *xmldom.Element, info *EntryInfo) (*xmldom.Element, *soap.Fault) {
			mu.Lock()
			seen = append(seen, entry.Namespace())
			mu.Unlock()
			return nil, nil
		}}
		mirror := s.Container.MustAddService("Mirror", "urn:spi:Mirror", "answers echo in its own namespace")
		mirror.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			return params, nil
		}, "identity")
	})
	entry := `<m:echo><data>same bytes</data></m:echo>`
	post := func(ns, service string) string {
		doc := testEnv11 + `<SOAP-ENV:Body>` + framingPM + ` xmlns:m="` + ns + `" spi:service="` + service + `">` +
			entry + framingEnd + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`
		code, body := postDoc(t, sys, "/services/", soap.V11, []byte(doc))
		if code != 200 {
			t.Fatalf("%s/%s: status %d: %s", ns, service, code, body)
		}
		return string(body)
	}

	if got := post("urn:spi:Echo", "Echo"); !strings.Contains(got, ` xmlns:m="urn:spi:Echo"><m:echoResponse spi:id="0">`) {
		t.Errorf("Echo batch answered by the wrong service: %s", got)
	}
	if got := post("urn:spi:Echo", "Mirror"); !strings.Contains(got, `<m:echoResponse xmlns:m="urn:spi:Mirror"`) {
		t.Errorf("batch defaulting to Mirror answered by: %s", got)
	}
	post("urn:example:other", "Echo")
	mu.Lock()
	defer mu.Unlock()
	want := []string{"urn:spi:Echo", "urn:spi:Echo", "urn:example:other"}
	if strings.Join(seen, " ") != strings.Join(want, " ") {
		t.Errorf("entry namespaces seen %v, want %v", seen, want)
	}
}

// TestPackAnnotationsRequireBinding: spi:id, spi:service and the batch
// default on Parallel_Method are the pack interface's only when the spi
// prefix resolves to its namespace where they stand. Under another binding
// none of them is honoured: the entry gets a per-item Client fault, under its
// positional id.
func TestPackAnnotationsRequireBinding(t *testing.T) {
	sys := newSystem(t, nil)
	post := func(target, pm string) string {
		doc := testEnv11 + `<SOAP-ENV:Body>` + pm + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`
		code, body := postDoc(t, sys, target, soap.V11, []byte(doc))
		if code != 200 {
			t.Fatalf("status %d: %s", code, body)
		}
		return string(body)
	}
	for _, tc := range []struct{ name, target, pm, want, never string }{
		{"entry spi:id rebound", "/services/Echo",
			framingPM + `><m:echo` + echoNS + ` xmlns:spi="urn:other" spi:id="7"/>` + framingEnd,
			`<s:Fault spi:id="0"><faultcode>s:Client</faultcode><faultstring>request "echo": spi:id attribute in wrong namespace`,
			`spi:id="7"`},
		{"entry spi:service rebound", "/services/Echo",
			framingPM + `><m:echo` + echoNS + ` xmlns:spi="urn:other" spi:id="7" spi:service="Echo"/>` + framingEnd,
			`<s:Fault spi:id="0"><faultcode>s:Client</faultcode><faultstring>request "echo": spi:service attribute in wrong namespace`,
			`spi:id="7"`},
		// Parallel_Method under another prefix, spi bound elsewhere: its
		// spi:service is not a batch default, and takes the URL's with it.
		{"batch default rebound", "/services/Echo",
			`<p:Parallel_Method xmlns:p="` + NSPack + `" xmlns:spi="urn:other" spi:service="WeatherService"><m:echo` + echoNS + `/></p:Parallel_Method>`,
			`<faultstring>request "echo" names no service`, `echoResponse`},
		// An entry naming its own service never needed the default.
		{"batch default rebound, entry bound", "/services/",
			`<p:Parallel_Method xmlns:p="` + NSPack + `" xmlns:spi="urn:other" spi:service="WeatherService">` +
				`<m:echo` + echoNS + ` xmlns:spi="` + NSPack + `" spi:service="Echo"/></p:Parallel_Method>`,
			`<m:echoResponse xmlns:m="urn:spi:Echo" spi:id="0"/>`, `Fault`},
	} {
		got := post(tc.target, tc.pm)
		if !strings.Contains(got, tc.want) || strings.Contains(got, tc.never) {
			t.Errorf("%s:\n got: %s\nwant substring: %s\n  and never: %s", tc.name, got, tc.want, tc.never)
		}
	}

	// Plan steps go through the same resolve.
	plan := `<spi:Execution_Plan xmlns:spi="` + NSPack + `"><m:echo` + echoNS + ` xmlns:spi="urn:other" spi:id="7"/></spi:Execution_Plan>`
	doc := testEnv11 + `<SOAP-ENV:Body>` + plan + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`
	code, body := postDoc(t, sys, "/services/Echo", soap.V11, []byte(doc))
	if code != 500 || !strings.Contains(string(body), `step "echo": spi:id attribute in wrong namespace`) {
		t.Errorf("plan step with a rebound spi:id: %d %s", code, body)
	}
}

// duplicateIDDoc is entry 0 claiming id 1 by attribute and entry 1 claiming
// it by position — one hand-written spi:id away from what a Batch sends.
func duplicateIDDoc(v soap.Version) []byte {
	return []byte(`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `"><SOAP-ENV:Body>` +
		framingPM + echoNS + toEcho + `>` +
		`<m:echo spi:id="1"><data>claims one</data></m:echo>` +
		`<m:echo><data>sits at one</data></m:echo>` +
		framingEnd + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`)
}

// TestFaultCorpusDuplicateID: two entries with one effective id would be
// answered with two spi:id="1" children, which the client's own reply reader
// refuses wholesale. The server decides it once, as a
// whole-message Client fault, before any response byte.
func TestFaultCorpusDuplicateID(t *testing.T) {
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		code, body := postCorpus(t, sys, "/services/", v, duplicateIDDoc(v))
		if code != 500 {
			t.Errorf("%s: status = %d, want 500", v, code)
		}
		corpusGolden(t, "duplicate_id_"+corpusSuffix(v), body)

		// The scatter parse decides the same thing, to the byte.
		sr, fault := ParseScatterRequest(duplicateIDDoc(v), "")
		if fault == nil {
			t.Fatalf("%s: ParseScatterRequest accepted colliding ids", v)
		}
		resp := GatewayFaultResponse(fault, sr.Version)
		if resp.StatusCode != 500 || string(resp.Body) != string(body) {
			t.Errorf("%s: gateway would answer %d %s\ndirect server said %s", v, resp.StatusCode, resp.Body, body)
		}
		resp.Release()
	}
}

func TestDuplicateIDFault(t *testing.T) {
	for _, tc := range []struct {
		ids  []int
		want string
	}{
		{[]int{0, 1, 2, 3}, ""},
		{[]int{3, 2, 1, 0}, ""},
		{[]int{9, 1, 5}, ""},
		{[]int{1, 1}, "duplicate spi:id 1"},
		{[]int{0, 1, 2, 0}, "duplicate spi:id 0"},
		{[]int{40, 7, 40}, "duplicate spi:id 40"},
		{nil, ""},
	} {
		fault := duplicateIDFault(len(tc.ids), func(slot int) int { return tc.ids[slot] })
		switch {
		case tc.want == "" && fault != nil:
			t.Errorf("%v: unexpected fault %v", tc.ids, fault)
		case tc.want != "" && (fault == nil || fault.String != tc.want || fault.Code != soap.FaultClient):
			t.Errorf("%v: fault %v, want Client %q", tc.ids, fault, tc.want)
		}
	}
}

// TestScatterFramingParity: whatever the spelling, the gateway's hop is
// invisible. Each form is cut into one sub-batch per entry (as a two-backend
// round-robin shards it), each sub-batch is answered by a backend, and the
// gathered response must be the direct server's answer to that same form —
// which the acceptance suite above pins to its group's golden. A sub-batch
// inherits the client's default instead of spelling everything out.
func TestScatterFramingParity(t *testing.T) {
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, forms := range [][]framingForm{framingForms, framingIDForms} {
			for _, form := range forms {
				pm, err := xmldom.ParseString(form.pm)
				if err != nil {
					t.Fatal(err)
				}
				doc := parityDoc(t, v, false, pm)
				urlService := strings.TrimPrefix(form.target, "/services/")
				sr, fault := ParseScatterRequest(doc, urlService)
				if fault != nil {
					t.Fatalf("%v/%s: %v", v, form.name, fault)
				}
				col := sr.NewCollector()
				for _, e := range sr.Entries {
					sub, err := BuildSubBatch(sr.Version, sr.Headers, []*ScatterEntry{e})
					if err != nil {
						t.Fatal(err)
					}
					if len(sub) > len(doc) {
						t.Errorf("%v/%s: a %d-byte sub-batch was cut from a %d-byte request: %s", v, form.name, len(sub), len(doc), sub)
					}
					code, body := postDoc(t, sys, "/services", v, sub)
					if code != 200 {
						t.Fatalf("%v/%s: backend answered %d: %s", v, form.name, code, body)
					}
					segs, err := splitInto(col, sr, body)
					if err != nil || len(segs) != 1 {
						t.Fatalf("%v/%s: split: %v (%d segments)", v, form.name, err, len(segs))
					}
					col.Deliver(e.Slot, segs[0])
				}
				resp, _, err := col.Assemble(context.Background(), v, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, direct := postDoc(t, sys, form.target, v, doc)
				if !bytes.Equal(byID(resp.Body), byID(direct)) {
					t.Errorf("%v/%s: gathered response is not the direct server's:\n got: %s\nwant: %s", v, form.name, resp.Body, direct)
				}
				resp.Release()
			}
		}

		// The client's own form, entry 1: the default rides on the sub-batch's
		// Parallel_Method, the entry keeps what it said for itself, and it
		// states its id because it is not slot 0 of this document.
		pm, _ := xmldom.ParseString(framingForms[1].pm)
		sr, _ := ParseScatterRequest(parityDoc(t, v, false, pm), "")
		sub, err := BuildSubBatch(sr.Version, sr.Headers, sr.Entries[1:])
		if err != nil {
			t.Fatal(err)
		}
		want := `<s:Body>` + framingPM + echoNS + toEcho + `>` +
			`<m:GetWeather` + weatherNS + ` spi:id="1"` + toWeather + weatherArgs + framingEnd
		if !strings.Contains(string(sub), want) {
			t.Errorf("%v: sub-batch does not inherit the client's default:\n got: %s\nwant: …%s…", v, sub, want)
		}
	}
}
