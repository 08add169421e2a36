package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// An envelope prefix is a spelling, not a meaning: XML Namespaces binds it to
// a URI, and every reader here matches the URI. testdata/wire/pre25/ keeps
// documents as every writer spelled them before PR 25 — the envelope
// namespace bound to SOAP-ENV — each beside its twin, the golden that pins
// today's spelling of the same document; every reader must take the two to
// the same values.

// pre25Fixtures names each fixture and its twin's path under testdata/, %s
// standing for the version's 11 or 12.
var pre25Fixtures = []struct{ name, twin string }{
	{"single", "wire/single_%s.xml"},
	{"echo16", "wire/echo16_%s.xml"},
	{"subbatch", "wire/subbatch_%s.xml"},
	{"signed-batch", "wire/signed-batch_%s.xml"},
	{"item-faults", "parity/packed-item-faults_%s.xml"},
	{"fault", "fault%s.xml"},
}

// pre25Docs reads one fixture and its twin in version v.
func pre25Docs(t *testing.T, name, twin string, v soap.Version) (old, now []byte) {
	t.Helper()
	old, err := os.ReadFile(filepath.Join("testdata", "wire", "pre25", name+"_"+corpusSuffix(v)))
	if err != nil {
		t.Fatal(err)
	}
	now, err = os.ReadFile(filepath.Join("testdata", fmt.Sprintf(twin, strings.TrimSuffix(corpusSuffix(v), ".xml"))))
	if err != nil {
		t.Fatal(err)
	}
	return old, now
}

// outcome spells what a reader took one result to mean.
func outcome(results []soapenc.Field, f *soap.Fault) string {
	if f != nil {
		return fmt.Sprintf("fault %s %q %q", f.Code, f.String, f.Actor)
	}
	return fmt.Sprint(results)
}

// responseOutcome is what the client's single-call reader takes a response to mean.
func responseOutcome(t *testing.T, what string, body []byte) string {
	t.Helper()
	env, err := soap.Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v: %s", what, err, body)
	}
	if f := env.Fault(); f != nil {
		return outcome(nil, f)
	}
	if len(env.Body) != 1 {
		t.Fatalf("%s: %d body entries: %s", what, len(env.Body), body)
	}
	results, err := soapenc.DecodeParams(env.Body[0])
	if err != nil {
		t.Fatalf("%s: %v: %s", what, err, body)
	}
	return outcome(results, nil)
}

// packedOutcomes is what the client's packed reader takes each entry of a
// Parallel_Response to mean, in spi:id order.
func packedOutcomes(t *testing.T, what string, body []byte) []string {
	t.Helper()
	env, err := soap.Decode(bytes.NewReader(body))
	if err != nil || len(env.Body) != 1 {
		t.Fatalf("%s: %v: %s", what, err, body)
	}
	results, err := readPackedReply(body, len(env.Body[0].ChildElements()))
	if err != nil {
		t.Fatalf("%s: %v: %s", what, err, body)
	}
	ids := make([]int, 0, len(results))
	for id := range results {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%d: %s", id, outcome(results[id].results, results[id].fault))
	}
	return out
}

// gatewayOutcomes is what the gateway makes of a backend's packed response:
// the response it gathers from the reply's segments, as the client reads it,
// and each segment spliced into the response to a coalesced single call.
func gatewayOutcomes(t *testing.T, what string, v soap.Version, body []byte) []string {
	t.Helper()
	reply, err := (&ScatterRequest{}).SplitResponse(body, nil)
	if err != nil {
		t.Fatalf("%s: SplitResponse: %v", what, err)
	}
	ids := make([]int, len(reply.Segments))
	for i := range ids {
		ids[i] = i
	}
	col := NewGatherCollector(ids)
	col.AddHeader(0, reply.RawHeader)
	col.Gather(0, nil, &reply)
	for slot, seg := range reply.Segments {
		col.Deliver(slot, seg)
	}
	resp, _, err := col.Assemble(context.Background(), v, nil)
	if err != nil {
		t.Fatalf("%s: Assemble: %v", what, err)
	}
	out := packedOutcomes(t, what+"/gather", resp.Body)
	resp.Release()
	for i, seg := range reply.Segments {
		// As the coalescer answers: a per-item fault the reader parsed is
		// rendered whole, any other entry spliced.
		var resp *httpx.Response
		isFault := i < len(reply.Faults) && reply.Faults[i] != nil
		if isFault {
			resp = GatewayFaultResponse(reply.Faults[i], v)
		} else {
			resp = SpliceSingleResponse(v, seg, nil, reply.Decls)
		}
		got := responseOutcome(t, what+"/splice", resp.Body)
		out = append(out, fmt.Sprintf("splice %d (fault %v): %s", i, isFault, got))
		resp.Release()
	}
	return out
}

// respell re-spells a document that bound the envelope namespace to from as a
// writer that bound it to to would have: the tags of the envelope vocabulary,
// the Envelope's declaration and the fault codes, which are QNames.
func respell(doc []byte, from, to string) []byte {
	return []byte(strings.NewReplacer("<"+from+":", "<"+to+":", "</"+from+":", "</"+to+":",
		" xmlns:"+from+"=", " xmlns:"+to+"=", ">"+from+":", ">"+to+":").Replace(string(doc)))
}

// reframed is what a gateway gathers from a reply that bound the envelope
// namespace to p and spelled no entry with it: the same document under the
// gateway's own prefix, binding p beside it.
func reframed(reply []byte, p string) []byte {
	out := respell(reply, p, soap.PrefixEnvelope)
	open := len(`<` + soap.PrefixEnvelope + `:Envelope xmlns:` + soap.PrefixEnvelope + `="`)
	ns := out[open : open+bytes.IndexByte(out[open:], '"')]
	at := open + len(ns) + 1
	return append(append(append([]byte(nil), out[:at]...), ` xmlns:`+p+`="`+string(ns)+`"`...), out[at:]...)
}

// TestPre25TwinsAreRespellings: PR 25 changed a spelling and nothing else.
// Each twin is its pre-25 fixture with the envelope namespace respelled s, and
// a SOAP 1.2 fault no longer re-declares it as env but leans on the Envelope's
// binding. The same map holds for every golden PR 25 regenerated.
func TestPre25TwinsAreRespellings(t *testing.T) {
	envDecl := regexp.MustCompile(` xmlns:env="[^"]*"`)
	names := strings.NewReplacer("xmlns:SOAP-ENV=", "xmlns:s=", "SOAP-ENV:", "s:", "env:", "s:")
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, fx := range pre25Fixtures {
			old, now := pre25Docs(t, fx.name, fx.twin, v)
			if got := names.Replace(envDecl.ReplaceAllString(string(old), "")); got != string(now) {
				t.Errorf("%s_%s respelled is not its twin:\n got %s\nwant %s", fx.name, corpusSuffix(v), got, now)
			}
		}
	}
}

// TestSplitGatherResponsePrefix: the gather takes whatever prefix a backend's
// Envelope binds to the envelope namespace, in either version, and reads
// Header and Body under that prefix and no other.
func TestSplitGatherResponsePrefix(t *testing.T) {
	const (
		open  = `<spi:Parallel_Response xmlns:spi="` + NSPack + `">`
		entry = `<m:echoResponse xmlns:m="urn:spi:Echo" spi:id="0"><v>1</v></m:echoResponse>`
		end   = `</spi:Parallel_Response>`
	)
	reply := func(p, decls string) string {
		return `<` + p + `:Envelope` + decls + `><` + p + `:Body>` + open + entry + end + `</` + p + `:Body></` + p + `:Envelope>`
	}
	for _, tc := range []struct {
		name, doc, prefix, header, err string
	}{
		{name: "one letter, SOAP 1.1", doc: reply("s", ` xmlns:s="`+soap.NSEnvelope+`"`), prefix: "s"},
		{name: "Axis's, SOAP 1.2", doc: reply("soapenv", ` xmlns:soapenv="`+soap.NSEnvelope12+`"`), prefix: "soapenv"},
		{name: "declared last", doc: reply("e", ` xmlns:xsd="`+soap.NSXSD+`" xmlns:e="`+soap.NSEnvelope+`"`), prefix: "e"},
		{name: "a header", prefix: "soapenv", header: `<h:x xmlns:h="urn:h"/>`,
			doc: `<soapenv:Envelope xmlns:soapenv="` + soap.NSEnvelope + `"><soapenv:Header><h:x xmlns:h="urn:h"/></soapenv:Header>` +
				`<soapenv:Body>` + open + entry + end + `</soapenv:Body></soapenv:Envelope>`},
		{name: "prefix bound nowhere", doc: reply("soapenv", ` xmlns:xsd="`+soap.NSXSD+`"`), err: "neither SOAP 1.1 nor SOAP 1.2"},
		{name: "prefix bound to another namespace", doc: reply("soapenv", ` xmlns:soapenv="urn:not-soap"`), err: "neither SOAP 1.1 nor SOAP 1.2"},
		{name: "a longer prefix bound", doc: reply("s", ` xmlns:soap="`+soap.NSEnvelope+`"`), err: "neither SOAP 1.1 nor SOAP 1.2"},
		{name: "default namespace", doc: `<Envelope xmlns="` + soap.NSEnvelope + `"><Body>` + open + entry + end + `</Body></Envelope>`,
			err: `binds xmlns to "` + soap.NSEnvelope + `"`},
		{name: "Body under another prefix of the namespace", prefix: "s",
			doc: `<s:Envelope xmlns:s="` + soap.NSEnvelope + `" xmlns:e="` + soap.NSEnvelope + `"><e:Body>` + open + entry + end + `</e:Body></s:Envelope>`},
		{name: "closed under another prefix",
			doc: `<s:Envelope xmlns:s="` + soap.NSEnvelope + `"><s:Body>` + open + entry + end + `</s:Body></soapenv:Envelope>`,
			err: "end tag </soapenv:Envelope> does not match <s:Envelope>"},
		{name: "header closed under another prefix",
			doc: `<s:Envelope xmlns:s="` + soap.NSEnvelope + `"><s:Header><h/></e:Header><s:Body>` + open + entry + end + `</s:Body></s:Envelope>`,
			err: "end tag </e:Header> does not match <s:Header>"},
	} {
		r, err := (&ScatterRequest{}).SplitResponse([]byte(tc.doc), nil)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case len(r.Segments) != 1 || string(r.Segments[0]) != entry || string(r.RawHeader) != tc.header || r.Prefix != tc.prefix:
			t.Errorf("%s: segments %q, header %q, prefix %q; want %q, %q, %q", tc.name, r.Segments, r.RawHeader, r.Prefix, entry, tc.header, tc.prefix)
		}
	}
	// Whatever the prefix, the read costs the same: the copies it hands back.
	if raceEnabled {
		return
	}
	own := []byte(reply(soap.PrefixEnvelope, ` xmlns:`+soap.PrefixEnvelope+`="`+soap.NSEnvelope+`"`))
	axis := []byte(reply("soapenv", ` xmlns:soapenv="`+soap.NSEnvelope+`"`))
	split := func(doc []byte) func() {
		return func() {
			if _, err := (*ScatterRequest)(nil).SplitResponse(doc, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := testing.AllocsPerRun(100, split(own)), testing.AllocsPerRun(100, split(axis)); a != b {
		t.Errorf("splitting a reply under %s costs %v allocations, under soapenv %v", soap.PrefixEnvelope, a, b)
	}
}

// TestGatherBindsBackendPrefix: the gathered Envelope binds each prefix a
// contributing reply spelled the envelope namespace with, where it is not the
// gateway's own, so a per-item fault spliced from that reply still resolves;
// when every reply spells it as the gateway does the bytes are a direct
// server's, with nothing added.
func TestGatherBindsBackendPrefix(t *testing.T) {
	results := []*rpcResult{
		{id: 0, service: "Echo", op: "echo", results: []soapenc.Field{soapenc.F("data", "ok")}},
		{id: 1, service: "Echo", op: "fail", fault: &soap.Fault{Code: soap.FaultServer, String: "deliberate failure"}},
	}
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		direct := buildServerResponse(t, v, results, nil, "urn:spi:Echo")
		own, err := (&ScatterRequest{DefaultNS: "urn:spi:Echo"}).SplitResponse(direct, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{soap.PrefixEnvelope, "soapenv", "SOAP-ENV"} {
			what := fmt.Sprintf("%v/%s", v, p)
			other, err := (&ScatterRequest{DefaultNS: "urn:spi:Echo"}).SplitResponse(respell(direct, soap.PrefixEnvelope, p), nil)
			if err != nil || other.Prefix != p {
				t.Fatalf("%s: SplitResponse: prefix %q, %v", what, other.Prefix, err)
			}
			// The echo from a backend that spells the namespace as the gateway
			// does, the fault from one that spells it p, twice over.
			col := collectorFor(results, "urn:spi:Echo")
			col.Gather(0, nil, &own)
			col.Gather(0, nil, &other)
			col.Gather(0, nil, &other)
			col.Deliver(0, own.Segments[0])
			col.Deliver(1, other.Segments[1])
			resp, faults, err := col.Assemble(context.Background(), v, nil)
			if err != nil || faults != 0 {
				t.Fatalf("%s: Assemble: %d faults, %v", what, faults, err)
			}
			alias := []byte(` xmlns:` + p + `="` + v.Namespace() + `"`)
			tag := resp.Body[:bytes.IndexByte(resp.Body, '>')]
			switch {
			case p == soap.PrefixEnvelope && !bytes.Equal(resp.Body, direct):
				t.Errorf("%s: gathered\n%s\nnot the direct server's\n%s", what, resp.Body, direct)
			case p != soap.PrefixEnvelope && bytes.Count(tag, alias) != 1:
				t.Errorf("%s: the gathered Envelope does not bind %s once: %s", what, p, tag)
			}
			if got, want := packedOutcomes(t, what, resp.Body), packedOutcomes(t, what, direct); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: gathered %q, the direct server answered %q", what, got, want)
			}
			resp.Release()
		}
	}
}

// TestReaderTablePre25Fixtures: every reader takes a pre-25 document to what it
// takes its twin to. Requests go to the server, whose answers must carry the
// same values, and through the gateway's scatter and coalescing parsers; the
// packed response with per-item faults goes through the client's reader, the
// gateway's gather and its single-call splice; the whole-message fault through
// the client's reader and the gateway's.
func TestReaderTablePre25Fixtures(t *testing.T) {
	sys := newSystem(t, respFramingConfig(parityFeatures{name: "bare"}))
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, fx := range pre25Fixtures {
			what := fx.name + "_" + corpusSuffix(v)
			old, now := pre25Docs(t, fx.name, fx.twin, v)
			if !bytes.HasPrefix(old, []byte(`<SOAP-ENV:Envelope xmlns:SOAP-ENV="`+v.Namespace()+`"`)) {
				t.Errorf("%s is not a pre-25 document: %.120s", what, old)
			}
			switch fx.name {
			case "item-faults":
				if got, want := packedOutcomes(t, what, old), packedOutcomes(t, what, now); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: the client reads %q, today's spelling %q", what, got, want)
				}
				if got, want := gatewayOutcomes(t, what, v, old), gatewayOutcomes(t, what, v, now); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: the gateway makes %q, of today's spelling %q", what, got, want)
				}
			case "fault":
				if got, want := responseOutcome(t, what, old), responseOutcome(t, what, now); got != want {
					t.Errorf("%s: the client reads %s, today's spelling %s", what, got, want)
				}
				if got, want := outcome(nil, backendFault(old)), outcome(nil, backendFault(now)); got != want {
					t.Errorf("%s: the gateway reads %s, today's spelling %s", what, got, want)
				}
			default:
				target := fixtureTarget(what)
				sameAnswers(t, what, answeredValues(t, sys, what, target, v, old), answeredValues(t, sys, what, target, v, now))
				if target != "/services" {
					// The entry keeps what its Envelope declared, the prefix of
					// the envelope namespace included, so compare what it means.
					_, got := coalescible(old, "Echo", nil)
					_, want := coalescible(now, "Echo", nil)
					if got == nil || want == nil {
						t.Fatalf("%s: the coalescing reader: %v, today's spelling %v", what, got, want)
					}
					gp, gerr := soapenc.DecodeParams(sentEntry(t, v, got))
					wp, werr := soapenc.DecodeParams(sentEntry(t, v, want))
					if got.Op != want.Op || gerr != nil || werr != nil ||
						!soapenc.Equal(&soapenc.Struct{Fields: gp}, &soapenc.Struct{Fields: wp}) {
						t.Errorf("%s: the coalescing reader: %s %v (%v), today's spelling %s %v (%v)", what, got.Op, gp, gerr, want.Op, wp, werr)
					}
					continue
				}
				got, gf := ParseScatterRequest(old, "")
				want, wf := ParseScatterRequest(now, "")
				if gf != nil || wf != nil || len(got.Entries) != len(want.Entries) {
					t.Fatalf("%s: ParseScatterRequest: %v, today's spelling %v", what, gf, wf)
				}
				for i, e := range got.Entries {
					w := want.Entries[i]
					if e.ID != w.ID || e.Service != w.Service || e.Op != w.Op || e.name != w.name ||
						!slices.Equal(e.attrs, w.attrs) || !bytes.Equal(e.inner, w.inner) {
						t.Errorf("%s: scatter entry %d = %d %s.%s %v %v %q, today's spelling %d %s.%s %v %v %q", what, i,
							e.ID, e.Service, e.Op, e.name, e.attrs, e.inner, w.ID, w.Service, w.Op, w.name, w.attrs, w.inner)
					}
				}
			}
		}
	}
}

// backendFault is the whole-message fault the gateway's reader finds in a
// backend's reply, nil for none.
func backendFault(body []byte) *soap.Fault {
	_, err := (*ScatterRequest)(nil).SplitResponse(body, nil)
	f, _ := err.(*soap.Fault)
	return f
}
