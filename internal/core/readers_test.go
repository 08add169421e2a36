package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/wsse"
)

// One reader table, every reader. A peer may spell the envelope around the
// same body in several ways — with or without the XML declaration, behind a
// byte order mark, with SOAP-ENC declared on the Envelope, on the operation
// element or on the array that uses it, with its strings typed, untyped or
// some of each, with xsi and xsd declared or (around strings alone) not — and
// every reader in the stack must decode each spelling to the same values: the server's stream decoder
// (bare, through the differential cache's hit path, and under a WS-Security
// signature made over the body alone), the client's single and packed
// response decoders, and the gateway's ParseScatterRequest, ParseSingleCall,
// SplitResponse/GatherCollector and SpliceSingleResponse.

const (
	readerXMLDecl = `<?xml version="1.0" encoding="UTF-8"?>`
	readerEncDecl = ` xmlns:SOAP-ENC="` + soap.NSEncoding + `"`
)

// readerShape is one spelling: what precedes the Envelope start tag, which
// element declares SOAP-ENC, and how string leaves are written.
type readerShape struct {
	name    string
	prolog  string
	onEnv   bool
	onOp    bool
	onArray bool
	// untyped leaves xsi:type off every string, mixed off the array's string
	// item alone. bare is a body of untyped strings and nothing else, under
	// an Envelope that declares neither xsi nor xsd.
	untyped, mixed, bare bool
}

var readerShapes = []readerShape{
	// What every writer emitted before PR 16: declaration, four namespaces.
	{name: "pre-16 preamble", prolog: readerXMLDecl, onEnv: true},
	// And before PR 17: every string typed, xsi and xsd always declared.
	{name: "no declaration", onEnv: true},
	{name: "untyped strings, xsi and xsd declared", onEnv: true, untyped: true},
	{name: "typed and untyped strings mixed", onEnv: true, mixed: true},
	{name: "untyped strings, xsi and xsd not declared", bare: true},
	{name: "BOM, no declaration", prolog: "\xEF\xBB\xBF", onEnv: true},
	{name: "SOAP-ENC on the operation element", onOp: true},
	{name: "SOAP-ENC on the array element", onArray: true},
}

// readerUnbound uses SOAP-ENC:Array with the prefix bound nowhere: every
// reader answers with a Client fault or an error, none with a panic or with
// values decoded some other way.
var readerUnbound = readerShape{name: "SOAP-ENC bound nowhere"}

// readerWant is what every spelling carries but the bare one, which carries
// readerWantBare: strings that an untyped leaf must not turn into anything
// else.
var (
	readerWant = []soapenc.Field{
		soapenc.F("msg", "hi"),
		soapenc.F("list", soapenc.Array{int64(1), "two"}),
	}
	readerWantBare = []soapenc.Field{
		soapenc.F("msg", "hi"), soapenc.F("n", "123"), soapenc.F("flag", "true"),
		soapenc.F("pad", "  "), soapenc.F("none", ""),
	}
)

func (sh readerShape) want() []soapenc.Field {
	if sh.bare {
		return readerWantBare
	}
	return readerWant
}

func (sh readerShape) envelope(v soap.Version, header, body string) []byte {
	s := sh.prolog + `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `"`
	if sh.onEnv {
		s += readerEncDecl
	}
	if !sh.bare {
		s += ` xmlns:xsi="` + soap.NSXSI + `" xmlns:xsd="` + soap.NSXSD + `"`
	}
	s += `>`
	if header != "" {
		s += `<SOAP-ENV:Header>` + header + `</SOAP-ENV:Header>`
	}
	return []byte(s + `<SOAP-ENV:Body>` + body + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`)
}

// entry spells one Echo request or response element carrying sh.want();
// attrs are the pack annotations, if any.
func (sh readerShape) entry(local, attrs string) string {
	if sh.bare {
		return `<m:` + local + ` xmlns:m="urn:spi:Echo"` + attrs + `><msg>hi</msg><n>123</n><flag>true</flag>` +
			`<pad>  </pad><none></none></m:` + local + `>`
	}
	msgType, itemType := ` xsi:type="xsd:string"`, ` xsi:type="xsd:string"`
	if sh.untyped {
		msgType = ""
	}
	if sh.untyped || sh.mixed {
		itemType = ""
	}
	op, arr := "", ""
	if sh.onOp {
		op = readerEncDecl
	}
	if sh.onArray {
		arr = readerEncDecl
	}
	return `<m:` + local + ` xmlns:m="urn:spi:Echo"` + op + attrs + `><msg` + msgType + `>hi</msg>` +
		`<list` + arr + ` xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType[2]">` +
		`<item xsi:type="xsd:int">1</item><item` + itemType + `>two</item></list></m:` + local + `>`
}

func (sh readerShape) packedRequest() string {
	return `<spi:Parallel_Method xmlns:spi="` + NSPack + `">` +
		sh.entry("echo", ` spi:id="0" spi:service="Echo"`) + sh.entry("echo", ` spi:id="1" spi:service="Echo"`) +
		`</spi:Parallel_Method>`
}

func (sh readerShape) packedResponse() string {
	return `<spi:Parallel_Response xmlns:spi="` + NSPack + `">` +
		sh.entry("echoResponse", ` spi:id="0"`) + sh.entry("echoResponse", ` spi:id="1"`) +
		`</spi:Parallel_Response>`
}

func (sh readerShape) check(t *testing.T, what string, got []soapenc.Field) {
	t.Helper()
	want := sh.want()
	if len(got) != len(want) {
		t.Errorf("%s: decoded %d values, want %d: %v", what, len(got), len(want), got)
		return
	}
	for i, w := range want {
		if got[i].Name != w.Name || !soapenc.Equal(got[i].Value, w.Value) {
			t.Errorf("%s: value %d = %s %#v, want %s %#v", what, i, got[i].Name, got[i].Value, w.Name, w.Value)
		}
	}
}

// checkSingle decodes a single-call response document.
func (sh readerShape) checkSingle(t *testing.T, what string, code int, body []byte) {
	t.Helper()
	env, err := soap.Decode(bytes.NewReader(body))
	if err != nil || code != 200 || len(env.Body) != 1 {
		t.Errorf("%s: HTTP %d, %v: %s", what, code, err, body)
		return
	}
	got, err := soapenc.DecodeParams(env.Body[0])
	if err != nil {
		t.Errorf("%s: %v: %s", what, err, body)
		return
	}
	sh.check(t, what, got)
}

// checkPacked decodes a packed response document of n entries.
func (sh readerShape) checkPacked(t *testing.T, what string, code int, body []byte, n int) {
	t.Helper()
	env, err := soap.Decode(bytes.NewReader(body))
	if err != nil || code != 200 || len(env.Body) != 1 {
		t.Errorf("%s: HTTP %d, %v: %s", what, code, err, body)
		return
	}
	results, err := decodePackedResponse(env.Body[0])
	if err != nil || len(results) != n {
		t.Errorf("%s: %d results, want %d, %v: %s", what, len(results), n, err, body)
		return
	}
	for id, r := range results {
		if r.fault != nil {
			t.Errorf("%s: entry %d faulted: %v", what, id, r.fault)
			continue
		}
		sh.check(t, what, r.results)
	}
}

// readerSign returns the serialized wsse header blocks for a body.
func readerSign(t *testing.T, body string) string {
	t.Helper()
	blocks, err := (&wsse.Signer{Username: "alice", Secret: paritySecret}).MakeHeaders([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, b := range blocks {
		sb.WriteString(b.String())
	}
	return sb.String()
}

func TestReaderTableServer(t *testing.T) {
	cells := []struct {
		name   string
		signed bool
		mutate func(*ServerConfig, *ClientConfig)
	}{
		{name: "stream decoder"},
		{name: "diffcache", mutate: func(s *ServerConfig, _ *ClientConfig) { s.DifferentialDeserialization = true }},
		{name: "wsse", signed: true, mutate: func(s *ServerConfig, _ *ClientConfig) {
			s.HeaderProcessors = []HeaderProcessor{&wsse.Verifier{Secrets: map[string][]byte{"alice": paritySecret}}}
		}},
	}
	for _, cell := range cells {
		sys := newSystem(t, cell.mutate)
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			for _, sh := range readerShapes {
				what := cell.name + "/" + v.String() + "/" + sh.name
				single, packed := sh.entry("echo", ""), sh.packedRequest()
				// Twice: the second pass is the differential cache's hit path.
				for pass := 0; pass < 2; pass++ {
					var hs, hp string
					if cell.signed {
						// A fresh nonce each time, over the body bytes alone:
						// the signature does not see the envelope's spelling.
						hs, hp = readerSign(t, single), readerSign(t, packed)
					}
					code, body := postDoc(t, sys, "/services/Echo", v, sh.envelope(v, hs, single))
					sh.checkSingle(t, what+"/single", code, body)
					code, body = postDoc(t, sys, "/services", v, sh.envelope(v, hp, packed))
					sh.checkPacked(t, what+"/packed", code, body, 2)
				}
			}
		}
		if st := sys.server.Stats(); cell.name == "diffcache" && st.DiffHits == 0 {
			t.Errorf("diffcache cell never took the hit path: %+v", st)
		}
	}
}

// cannedClient returns a client whose every POST is answered with the
// document docs holds for its target.
func cannedClient(t *testing.T, v soap.Version, docs map[string][]byte) *Client {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpx.Server{Handler: func(_ context.Context, req *httpx.Request) *httpx.Response {
		resp := httpx.NewResponse(200, docs[req.Target])
		resp.Header.Set("Content-Type", v.ContentType())
		return resp
	}}
	go srv.Serve(lis)
	cli, err := NewClient(ClientConfig{Dial: link.Dial, Timeout: 5 * time.Second, SOAP12: v == soap.V12})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		link.Close()
	})
	return cli
}

func TestReaderTableClient(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, sh := range readerShapes {
			what := v.String() + "/" + sh.name
			cli := cannedClient(t, v, map[string][]byte{
				"/services/Echo": sh.envelope(v, "", sh.entry("echoResponse", "")),
				"/services":      sh.envelope(v, "", sh.packedResponse()),
			})
			got, err := cli.Call("Echo", "echo")
			if err != nil {
				t.Errorf("%s: Call: %v", what, err)
			} else {
				sh.check(t, what+"/single", got)
			}
			b := cli.NewBatch()
			calls := []*Call{b.Add("Echo", "echo"), b.Add("Echo", "echo")}
			if err := b.Send(); err != nil {
				t.Errorf("%s: Send: %v", what, err)
				continue
			}
			for _, c := range calls {
				got, err := c.Wait()
				if err != nil {
					t.Errorf("%s: Wait: %v", what, err)
					continue
				}
				sh.check(t, what+"/packed", got)
			}
		}
	}
}

func TestReaderTableGateway(t *testing.T) {
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, sh := range readerShapes {
			what := v.String() + "/" + sh.name

			// Request side: the entries a gateway cuts out of either kind of
			// request still mean the same at the backend.
			sr, fault := ParseScatterRequest(sh.envelope(v, "", sh.packedRequest()), "")
			if fault != nil || len(sr.Entries) != 2 {
				t.Fatalf("%s: ParseScatterRequest: %v", what, fault)
			}
			sub, err := BuildSubBatch(sr.Version, sr.Headers, sr.Entries)
			if err != nil {
				t.Fatal(err)
			}
			code, body := postDoc(t, sys, "/services", v, sub)
			sh.checkPacked(t, what+"/scatter", code, body, 2)

			sc := ParseSingleCall(sh.envelope(v, "", sh.entry("echo", "")), "Echo", nil)
			if sc == nil || sc.Version != v {
				t.Fatalf("%s: ParseSingleCall rejected the call", what)
			}
			sc.Entry.SealID(0)
			if sub, err = BuildSubBatch(v, nil, []*ScatterEntry{sc.Entry}); err != nil {
				t.Fatal(err)
			}
			code, body = postDoc(t, sys, "/services", v, sub)
			sh.checkPacked(t, what+"/coalesce", code, body, 1)

			// Response side: segments cut out of a backend's reply still
			// resolve in the envelope the gateway frames around them.
			reply, err := (&ScatterRequest{}).SplitResponse(sh.envelope(v, "", sh.packedResponse()))
			if err != nil || len(reply.Segments) != 2 || reply.Encoding != sh.onEnv {
				t.Fatalf("%s: SplitResponse: %d segments, encoding %v, %v", what, len(reply.Segments), reply.Encoding, err)
			}
			col := NewGatherCollector([]int{0, 1})
			col.AddHeader(0, reply.RawHeader)
			if reply.Encoding {
				col.DeclareEncoding()
			}
			col.Deliver(0, reply.Segments[0])
			col.Deliver(1, reply.Segments[1])
			resp, _, err := col.Assemble(context.Background(), v, nil)
			if err != nil {
				t.Fatal(err)
			}
			sh.checkPacked(t, what+"/gather", resp.StatusCode, resp.Body, 2)
			// The gathered Envelope declares SOAP-ENC iff the reply's did.
			if got := bytes.Contains(resp.Body[:bytes.IndexByte(resp.Body, '>')], []byte(readerEncDecl)); got != sh.onEnv {
				t.Errorf("%s: gathered Envelope declares SOAP-ENC: %v, the reply's: %v", what, got, sh.onEnv)
			}
			resp.Release()
			resp, isFault := SpliceSingleResponse(v, reply.Segments[1], nil, reply.Encoding)
			if isFault {
				t.Errorf("%s: splice reported a fault", what)
			}
			sh.checkSingle(t, what+"/splice", resp.StatusCode, resp.Body)
			resp.Release()
		}
	}
}

// TestReaderTablePre16Fixtures: the request documents every writer emitted
// before PR 16, kept verbatim under testdata/wire/pre16/, are still accepted
// by the server and by the gateway's scatter parser, and answered with the
// values today's spelling of the same request gets.
func TestReaderTablePre16Fixtures(t *testing.T) {
	readerFixtures(t, "pre16", readerXMLDecl, readerEncDecl+readerSchemaDecls)
}

// TestReaderTablePre17Fixtures: likewise the documents of before PR 17, whose
// strings are typed and whose Envelope always declares xsi and xsd.
func TestReaderTablePre17Fixtures(t *testing.T) {
	readerFixtures(t, "pre17", "", readerSchemaDecls)
}

const readerSchemaDecls = ` xmlns:xsi="` + soap.NSXSI + `" xmlns:xsd="` + soap.NSXSD + `"`

// readerFixtures posts every document under testdata/wire/<dir>/ — each must
// open with prolog and declare decls after SOAP-ENV — beside its twin in
// testdata/wire/, and compares what the two replies decode to.
func readerFixtures(t *testing.T, dir, prolog, decls string) {
	sys := newSystem(t, respFramingConfig(parityFeatures{name: "bare"}))
	files, err := filepath.Glob(filepath.Join("testdata", "wire", dir, "*.xml"))
	if err != nil || len(files) != 8 {
		t.Fatalf("%s fixtures: %d files, %v", dir, len(files), err)
	}
	for _, path := range files {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		v := soap.V11
		if strings.HasSuffix(name, "_12.xml") {
			v = soap.V12
		}
		if !bytes.HasPrefix(doc, []byte(prolog+`<SOAP-ENV:Envelope xmlns:SOAP-ENV="`+v.Namespace()+`"`+decls+`>`)) {
			t.Errorf("%s is not a %s document: %.120s", name, dir, doc)
		}
		target := "/services"
		if strings.HasPrefix(name, "single_") {
			target = "/services/Echo"
		}
		values := func(doc []byte) (out [][]soapenc.Field) {
			code, body := postDoc(t, sys, target, v, doc)
			env, err := soap.Decode(bytes.NewReader(body))
			if code != 200 || err != nil || len(env.Body) != 1 || bytes.Contains(body, []byte("Fault")) {
				t.Fatalf("%s: server answered HTTP %d, %v: %s", name, code, err, body)
			}
			entries := env.Body
			if isPackedResponse(entries[0]) {
				entries = entries[0].ChildElements()
			}
			for _, el := range entries {
				fields, err := soapenc.DecodeParams(el)
				if err != nil {
					t.Fatalf("%s: %v: %s", name, err, body)
				}
				out = append(out, fields)
			}
			return out
		}
		got, want := values(doc), values(wireDoc(t, strings.TrimSuffix(name, "_"+corpusSuffix(v)), v))
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: %d entries answered, today's spelling gets %d", name, len(got), len(want))
		}
		for i := range want {
			if !soapenc.Equal(&soapenc.Struct{Fields: got[i]}, &soapenc.Struct{Fields: want[i]}) {
				t.Errorf("%s: entry %d = %v, today's spelling gets %v", name, i, got[i], want[i])
			}
		}
		if target == "/services" {
			if sr, fault := ParseScatterRequest(doc, ""); fault != nil || !sr.Packed {
				t.Errorf("%s: ParseScatterRequest: %v", name, fault)
			}
		}
	}
}

func TestReaderTableUnboundPrefix(t *testing.T) {
	sh := readerUnbound
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		// Server: a whole-message Client fault for the single call, a per-item
		// one for each packed entry.
		code, body := postDoc(t, sys, "/services/Echo", v, sh.envelope(v, "", sh.entry("echo", "")))
		env, err := soap.Decode(bytes.NewReader(body))
		if code != 500 || err != nil || env.Fault() == nil || env.Fault().Code != soap.FaultClient {
			t.Errorf("%v: single call: HTTP %d, %v: %s", v, code, err, body)
		}
		code, body = postDoc(t, sys, "/services", v, sh.envelope(v, "", sh.packedRequest()))
		if env, err = soap.Decode(bytes.NewReader(body)); code != 200 || err != nil {
			t.Fatalf("%v: packed: HTTP %d, %v: %s", v, code, err, body)
		}
		results, err := decodePackedResponse(env.Body[0])
		if err != nil || len(results) != 2 {
			t.Fatalf("%v: packed: %d results, %v", v, len(results), err)
		}
		for id, r := range results {
			if r.fault == nil || r.fault.Code != soap.FaultClient {
				t.Errorf("%v: packed entry %d: %+v, want a Client fault", v, id, r)
			}
		}

		// Gateway: the scatter parser faults the entries the same way, and a
		// call it cannot decode is not coalesced.
		sr, fault := ParseScatterRequest(sh.envelope(v, "", sh.packedRequest()), "")
		if fault != nil || len(sr.Entries) != 2 {
			t.Fatalf("%v: ParseScatterRequest: %v", v, fault)
		}
		for _, e := range sr.Entries {
			if e.Fault == nil || e.Fault.Code != soap.FaultClient {
				t.Errorf("%v: scatter entry %d: fault %v, want Client", v, e.Slot, e.Fault)
			}
		}
		if sc := ParseSingleCall(sh.envelope(v, "", sh.entry("echo", "")), "Echo", nil); sc != nil {
			t.Errorf("%v: ParseSingleCall coalesced an undecodable call", v)
		}

		// Client: an error from either decoder.
		cli := cannedClient(t, v, map[string][]byte{
			"/services/Echo": sh.envelope(v, "", sh.entry("echoResponse", "")),
			"/services":      sh.envelope(v, "", sh.packedResponse()),
		})
		if got, err := cli.Call("Echo", "echo"); err == nil {
			t.Errorf("%v: Call decoded %v", v, got)
		}
		b := cli.NewBatch()
		call := b.Add("Echo", "echo")
		b.Add("Echo", "echo")
		_ = b.Send()
		if got, err := call.Wait(); err == nil {
			t.Errorf("%v: Batch decoded %v", v, got)
		}
	}
}

// TestEnvelopeDeclaresEncodingOnDemand drives the writers end to end: a call
// or batch carrying an array round-trips through every client encode path
// (streamed, template cache, DOM under header providers) and both server
// response paths (single envelope, packed assembler), and a response Envelope
// declares SOAP-ENC exactly when an array is inside it.
func TestEnvelopeDeclaresEncodingOnDemand(t *testing.T) {
	list := soapenc.Array{int64(1), "two", soapenc.Array{true}}
	configs := map[string]func(*ServerConfig, *ClientConfig){
		"streamed":       nil,
		"template cache": func(_ *ServerConfig, c *ClientConfig) { c.TemplateCache = true },
		"wsse": func(s *ServerConfig, c *ClientConfig) {
			s.HeaderProcessors = []HeaderProcessor{&wsse.Verifier{Secrets: map[string][]byte{"alice": paritySecret}}}
			c.HeaderProviders = []HeaderProvider{&wsse.Signer{Username: "alice", Secret: paritySecret}}
		},
		"soap 1.2": func(_ *ServerConfig, c *ClientConfig) { c.SOAP12 = true },
	}
	for name, mutate := range configs {
		sys := newSystem(t, mutate)
		for _, params := range [][]soapenc.Field{
			{soapenc.F("msg", "plain")},
			{soapenc.F("msg", "with"), soapenc.F("list", list)},
		} {
			got, err := sys.client.Call("Echo", "echo", params...)
			if err != nil || len(got) != len(params) {
				t.Fatalf("%s: Call(%v) = %v, %v", name, params, got, err)
			}
			for i := range params {
				if !soapenc.Equal(got[i].Value, params[i].Value) {
					t.Errorf("%s: Call: value %d = %#v, want %#v", name, i, got[i].Value, params[i].Value)
				}
			}
			b := sys.client.NewBatch()
			calls := []*Call{b.Add("Echo", "echo", params...), b.Add("Echo", "echo", soapenc.F("n", int64(1)))}
			if err := b.Send(); err != nil {
				t.Fatalf("%s: Send: %v", name, err)
			}
			if got, err := calls[0].Wait(); err != nil || len(got) != len(params) || !soapenc.Equal(got[len(got)-1].Value, params[len(params)-1].Value) {
				t.Errorf("%s: batch entry = %v, %v", name, got, err)
			}
		}
	}

	sys := newSystem(t, nil)
	sh := readerShape{onArray: true} // the request scopes SOAP-ENC itself; the response cannot lean on it
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, tc := range []struct {
			name, target, body string
			array              bool
		}{
			{"single, array", "/services/Echo", sh.entry("echo", ""), true},
			{"single, scalar", "/services/Echo", `<m:echo xmlns:m="urn:spi:Echo"><n xsi:type="xsd:int">1</n></m:echo>`, false},
			{"packed, array", "/services", sh.packedRequest(), true},
			{"packed, scalar", "/services", `<spi:Parallel_Method xmlns:spi="` + NSPack + `" xmlns:m="urn:spi:Echo" spi:service="Echo"><m:echo/></spi:Parallel_Method>`, false},
		} {
			code, body := postDoc(t, sys, tc.target, v, sh.envelope(v, "", tc.body))
			if code != 200 || bytes.HasPrefix(body, []byte("<?xml")) {
				t.Fatalf("%v/%s: HTTP %d: %.80s", v, tc.name, code, body)
			}
			if got := bytes.Contains(body[:bytes.IndexByte(body, '>')], []byte(readerEncDecl)); got != tc.array {
				t.Errorf("%v/%s: response Envelope declares SOAP-ENC: %v, holds an array: %v\n%s", v, tc.name, got, tc.array, body)
			}
		}
	}
}
