package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/wsse"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
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

// readerShape is one spelling: what precedes the Envelope start tag, the
// prefix it binds the envelope namespace to (SOAP-ENV when empty), which
// element declares SOAP-ENC, and how string leaves are written.
type readerShape struct {
	name    string
	prolog  string
	prefix  string
	onEnv   bool
	onOp    bool
	onArray bool
	// untyped leaves xsi:type off every string, mixed off the array's string
	// item alone.
	untyped, mixed bool
	// params, when set, is what an entry carries in place of readerWant's
	// spelling; bare is an Envelope that declares neither xsi nor xsd, noXSI
	// one that declares xsd alone.
	params      string
	bare, noXSI bool
}

var readerShapes = []readerShape{
	// What every writer emitted before PR 16: declaration, four namespaces.
	{name: "pre-16 preamble", prolog: readerXMLDecl, onEnv: true},
	// And before PR 17: every string typed, xsi and xsd always declared.
	{name: "no declaration", onEnv: true},
	{name: "untyped strings, xsi and xsd declared", onEnv: true, untyped: true},
	{name: "typed and untyped strings mixed", onEnv: true, mixed: true},
	{name: "untyped strings, xsi and xsd not declared", bare: true,
		params: `<msg>hi</msg><n>123</n><flag>true</flag><pad>  </pad><none></none>`},
	{name: "BOM, no declaration", prolog: "\xEF\xBB\xBF", onEnv: true},
	{name: "SOAP-ENC on the operation element", onOp: true},
	{name: "SOAP-ENC on the array element", onArray: true},
	// A prefix means nothing: WCF's and Axis's spellings of the namespace.
	{name: "one-letter envelope prefix", prefix: "s", onEnv: true, untyped: true},
	{name: "Axis's envelope prefix", prefix: "soapenv", onArray: true},
}

// readerUnbound use a prefix bound nowhere — SOAP-ENC in an Array's type, xsi
// in the name of a type or nil attribute, which is what an on-demand writer
// that forgot to declare it would send: every reader answers with a Client
// fault or an error, none with a panic or with values decoded some other way.
var readerUnbound = []readerShape{
	{name: "SOAP-ENC bound nowhere"},
	{name: "xsi:type, xsi bound nowhere", noXSI: true, params: `<n xsi:type="xsd:int">5</n>`},
	{name: "xsi:nil, xsi bound nowhere", bare: true, params: `<msg>hi</msg><none xsi:nil="true"/>`},
}

// readerWant is what every spelling carries but the bare one, whose params
// spell readerWantBare: strings that an untyped leaf must not turn into
// anything else.
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

// decls is what sh.envelope declares of the prefixes writers declare on demand.
func (sh readerShape) decls() (d soap.Decls) {
	if sh.onEnv {
		d |= soap.DeclEncoding
	}
	if !sh.bare {
		d |= soap.DeclXSI | soap.DeclXSD
	}
	return d
}

func (sh readerShape) envPrefix() string {
	if sh.prefix == "" {
		return "SOAP-ENV"
	}
	return sh.prefix
}

func (sh readerShape) envelope(v soap.Version, header, body string) []byte {
	p := sh.envPrefix()
	s := sh.prolog + `<` + p + `:Envelope xmlns:` + p + `="` + v.Namespace() + `"`
	if sh.onEnv {
		s += readerEncDecl
	}
	switch {
	case sh.noXSI:
		s += ` xmlns:xsd="` + soap.NSXSD + `"`
	case !sh.bare:
		s += readerSchemaDecls
	}
	s += `>`
	if header != "" {
		s += `<` + p + `:Header>` + header + `</` + p + `:Header>`
	}
	return []byte(s + `<` + p + `:Body>` + body + `</` + p + `:Body></` + p + `:Envelope>`)
}

// entry spells one Echo request or response element carrying sh.want();
// attrs are the pack annotations, if any.
func (sh readerShape) entry(local, attrs string) string {
	if sh.params != "" {
		return `<m:` + local + ` xmlns:m="urn:spi:Echo"` + attrs + `>` + sh.params + `</m:` + local + `>`
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
				var hs, hp string
				if cell.signed {
					// Over the body bytes alone: the signature does not see
					// the envelope's spelling.
					hs, hp = readerSign(t, single), readerSign(t, packed)
				}
				code, body := postDoc(t, sys, "/services/Echo", v, sh.envelope(v, hs, single))
				sh.checkSingle(t, what+"/single", code, body)
				code, body = postDoc(t, sys, "/services", v, sh.envelope(v, hp, packed))
				sh.checkPacked(t, what+"/packed", code, body, 2)
			}
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
			if err != nil || len(reply.Segments) != 2 || reply.Decls != sh.decls() || reply.Prefix != sh.envPrefix() {
				t.Fatalf("%s: SplitResponse: %d segments, declarations %03b, prefix %q, %v", what, len(reply.Segments), reply.Decls, reply.Prefix, err)
			}
			col := NewGatherCollector([]int{0, 1})
			col.AddHeader(0, reply.RawHeader)
			col.Declare(reply)
			col.Deliver(0, reply.Segments[0])
			col.Deliver(1, reply.Segments[1])
			resp, _, err := col.Assemble(context.Background(), v, nil)
			if err != nil {
				t.Fatal(err)
			}
			sh.checkPacked(t, what+"/gather", resp.StatusCode, resp.Body, 2)
			// The gathered Envelope declares on demand what the reply's did.
			if got := soap.TagDecls(resp.Body[:bytes.IndexByte(resp.Body, '>')]); got != sh.decls() {
				t.Errorf("%s: gathered Envelope declares %03b, the reply's %03b (bits: SOAP-ENC, xsi, xsd)", what, got, sh.decls())
			}
			resp.Release()
			resp, isFault := SpliceSingleResponse(v, reply.Segments[1], nil, reply.Decls)
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
		target := fixtureTarget(name)
		sameAnswers(t, name, answeredValues(t, sys, name, target, v, doc),
			answeredValues(t, sys, name, target, v, wireDoc(t, strings.TrimSuffix(name, "_"+corpusSuffix(v)), v)))
		if target == "/services" {
			if sr, fault := ParseScatterRequest(doc, ""); fault != nil || !sr.Packed {
				t.Errorf("%s: ParseScatterRequest: %v", name, fault)
			}
		}
	}
}

// fixtureTarget is where a request fixture goes: a single call to its service,
// anything else to the pack endpoint.
func fixtureTarget(name string) string {
	if strings.HasPrefix(name, "single_") {
		return "/services/Echo"
	}
	return "/services"
}

// answeredValues posts doc to target and returns what the server's reply
// decodes to, entry by entry; a fault in the reply fails the test.
func answeredValues(t *testing.T, sys *system, name, target string, v soap.Version, doc []byte) (out [][]soapenc.Field) {
	t.Helper()
	code, body := postDoc(t, sys, target, v, doc)
	env, err := soap.Decode(bytes.NewReader(byID(body)))
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

// sameAnswers fails unless an older spelling was answered with the values
// today's spelling of the same request gets.
func sameAnswers(t *testing.T, name string, got, want [][]soapenc.Field) {
	t.Helper()
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%s: %d entries answered, today's spelling gets %d", name, len(got), len(want))
	}
	for i := range want {
		if !soapenc.Equal(&soapenc.Struct{Fields: got[i]}, &soapenc.Struct{Fields: want[i]}) {
			t.Errorf("%s: entry %d = %v, today's spelling gets %v", name, i, got[i], want[i])
		}
	}
}

func TestReaderTableUnboundPrefix(t *testing.T) {
	sys := newSystem(t, nil)
	for _, sh := range readerUnbound {
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			// Server: a whole-message Client fault for the single call, a per-item
			// one for each packed entry.
			code, body := postDoc(t, sys, "/services/Echo", v, sh.envelope(v, "", sh.entry("echo", "")))
			env, err := soap.Decode(bytes.NewReader(body))
			if code != 500 || err != nil || env.Fault() == nil || env.Fault().Code != soap.FaultClient {
				t.Errorf("%s/%v: single call: HTTP %d, %v: %s", sh.name, v, code, err, body)
			}
			code, body = postDoc(t, sys, "/services", v, sh.envelope(v, "", sh.packedRequest()))
			if env, err = soap.Decode(bytes.NewReader(body)); code != 200 || err != nil {
				t.Fatalf("%s/%v: packed: HTTP %d, %v: %s", sh.name, v, code, err, body)
			}
			results, err := decodePackedResponse(env.Body[0])
			if err != nil || len(results) != 2 {
				t.Fatalf("%s/%v: packed: %d results, %v", sh.name, v, len(results), err)
			}
			for id, r := range results {
				if r.fault == nil || r.fault.Code != soap.FaultClient {
					t.Errorf("%s/%v: packed entry %d: %+v, want a Client fault", sh.name, v, id, r)
				}
			}

			// Gateway: the scatter parser faults the entries the same way, and a
			// call it cannot decode is not coalesced.
			sr, fault := ParseScatterRequest(sh.envelope(v, "", sh.packedRequest()), "")
			if fault != nil || len(sr.Entries) != 2 {
				t.Fatalf("%s/%v: ParseScatterRequest: %v", sh.name, v, fault)
			}
			for _, e := range sr.Entries {
				if e.Fault == nil || e.Fault.Code != soap.FaultClient {
					t.Errorf("%s/%v: scatter entry %d: fault %v, want Client", sh.name, v, e.Slot, e.Fault)
				}
			}
			if sc := ParseSingleCall(sh.envelope(v, "", sh.entry("echo", "")), "Echo", nil); sc != nil {
				t.Errorf("%s/%v: ParseSingleCall coalesced an undecodable call", sh.name, v)
			}

			// Client: an error from either decoder.
			cli := cannedClient(t, v, map[string][]byte{
				"/services/Echo": sh.envelope(v, "", sh.entry("echoResponse", "")),
				"/services":      sh.envelope(v, "", sh.packedResponse()),
			})
			if got, err := cli.Call("Echo", "echo"); err == nil {
				t.Errorf("%s/%v: Call decoded %v", sh.name, v, got)
			}
			b := cli.NewBatch()
			call := b.Add("Echo", "echo")
			b.Add("Echo", "echo")
			_ = b.Send()
			if got, err := call.Wait(); err == nil {
				t.Errorf("%s/%v: Batch decoded %v", sh.name, v, got)
			}
		}
	}
}

// wireLog is the request and response documents of every exchange a
// recorded system served, in order.
type wireLog struct {
	mu   sync.Mutex
	docs [][2][]byte
}

func (l *wireLog) last() (req, resp []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.docs[len(l.docs)-1]
	return d[0], d[1]
}

// newRecordedSystem is newSystem with the server behind a front that keeps
// what crossed the wire.
func newRecordedSystem(t *testing.T, mutate func(*ServerConfig, *ClientConfig)) (*system, *wireLog) {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	scfg := ServerConfig{Container: newEchoContainer(t), AppWorkers: 8, AppQueue: 64}
	ccfg := ClientConfig{Dial: link.Dial, Timeout: 5 * time.Second}
	if mutate != nil {
		mutate(&scfg, &ccfg)
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &wireLog{}
	front := &httpx.Server{Handler: func(ctx context.Context, req *httpx.Request) *httpx.Response {
		resp := srv.HandleHTTP(ctx, req)
		log.mu.Lock()
		log.docs = append(log.docs, [2][]byte{bytes.Clone(req.Body), bytes.Clone(resp.Body)})
		log.mu.Unlock()
		return resp
	}}
	go front.Serve(lis)
	cli, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		front.Close()
		srv.Close()
		link.Close()
	})
	return &system{client: cli, server: srv, link: link}, log
}

// usedDecls is what an Envelope around these values has to declare, worked out
// from the values alone: xsi for a nil, xsi and xsd for anything typed,
// SOAP-ENC besides for an array, nothing for a string.
func usedDecls(params []soapenc.Field) (d soap.Decls) {
	for _, p := range params {
		switch v := p.Value.(type) {
		case string:
		case nil:
			d |= soap.DeclXSI
		case *soapenc.Struct:
			d |= usedDecls(v.Fields)
		case soapenc.Array:
			d |= soap.DeclEncoding | soap.DeclXSI | soap.DeclXSD
			for _, item := range v {
				d |= usedDecls([]soapenc.Field{{Value: item}})
			}
		default:
			d |= soap.DeclXSI | soap.DeclXSD
		}
	}
	return d
}

// envelopeDecls is what a document's Envelope start tag declares on demand.
func envelopeDecls(doc []byte) soap.Decls {
	return soap.TagDecls(doc[:bytes.IndexByte(doc, '>')])
}

// TestEnvelopeDeclaresEncodingOnDemand drives the writers end to end: calls
// and batches of strings, a nil, a typed scalar and an array go through every
// client encode path (streamed, template cache, DOM under header providers)
// and both server response paths (single envelope, packed assembler), faults
// with and without a detail come back, and each Envelope on the wire, request
// and response, declares SOAP-ENC, xsi and xsd exactly when something inside
// it uses that prefix: xsi for a typed or nil value, xsd for a type, SOAP-ENC
// for an array, none of them for strings.
func TestEnvelopeDeclaresEncodingOnDemand(t *testing.T) {
	typed := soap.DeclXSI | soap.DeclXSD
	detail := xmldom.NewElement(xmltext.Name{Local: "detail"})
	retryAfter := detail.AddElement(xmltext.Name{Local: "retryAfter"})
	retryAfter.SetAttr(xmltext.Name{Prefix: soap.PrefixXSI, Local: "type"}, "xsd:int")
	retryAfter.SetText("3")
	withFaults := func(s *ServerConfig) {
		echo, _ := s.Container.Service("Echo")
		echo.MustRegister("failDetail", func(*registry.Context, []soapenc.Field) ([]soapenc.Field, error) {
			return nil, &soap.Fault{Code: soap.FaultServer, String: "detailed failure", Detail: detail.Clone()}
		}, "faults with a typed detail")
	}
	configs := map[string]func(*ServerConfig, *ClientConfig){
		"streamed":       func(*ServerConfig, *ClientConfig) {},
		"template cache": func(_ *ServerConfig, c *ClientConfig) { c.TemplateCache = true },
		"wsse": func(s *ServerConfig, c *ClientConfig) {
			s.HeaderProcessors = []HeaderProcessor{&wsse.Verifier{Secrets: map[string][]byte{"alice": paritySecret}}}
			c.HeaderProviders = []HeaderProvider{&wsse.Signer{Username: "alice", Secret: paritySecret}}
		},
		"soap 1.2": func(_ *ServerConfig, c *ClientConfig) { c.SOAP12 = true },
	}
	values := map[string][]soapenc.Field{
		"strings":             {soapenc.F("msg", "plain"), soapenc.F("blank", ""), soapenc.F("digits", "123")},
		"struct":              {soapenc.F("who", soapenc.NewStruct(soapenc.F("first", "a"), soapenc.F("last", "b")))},
		"nil":                 {soapenc.F("msg", "with"), soapenc.F("none", nil)},
		"int":                 {soapenc.F("msg", "with"), soapenc.F("n", int64(1))},
		"long":                {soapenc.F("n", int64(1)<<40)},
		"array":               {soapenc.F("msg", "with"), soapenc.F("list", soapenc.Array{int64(1), "two", soapenc.Array{true}})},
		"strings in an array": {soapenc.F("list", soapenc.Array{"one", "two"})},
	}
	for name, mutate := range configs {
		sys, log := newRecordedSystem(t, func(s *ServerConfig, c *ClientConfig) { withFaults(s); mutate(s, c) })
		check := func(what string, want soap.Decls) {
			t.Helper()
			req, resp := log.last()
			if got := envelopeDecls(req); got != want {
				t.Errorf("%s/%s: request Envelope declares %03b, uses %03b (bits: SOAP-ENC, xsi, xsd)\n%s", name, what, got, want, req)
			}
			if got := envelopeDecls(resp); got != want {
				t.Errorf("%s/%s: response Envelope declares %03b, uses %03b (bits: SOAP-ENC, xsi, xsd)\n%s", name, what, got, want, resp)
			}
		}
		for what, params := range values {
			// Twice: the second call of a shape is the template cache's hit.
			for pass := 0; pass < 2; pass++ {
				got, err := sys.client.Call("Echo", "echo", params...)
				if err != nil || !soapenc.Equal(&soapenc.Struct{Fields: got}, &soapenc.Struct{Fields: params}) {
					t.Fatalf("%s/%s: Call(%v) = %v, %v", name, what, params, got, err)
				}
				check(what+"/call", usedDecls(params))
			}
			b := sys.client.NewBatch()
			calls := []*Call{b.Add("Echo", "echo", soapenc.F("msg", "plain")), b.Add("Echo", "echo", params...)}
			if err := b.Send(); err != nil {
				t.Fatalf("%s/%s: Send: %v", name, what, err)
			}
			if got, err := calls[1].Wait(); err != nil || !soapenc.Equal(&soapenc.Struct{Fields: got}, &soapenc.Struct{Fields: params}) {
				t.Errorf("%s/%s: batch entry = %v, %v", name, what, got, err)
			}
			check(what+"/batch", usedDecls(params))
		}

		// Faults: none uses a prefix but the one whose detail holds a typed
		// value, whole-message or per item.
		for op, want := range map[string]soap.Decls{"fail": 0, "failDetail": typed} {
			if _, err := sys.client.Call("Echo", op); err == nil {
				t.Fatalf("%s: %s did not fault", name, op)
			}
			if _, resp := log.last(); envelopeDecls(resp) != want {
				t.Errorf("%s/%s: fault Envelope declares %03b, uses %03b\n%s", name, op, envelopeDecls(resp), want, resp)
			}
			b := sys.client.NewBatch()
			b.Add("Echo", "echo", soapenc.F("msg", "plain"))
			failed := b.Add("Echo", op)
			if err := b.Send(); err != nil {
				t.Fatalf("%s/%s: Send: %v", name, op, err)
			}
			if _, err := failed.Wait(); err == nil {
				t.Fatalf("%s: packed %s did not fault", name, op)
			}
			if _, resp := log.last(); envelopeDecls(resp) != want {
				t.Errorf("%s/%s: packed response with the fault declares %03b, uses %03b\n%s", name, op, envelopeDecls(resp), want, resp)
			}
		}
	}

	// A response cannot lean on what the request scoped for itself: this
	// request declares SOAP-ENC on the array element, xsi and xsd on Body.
	sys := newSystem(t, nil)
	sh := readerShape{onArray: true}
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, tc := range []struct {
			name, target, body string
			want               soap.Decls
		}{
			{"single, array", "/services/Echo", sh.entry("echo", ""), typed | soap.DeclEncoding},
			{"single, scalar", "/services/Echo", `<m:echo xmlns:m="urn:spi:Echo"><n xsi:type="xsd:int">1</n></m:echo>`, typed},
			{"single, nil", "/services/Echo", `<m:echo xmlns:m="urn:spi:Echo"><n xsi:nil="1"/></m:echo>`, soap.DeclXSI},
			{"single, typed string", "/services/Echo", `<m:echo xmlns:m="urn:spi:Echo"><s xsi:type="xsd:string">1</s></m:echo>`, 0},
			{"packed, array", "/services", sh.packedRequest(), typed | soap.DeclEncoding},
			{"packed, no values", "/services", `<spi:Parallel_Method xmlns:spi="` + NSPack + `" xmlns:m="urn:spi:Echo" spi:service="Echo"><m:echo/></spi:Parallel_Method>`, 0},
		} {
			doc := `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `"><SOAP-ENV:Body` + readerSchemaDecls + `>` +
				tc.body + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`
			code, body := postDoc(t, sys, tc.target, v, []byte(doc))
			if code != 200 || bytes.HasPrefix(body, []byte("<?xml")) {
				t.Fatalf("%v/%s: HTTP %d: %.80s", v, tc.name, code, body)
			}
			if got := envelopeDecls(body); got != tc.want {
				t.Errorf("%v/%s: response Envelope declares %03b, uses %03b (bits: SOAP-ENC, xsi, xsd)\n%s", v, tc.name, got, tc.want, body)
			}
		}
	}
}
