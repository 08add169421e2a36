package core

import (
	"bytes"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/wsse"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// This file is the parity suite for the server's one dispatch pipeline:
// under every feature combination the responses must match the goldens
// under testdata/parity/ byte for byte — across WSSE, the per-entry
// differential cache, entry interceptors, both SOAP versions, and single,
// packed and fault-producing bodies. The goldens were captured from the
// buffered whole-envelope pipeline before it was deleted, so they pin the
// streaming server to what that oracle answered.

// parityFeatures is one cell of the server-feature matrix.
type parityFeatures struct {
	name  string
	wsse  bool
	diff  bool
	entry bool
}

var parityMatrix = []parityFeatures{
	{name: "bare"},
	{name: "diff", diff: true},
	{name: "wsse", wsse: true},
	{name: "entry-ic", entry: true},
	{name: "wsse-diff", wsse: true, diff: true},
	{name: "wsse-diff-entry", wsse: true, diff: true, entry: true},
}

var paritySecret = []byte("parity-shared-secret")

// parityEntryInterceptors: one rejecting hook and one rewriting hook, both
// deterministic.
func parityEntryInterceptors() []EntryInterceptor {
	deny := func(entry *xmldom.Element, info *EntryInfo) (*xmldom.Element, *soap.Fault) {
		if entry.Name.Local == "deny" {
			return nil, soap.ClientFault("denied by interceptor")
		}
		return nil, nil
	}
	rewrite := func(entry *xmldom.Element, info *EntryInfo) (*xmldom.Element, *soap.Fault) {
		for _, c := range entry.ChildElements() {
			if c.Name.Local == "data" && c.Text() == "rewrite-me" {
				repl := entry.Clone()
				for _, rc := range repl.ChildElements() {
					if rc.Name.Local == "data" {
						rc.SetText("rewritten")
					}
				}
				return repl, nil
			}
		}
		return nil, nil
	}
	return []EntryInterceptor{deny, rewrite}
}

func parityConfig(f parityFeatures) func(*ServerConfig, *ClientConfig) {
	return func(s *ServerConfig, c *ClientConfig) {
		s.DifferentialDeserialization = f.diff
		if f.wsse {
			s.HeaderProcessors = []HeaderProcessor{&wsse.Verifier{
				Secrets: map[string][]byte{"alice": paritySecret},
			}}
		}
		if f.entry {
			s.EntryInterceptors = parityEntryInterceptors()
		}
	}
}

// parityEcho builds <m:op xmlns:m="urn:spi:Echo"><data ...>text</data></m:op>.
func parityEcho(t *testing.T, op, text string) *xmldom.Element {
	t.Helper()
	return mustRequestElement(t, "urn:spi:Echo", op, soapenc.F("data", text))
}

// parityPacked wraps entries into a Parallel_Method with spi:id/spi:service.
func parityPacked(entries ...*xmldom.Element) *xmldom.Element {
	pm := xmldom.NewElement(xmltext.Name{Prefix: PrefixPack, Local: ElemParallelMethod})
	pm.DeclareNamespace(PrefixPack, NSPack)
	for i, e := range entries {
		e.SetAttr(attrID, strconv.Itoa(i))
		e.SetAttr(attrService, "Echo")
		pm.AddChild(e)
	}
	return pm
}

// parityDoc serializes a request document, signing it when sign is set. The
// signature covers the body entries as the unsigned document carries them —
// the same bytes the signed one does, which is exactly what the server
// verifies from its raw spans.
func parityDoc(t *testing.T, v soap.Version, sign bool, body ...*xmldom.Element) []byte {
	t.Helper()
	env := soap.New()
	env.Version = v
	env.Body = body
	encode := func() []byte {
		enc := soap.NewStreamEncoder()
		defer enc.Release()
		doc, err := enc.EncodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(doc)
	}
	doc := encode()
	if sign {
		signer := &wsse.Signer{Username: "alice", Secret: paritySecret}
		blocks, err := signer.MakeHeaders(wireBody(t, doc))
		if err != nil {
			t.Fatal(err)
		}
		env.Header = blocks
		doc = encode()
	}
	return doc
}

// parityGolden pins one response body under testdata/parity/.
func parityGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	testdataGolden(t, "parity", name, got)
}

// parityCase is one request shape of the parity suite. The response to it
// must not depend on the feature cell, so one golden per SOAP version
// serves every cell that runs the case.
type parityCase struct {
	name   string
	target string
	status int
	body   func(t *testing.T) []*xmldom.Element
}

var parityCases = []parityCase{
	{"single", "/services/Echo", 200, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityEcho(t, "echo", "hello & <world>")}
	}},
	{"single-fault", "/services/Echo", 500, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityEcho(t, "fail", "x")}
	}},
	{"single-unknown-op", "/services/Echo", 500, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityEcho(t, "noSuchOp", "x")}
	}},
	{"packed", "/services/", 200, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityPacked(
			parityEcho(t, "echo", "one"),
			parityEcho(t, "echo", "two"),
			parityEcho(t, "slow", "three"),
		)}
	}},
	{"packed-item-faults", "/services/", 200, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityPacked(
			parityEcho(t, "echo", "ok"),
			parityEcho(t, "fail", "boom"),
			parityEcho(t, "noSuchOp", "x"),
		)}
	}},
	{"packed-empty", "/services/", 500, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityPacked()}
	}},
	{"extra-body-entries", "/services/Echo", 500, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityEcho(t, "echo", "a"), parityEcho(t, "echo", "b")}
	}},
}

// parityEntryCases only run in cells with the entry interceptors on: they
// are the requests the deny and rewrite hooks react to.
var parityEntryCases = []parityCase{
	{"packed-denied-entry", "/services/", 200, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityPacked(
			parityEcho(t, "echo", "fine"),
			parityEcho(t, "deny", "nope"),
		)}
	}},
	{"packed-rewritten-entry", "/services/", 200, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityPacked(
			parityEcho(t, "echo", "rewrite-me"),
		)}
	}},
}

func TestUnifiedFastPathParity(t *testing.T) {
	for _, f := range parityMatrix {
		f := f
		t.Run(f.name, func(t *testing.T) {
			sys := newSystem(t, parityConfig(f))
			cases := parityCases
			if f.entry {
				cases = append(cases[:len(cases):len(cases)], parityEntryCases...)
			}
			for _, v := range []soap.Version{soap.V11, soap.V12} {
				for _, tc := range cases {
					// Each round builds the body afresh so signatures (nonces)
					// regenerate, while the entries themselves repeat — round
					// two exercises the differential cache's hit path.
					for round := 0; round < 2; round++ {
						doc := parityDoc(t, v, f.wsse, tc.body(t)...)
						code, body := postDoc(t, sys, tc.target, v, doc)
						if code != tc.status {
							t.Errorf("%v/%s round %d: status %d, want %d", v, tc.name, round, code, tc.status)
						}
						parityGolden(t, tc.name+"_"+corpusSuffix(v), body)
					}
				}
			}
			if f.diff {
				// The per-entry cache must see both rounds: a miss, then a hit
				// — WSSE nonces notwithstanding.
				if st := sys.server.Stats(); st.DiffHits == 0 || st.DiffMisses == 0 {
					t.Errorf("diff cache hits %d misses %d, want both rounds exercised", st.DiffHits, st.DiffMisses)
				}
			}
		})
	}
}

// parityTamperBodies are the signed requests the tamper and replay tests
// alter: a packed batch and a single call.
var parityTamperBodies = []parityCase{
	{"packed", "/services/", 500, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityPacked(
			parityEcho(t, "echo", "tamper-target"),
			parityEcho(t, "echo", "bystander"),
		)}
	}},
	{"single", "/services/Echo", 500, func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityEcho(t, "echo", "tamper-target")}
	}},
}

// tamperDoc signs the request and then alters its body in flight.
func tamperDoc(t *testing.T, v soap.Version, tc parityCase) []byte {
	t.Helper()
	doc := parityDoc(t, v, true, tc.body(t)...)
	tampered := bytes.Replace(doc, []byte("tamper-target"), []byte("tamper-forgery"), 1)
	if bytes.Equal(doc, tampered) {
		t.Fatal("tamper marker not found in document")
	}
	return tampered
}

// TestStreamedWSSERejectsTamper pins the security property of header
// verification: a signed request whose body was altered in flight — or that
// is replayed verbatim — is answered with the same whole-message fault for
// a packed batch and for a single call, in both SOAP versions.
func TestStreamedWSSERejectsTamper(t *testing.T) {
	for _, f := range []parityFeatures{
		{name: "wsse", wsse: true},
		{name: "wsse-diff", wsse: true, diff: true},
	} {
		f := f
		t.Run(f.name, func(t *testing.T) {
			sys := newSystem(t, parityConfig(f))
			for _, v := range []soap.Version{soap.V11, soap.V12} {
				for _, tc := range parityTamperBodies {
					code, body := postDoc(t, sys, tc.target, v, tamperDoc(t, v, tc))
					if code != 500 || !bytes.Contains(body, []byte("signature mismatch")) {
						t.Errorf("%v/%s: tampered request not rejected: %d %s", v, tc.name, code, body)
					}
					parityGolden(t, "wsse-tamper_"+corpusSuffix(v), body)

					doc := parityDoc(t, v, true, tc.body(t)...)
					if code, body := postDoc(t, sys, tc.target, v, doc); code != 200 {
						t.Fatalf("%v/%s: first delivery failed: %d %s", v, tc.name, code, body)
					}
					code, body = postDoc(t, sys, tc.target, v, doc)
					if code != 500 || !bytes.Contains(body, []byte("replayed nonce")) {
						t.Errorf("%v/%s: replayed request not rejected: %d %s", v, tc.name, code, body)
					}
					parityGolden(t, "wsse-replay_"+corpusSuffix(v), body)
				}
			}
		})
	}
}

// TestRejectedSignedBatchRunsNothing pins authenticate-then-act: a signed
// packed batch that fails header verification — body tampered in flight, or
// a replayed nonce — executes none of its entries. The response is only
// written after verification, so the handler-side counter and
// Stats().Requests are final by the time it is read: no sleeps.
func TestRejectedSignedBatchRunsNothing(t *testing.T) {
	for _, diff := range []bool{false, true} {
		for _, coupled := range []bool{false, true} {
			t.Run(fmt.Sprintf("diff=%v/coupled=%v", diff, coupled), func(t *testing.T) {
				var ran atomic.Int64
				sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
					parityConfig(parityFeatures{wsse: true, diff: diff})(s, c)
					s.Coupled = coupled
					echo, _ := s.Container.Service("Echo")
					echo.MustRegister("count", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
						ran.Add(1)
						return params, nil
					}, "counts its executions")
				})
				counted := func(t *testing.T) []*xmldom.Element {
					return []*xmldom.Element{parityPacked(
						parityEcho(t, "count", "tamper-target"),
						parityEcho(t, "count", "bystander"),
					)}
				}
				for _, v := range []soap.Version{soap.V11, soap.V12} {
					tampered := tamperDoc(t, v, parityCase{body: counted})
					code, body := postDoc(t, sys, "/services/", v, tampered)
					if code != 500 {
						t.Errorf("%v: tampered batch status %d, want 500", v, code)
					}
					parityGolden(t, "wsse-tamper_"+corpusSuffix(v), body)
					if n, reqs := ran.Load(), sys.server.Stats().Requests; n != 0 || reqs != 0 {
						t.Fatalf("%v: tampered batch ran %d operations (Requests %d), want 0", v, n, reqs)
					}
				}
				for _, v := range []soap.Version{soap.V11, soap.V12} {
					before := sys.server.Stats().Requests
					doc := parityDoc(t, v, true, counted(t)...)
					if code, body := postDoc(t, sys, "/services/", v, doc); code != 200 {
						t.Fatalf("%v: first delivery failed: %d %s", v, code, body)
					}
					if n, reqs := ran.Swap(0), sys.server.Stats().Requests-before; n != 2 || reqs != 2 {
						t.Fatalf("%v: verified batch ran %d operations (Requests +%d), want 2", v, n, reqs)
					}
					code, body := postDoc(t, sys, "/services/", v, doc)
					if code != 500 {
						t.Errorf("%v: replayed batch status %d, want 500", v, code)
					}
					parityGolden(t, "wsse-replay_"+corpusSuffix(v), body)
					if n, reqs := ran.Load(), sys.server.Stats().Requests-before; n != 0 || reqs != 2 {
						t.Fatalf("%v: replayed batch ran %d operations (Requests +%d), want 0 and +2", v, n, reqs)
					}
				}
			})
		}
	}
}

// TestMustUnderstandBatchRunsNothing is the same property without any
// processor configured: a packed batch carrying a mustUnderstand header
// nobody recognises is rejected before any of its entries executes.
func TestMustUnderstandBatchRunsNothing(t *testing.T) {
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc := `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `">` +
			`<SOAP-ENV:Header><x:token xmlns:x="urn:corpus" SOAP-ENV:mustUnderstand="1"/></SOAP-ENV:Header>` +
			`<SOAP-ENV:Body><spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">` +
			`<m:echo xmlns:m="urn:spi:Echo" spi:id="0" spi:service="Echo"/>` +
			`<m:echo xmlns:m="urn:spi:Echo" spi:id="1" spi:service="Echo"/>` +
			`</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`
		code, body := postDoc(t, sys, "/services/", v, []byte(doc))
		if code != 500 {
			t.Errorf("%v: status %d, want 500", v, code)
		}
		corpusGolden(t, "must_understand_"+corpusSuffix(v), body)
		if reqs := sys.server.Stats().Requests; reqs != 0 {
			t.Fatalf("%v: rejected batch ran %d operations, want 0", v, reqs)
		}
	}
}

// postDoc posts raw document bytes and returns the raw response.
func postDoc(t *testing.T, sys *system, target string, v soap.Version, doc []byte) (int, []byte) {
	t.Helper()
	resp, err := sys.client.http.Post(target, v.ContentType(), doc)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Body
}
