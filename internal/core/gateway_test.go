package core

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// buildServerResponse renders the packed response a direct server produces
// for the given results under the batch default def, headers included.
func buildServerResponse(t *testing.T, v soap.Version, results []*rpcResult, headers []*xmldom.Element, def string) []byte {
	t.Helper()
	asm := newPackedAssembler(def)
	defer asm.release()
	for _, r := range results {
		if err := asm.encodeEntry(r, testNS); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := asm.finish(v, headers, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	return bytes.Clone(resp.Body)
}

// collectorFor returns the collector a gateway gathers these results'
// segments into: the one of a request that declared def.
func collectorFor(results []*rpcResult, def string) *GatherCollector {
	sr := &ScatterRequest{DefaultNS: def}
	for i, r := range results {
		sr.Entries = append(sr.Entries, &ScatterEntry{Slot: i, ID: r.id, Service: r.service, Op: r.op})
	}
	return sr.NewCollector()
}

// TestSplitGatherResponseRoundTrip pins the raw-splice invariant the whole
// gateway rests on: splitting a server's packed response into segments and
// reassembling them through the GatherCollector reproduces the original
// document, for both SOAP versions and every batch default: byte for byte
// when the segments arrive in slot order, as every reader takes it (byID)
// under randomized delivery orders.
func TestSplitGatherResponseRoundTrip(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, def := range responseDefaults {
			results := sampleResults()
			direct := buildServerResponse(t, v, results, nil, def)

			reply, err := (&ScatterRequest{DefaultNS: def}).SplitResponse(direct, nil)
			if err != nil {
				t.Fatal(err)
			}
			segs := reply.Segments
			if reply.RawHeader != nil {
				t.Fatalf("unexpected header bytes: %q", reply.RawHeader)
			}
			if len(segs) != len(results) {
				t.Fatalf("got %d segments, want %d", len(segs), len(results))
			}

			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20; trial++ {
				col := collectorFor(results, def)
				col.Gather(0, nil, &reply)
				order := rng.Perm(len(segs))
				if trial == 0 {
					order = seq(len(segs))
				}
				go func() {
					for _, slot := range order {
						col.Deliver(slot, segs[slot])
					}
				}()
				resp, faults, err := col.Assemble(context.Background(), v, nil)
				if err != nil {
					t.Fatal(err)
				}
				if faults != 0 {
					t.Fatalf("spliced segments counted as faults: %d", faults)
				}
				if !bytes.Equal(byID(resp.Body), byID(direct)) || trial == 0 && !bytes.Equal(resp.Body, direct) {
					t.Fatalf("reassembly diverges (v=%v, default %q, order %v):\n got %s\nwant %s", v, def, order, resp.Body, direct)
				}
				resp.Release()
			}
		}
	}
}

// TestSplitGatherResponseHeader checks header bytes survive the splice.
func TestSplitGatherResponseHeader(t *testing.T) {
	h := xmldom.NewElement(xmltext.Name{Prefix: "h", Local: "Signed"})
	h.DeclareNamespace("h", "urn:hdr")
	h.SetText("token<&>")
	results := sampleResults()
	direct := buildServerResponse(t, soap.V11, results, []*xmldom.Element{h}, "")

	segs, rawHeader, err := SplitGatherResponse(direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(rawHeader) == 0 {
		t.Fatal("header bytes not extracted")
	}
	reply, _ := (*ScatterRequest)(nil).SplitResponse(direct, nil)
	if reply.Decls != soap.DeclXSI|soap.DeclXSD {
		t.Fatalf("reply declares %03b on demand, want xsi and xsd", reply.Decls)
	}
	ids := make([]int, len(results))
	for i, r := range results {
		ids[i] = r.id
	}
	col := NewGatherCollector(ids)
	col.AddHeader(0, rawHeader)
	col.Gather(0, nil, &reply)
	for slot, seg := range segs {
		col.Deliver(slot, seg)
	}
	resp, _, err := col.Assemble(context.Background(), soap.V11, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if !bytes.Equal(resp.Body, direct) {
		t.Fatalf("header splice diverges:\n got %s\nwant %s", resp.Body, direct)
	}
}

// TestGatherCollectorFaultsAndDegrade exercises locally-faulted slots and
// deadline degradation: faulted and never-delivered slots must encode the
// same per-item fault bytes a direct server emits for the same results.
func TestGatherCollectorFaultsAndDegrade(t *testing.T) {
	results := []*rpcResult{
		{id: 0, service: "Echo", op: "echo", results: nil},
		{id: 4, service: "Echo", op: "bad", fault: soap.ClientFault("request %q: bad spi:id %q", "bad", "x")},
		{id: 2, service: "Echo", op: "slow", fault: &soap.Fault{
			Code: FaultCodeTimeout, String: "deadline expired before Echo.slow finished"}},
	}
	direct := buildServerResponse(t, soap.V11, results, nil, "")

	// Slot 0 arrives as a spliced segment, slot 1 fails locally, slot 2
	// never arrives and is degraded at the deadline.
	okOnly := buildServerResponse(t, soap.V11, results[:1], nil, "")
	segs, _, err := SplitGatherResponse(okOnly)
	if err != nil {
		t.Fatal(err)
	}
	col := NewGatherCollector([]int{0, 4, 2})
	col.Deliver(0, segs[0])
	col.Fail(1, results[1].fault)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: slot 2 degrades immediately
	resp, faults, err := col.Assemble(ctx, soap.V11, func(slot int) *soap.Fault {
		if slot != 2 {
			t.Fatalf("degrade called for slot %d", slot)
		}
		return results[2].fault
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if faults != 2 {
		t.Fatalf("fault count = %d, want 2", faults)
	}
	if !bytes.Equal(resp.Body, direct) {
		t.Fatalf("fault assembly diverges:\n got %s\nwant %s", resp.Body, direct)
	}
}

// TestGatherCollectorNilDegrade: with no degrade callback — which is how
// benchmark/trace.go calls Assemble — a collector whose context has expired
// answers the open slots itself, with the fault a server abandoning the same
// operation writes (abandonFault). The contexts are dead on arrival, so
// nothing here waits.
func TestGatherCollectorNilDegrade(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	for _, tc := range []struct {
		ctx  context.Context
		code string
	}{{cancelled, FaultCodeCancelled}, {expired, FaultCodeTimeout}} {
		results := []*rpcResult{
			{id: 0, service: "Echo", op: "echo"},
			{id: 1, service: "Echo", op: "slow", fault: AbandonFault(tc.ctx, "Echo", "slow")},
			{id: 2, service: "WeatherService", op: "GetWeather", fault: AbandonFault(tc.ctx, "WeatherService", "GetWeather")},
		}
		if results[1].fault.Code != tc.code {
			t.Fatalf("AbandonFault code %q, want %q", results[1].fault.Code, tc.code)
		}
		direct := buildServerResponse(t, soap.V11, results, nil, "urn:spi:Echo")
		segs, _, err := SplitGatherResponse(buildServerResponse(t, soap.V11, results[:1], nil, "urn:spi:Echo"))
		if err != nil {
			t.Fatal(err)
		}
		col := collectorFor(results, "urn:spi:Echo")
		col.Deliver(0, segs[0])
		resp, faults, err := col.Assemble(tc.ctx, soap.V11, nil)
		if err != nil {
			t.Fatal(err)
		}
		if faults != 2 || !bytes.Equal(resp.Body, direct) {
			t.Errorf("%s: %d faults, assembled\n got %s\nwant %s", tc.code, faults, resp.Body, direct)
		}
		resp.Release()

		// A collector made from bare ids knows no operation names, but it
		// degrades all the same.
		resp, faults, err = NewGatherCollector([]int{0, 1}).Assemble(tc.ctx, soap.V11, nil)
		if err != nil || faults != 2 || !bytes.Contains(resp.Body, []byte(":"+tc.code+"</faultcode>")) {
			t.Errorf("%s: bare collector: %d faults, err %v: %s", tc.code, faults, err, resp.Body)
		}
		resp.Release()
	}
}

// TestSplitGatherResponseShape: the gather reads a reply with the client's
// reader, so it takes what the client takes — a declaration or not, a byte
// order mark, markup around the envelope, attributes of its own — refuses
// what the client refuses, and a marker inside a header block or an entry is
// never taken for the real one; besides, a reply under another default than
// the sub-batch declared is refused.
func TestSplitGatherResponseShape(t *testing.T) {
	const (
		decl     = `<?xml version="1.0" encoding="UTF-8"?>`
		envelope = `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + soap.NSEnvelope + `" xmlns:xsd="` + soap.NSXSD + `" note="x>y">`
		open     = `<SOAP-ENV:Body><spi:Parallel_Response xmlns:spi="` + NSPack + `"`
		entry    = `<m:echoResponse spi:id="0"><v>1</v></m:echoResponse>`
		tail     = `</spi:Parallel_Response></SOAP-ENV:Body></SOAP-ENV:Envelope>`
		echo     = ` xmlns:m="urn:spi:Echo"`
	)
	// A header block that quotes a whole packed response, nested Header and all.
	decoy := `<h:log xmlns:h="urn:h"><SOAP-ENV:Envelope><SOAP-ENV:Header></SOAP-ENV:Header>` + open + `><decoy/>` + tail + `</h:log>`
	for _, tc := range []struct {
		name, doc, def string
		segments       int
		header, err    string
	}{
		{name: "default", doc: decl + envelope + open + echo + `>` + entry + entry + tail, def: "urn:spi:Echo", segments: 2},
		{name: "no default", doc: decl + envelope + open + `>` + entry + tail, segments: 1},
		// What a backend writes now, and what one wrote before PR 16.
		{name: "no declaration", doc: envelope + open + `>` + entry + tail, segments: 1},
		{name: "byte order mark", doc: "\xEF\xBB\xBF" + envelope + open + `>` + entry + tail, segments: 1},
		{name: "two declarations", doc: decl + decl + envelope + open + `>` + entry + tail, segments: 1},
		{name: "header", doc: decl + envelope + `<SOAP-ENV:Header>` + decoy + `</SOAP-ENV:Header>` + open + echo + `>` + entry + tail,
			def: "urn:spi:Echo", segments: 1, header: decoy},
		{name: "escaped default", doc: decl + envelope + open + ` xmlns:m="urn:a&amp;b"` + `>` + entry + tail, def: "urn:a&b", segments: 1},
		{name: "other default", doc: decl + envelope + open + ` xmlns:m="urn:spi:Other"` + `>` + entry + tail, def: "urn:spi:Echo",
			err: `answered under default namespace "urn:spi:Other", the sub-batch declared "urn:spi:Echo"`},
		{name: "default not asked for", doc: decl + envelope + open + echo + `>` + entry + tail, err: `the sub-batch declared ""`},
		// A backend older than the mirrored default: its entries each declare
		// their own namespace, so they splice under any default.
		{name: "default not mirrored", doc: decl + envelope + open + `><m:echoResponse xmlns:m="urn:spi:Echo" spi:id="0"/>` + tail, def: "urn:spi:Echo", segments: 1},
		{name: "marker only inside an entry", doc: decl + envelope + `<SOAP-ENV:Body><wrap>` + open + `>` + entry + `</spi:Parallel_Response></wrap>` + tail,
			err: "end tag </wrap> does not match <SOAP-ENV:Body>"},
		{name: "marker only inside the header", doc: decl + envelope + `<SOAP-ENV:Header>` + decoy + `</SOAP-ENV:Header><SOAP-ENV:Body><other/>` + tail,
			err: "does not match <SOAP-ENV:Body>"},
		{name: "extra attribute", doc: decl + envelope + open + echo + ` x="1">` + entry + tail, def: "urn:spi:Echo", segments: 1},
		{name: "foreign binding", doc: decl + envelope + open + ` xmlns:n="urn:n">` + entry + tail, err: `binds xmlns:n to "urn:n"`},
		{name: "fault envelope", doc: decl + envelope + `<SOAP-ENV:Body><SOAP-ENV:Fault/></SOAP-ENV:Body></SOAP-ENV:Envelope>`, err: "soap fault"},
		{name: "not a packed response", doc: decl + envelope + `<SOAP-ENV:Body>` + entry + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`, err: "not a Parallel_Response"},
		{name: "unclosed header", doc: decl + envelope + `<SOAP-ENV:Header><h>` + open + `>` + entry + tail, err: "does not match <h>"},
		{name: "trailing comment", doc: decl + envelope + open + `>` + entry + tail + `<!-- -->`, segments: 1},
		{name: "trailing bytes", doc: decl + envelope + open + `>` + entry + tail + `<x/>`, err: "content after root element"},
		{name: "truncated entry", doc: decl + envelope + open + `>` + `<m:echoResponse><v>` + tail, err: "does not match <v>"},
		{name: "not xml", doc: "HTTP/1.1 502 Bad Gateway", err: "character data outside root element"},
		{name: "empty", doc: "", err: "no root element"},
	} {
		segs, raw, err := splitReply(&ScatterRequest{DefaultNS: tc.def}, []byte(tc.doc))
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case len(segs) != tc.segments || string(raw) != tc.header:
			t.Errorf("%s: %d segments, header %q; want %d, %q", tc.name, len(segs), raw, tc.segments, tc.header)
		}
	}
}

// TestParseScatterRequest covers entry decoding, effective ids, local faults,
// and whole-message faults, which readPacked decides for server and gateway
// alike (TestOneReaderFaults in package gateway holds the two to one answer).
func TestParseScatterRequest(t *testing.T) {
	doc := `<?xml version="1.0"?>` +
		`<e:Envelope xmlns:e="` + soap.NSEnvelope + `" xmlns:spi="` + NSPack + `"><e:Body>` +
		`<spi:Parallel_Method>` +
		`<m:echo xmlns:m="urn:spi:Echo" spi:service="Echo"><data>hi</data></m:echo>` +
		`<m:echo xmlns:m="urn:spi:Echo" spi:id="9" spi:service="Echo"><data>&lt;x&gt;</data></m:echo>` +
		`<m:echo xmlns:m="urn:spi:Echo" spi:id="oops" spi:service="Echo"/>` +
		`<m:orphan xmlns:m="urn:x"/>` +
		`</spi:Parallel_Method>` +
		`</e:Body></e:Envelope>`
	sr, fault := ParseScatterRequest([]byte(doc), "")
	if fault != nil {
		t.Fatalf("unexpected fault: %v", fault)
	}
	if !sr.Packed || len(sr.Entries) != 4 {
		t.Fatalf("packed=%v entries=%d", sr.Packed, len(sr.Entries))
	}
	if e := sr.Entries[0]; e.Fault != nil || e.ID != 0 || e.Service != "Echo" || e.Op != "echo" {
		t.Fatalf("entry 0: %+v fault=%v", e, e.Fault)
	}
	if e := sr.Entries[1]; e.Fault != nil || e.ID != 9 {
		t.Fatalf("entry 1: %+v fault=%v", e, e.Fault)
	}
	if e := sr.Entries[2]; e.Fault == nil || !strings.Contains(e.Fault.String, `bad spi:id "oops"`) || e.ID != 2 {
		t.Fatalf("entry 2: %+v fault=%v", e, e.Fault)
	}
	if e := sr.Entries[3]; e.Fault == nil || !strings.Contains(e.Fault.String, "names no service") {
		t.Fatalf("entry 3: %+v fault=%v", e, e.Fault)
	}
	// The entry keeps what it said for itself, and its bytes as they came, and
	// leaves the pack annotations to whoever writes it into a batch.
	e := sr.Entries[1]
	if want := []xmltext.Attr{{Name: nameXmlnsM, Value: "urn:spi:Echo"}}; e.name != (xmltext.Name{Prefix: "m", Local: "echo"}) ||
		!slices.Equal(e.attrs, want) || string(e.inner) != `<data>&lt;x&gt;</data>` {
		t.Fatalf("entry 1 kept as %v %v %q", e.name, e.attrs, e.inner)
	}
	if sr.DefaultNS != "" || sr.DefaultService != "" {
		t.Fatalf("request declares no default, parsed %q / %q", sr.DefaultNS, sr.DefaultService)
	}

	for _, c := range []struct{ doc, want string }{
		{"<garbage", "malformed envelope"},
		{`<e:Envelope xmlns:e="` + soap.NSEnvelope + `"><e:Body>` +
			`<spi:Parallel_Method xmlns:spi="` + NSPack + `"/>` +
			`</e:Body></e:Envelope>`, "has no requests"},
		{`<e:Envelope xmlns:e="` + soap.NSEnvelope + `"><e:Body><a/><b/></e:Body></e:Envelope>`,
			"expected exactly one body entry, got 2"},
	} {
		_, fault := ParseScatterRequest([]byte(c.doc), "")
		if fault == nil || !strings.Contains(fault.String, c.want) {
			t.Fatalf("doc %q: fault %v, want substring %q", c.doc, fault, c.want)
		}
	}
}

// TestBuildSubBatchRoundTrip checks a sub-batch re-parses into the same
// operations and params the original entries carried, including entity
// escapes in attribute values.
func TestBuildSubBatchRoundTrip(t *testing.T) {
	doc := `<e:Envelope xmlns:e="` + soap.NSEnvelope + `" xmlns:spi="` + NSPack + `"><e:Body>` +
		`<spi:Parallel_Method>` +
		`<m:echo xmlns:m="urn:spi:Echo" spi:service="Echo" note="a&amp;&quot;b"><data>x&amp;y</data></m:echo>` +
		`<m:nap xmlns:m="urn:spi:Echo" spi:id="5" spi:service="Echo"><ms>3</ms></m:nap>` +
		`</spi:Parallel_Method>` +
		`</e:Body></e:Envelope>`
	sr, fault := ParseScatterRequest([]byte(doc), "")
	if fault != nil {
		t.Fatal(fault)
	}
	sub, err := BuildSubBatch(sr.Version, sr.Headers, sr.Entries)
	if err != nil {
		t.Fatal(err)
	}
	sr2, fault := ParseScatterRequest(sub, "")
	if fault != nil {
		t.Fatalf("sub-batch does not re-parse: %v\n%s", fault, sub)
	}
	if len(sr2.Entries) != 2 {
		t.Fatalf("entries = %d", len(sr2.Entries))
	}
	for i, e := range sr2.Entries {
		if e.Fault != nil {
			t.Fatalf("entry %d faulted: %v", i, e.Fault)
		}
		if e.ID != sr.Entries[i].ID || e.Op != sr.Entries[i].Op {
			t.Fatalf("entry %d: id=%d op=%q", i, e.ID, e.Op)
		}
	}
	if !bytes.Contains(sub, []byte("a&amp;")) {
		t.Fatalf("attribute escaping lost:\n%s", sub)
	}
	// An entry that failed to decode has no element to send: the gateway
	// answers it locally, and anyone else who passes it gets an error naming
	// its slot, not a panic.
	faulted := &ScatterEntry{Slot: 3, ID: 3, Fault: soap.ClientFault("request %q names no service", "echo")}
	if _, err := BuildSubBatch(sr.Version, sr.Headers, append(sr.Entries, faulted)); err == nil || !strings.Contains(err.Error(), "slot 3") {
		t.Fatalf("sub-batch with a faulted entry: err = %v, want one naming slot 3", err)
	}
}

// TestRetryableErrorBridge pins the exported classification against the
// internal one for the cases the gateway keys on.
func TestRetryableErrorBridge(t *testing.T) {
	busy := &soap.Fault{Code: FaultCodeBusy, String: "shed"}
	definitive := soap.ClientFault("no such service %q", "X")
	plain := fmt.Errorf("connection reset")
	if !RetryableError(busy, false) {
		t.Fatal("busy fault must always be retryable")
	}
	if RetryableError(definitive, true) {
		t.Fatal("definitive fault must never be retryable")
	}
	if RetryableError(plain, false) || !RetryableError(plain, true) {
		t.Fatal("transport loss must be idempotency-gated")
	}
	if RetryableError(context.DeadlineExceeded, true) {
		t.Fatal("caller's own expiry must not be retryable")
	}
}

// splitInto is splitReply for tests that gather what they split: like the
// gateway's sendShard, it declares on col what the reply's Envelope declared.
func splitInto(col *GatherCollector, sr *ScatterRequest, body []byte) (segments [][]byte, err error) {
	r, err := sr.SplitResponse(body, nil)
	col.Gather(0, nil, &r)
	return r.Segments, err
}

// splitReply is SplitResponse unpacked, for tests that do not look at what the
// reply's Envelope declared.
func splitReply(sr *ScatterRequest, body []byte) (segments [][]byte, rawHeader []byte, err error) {
	r, err := sr.SplitResponse(body, nil)
	return r.Segments, r.RawHeader, err
}

// roundRobinShards deals a parsed request's entries out in turn, as the
// gateway's round-robin policy shards them over k idle backends.
func roundRobinShards(sr *ScatterRequest, k int) [][]*ScatterEntry {
	shards := make([][]*ScatterEntry, k)
	for i, e := range sr.Entries {
		shards[i%k] = append(shards[i%k], e)
	}
	return shards
}

// sentEntry is the element a backend reads for e: the one entry of the
// sub-batch e makes by itself.
func sentEntry(t *testing.T, v soap.Version, e *ScatterEntry) *xmldom.Element {
	t.Helper()
	sub, err := BuildSubBatch(v, nil, []*ScatterEntry{e})
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.Decode(bytes.NewReader(sub))
	if err != nil {
		t.Fatalf("%v: %s", err, sub)
	}
	return env.Body[0].ChildElements()[0]
}

// TestSubBatchWire pins the document a backend actually parses: the first of
// the two sub-batches the gateway cuts from testdata/wire/echo16_1x.xml. In
// the long form it was 3369 bytes, 2.3 times the whole sixteen-entry request.
func TestSubBatchWire(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		sr, fault := ParseScatterRequest(wireDoc(t, "echo16", v), "")
		if fault != nil {
			t.Fatal(fault)
		}
		sub, err := BuildSubBatch(sr.Version, sr.Headers, roundRobinShards(sr, 2)[0])
		if err != nil {
			t.Fatal(err)
		}
		testdataGolden(t, "wire", "subbatch_"+corpusSuffix(v), sub)
		// 1024 before the envelope stopped restating its preamble, 927 while
		// every string said it was one, 652 while the envelope namespace was
		// spelled SOAP-ENV. A client that still writes an older way (the pre-16
		// and pre-17 fixtures) costs its sub-batches what it declared —
		// SOAP-ENC, xsi, xsd, and SOAP-ENV for the envelope namespace, which
		// its entries might spell a name with — restated on Body, and its
		// typed strings, and nothing else.
		if want := map[soap.Version]int{soap.V11: 617, soap.V12: 615}[v]; len(sub) != want {
			t.Errorf("%v: sub-batch of 8 entries out of 16 is %d bytes, want %d", v, len(sub), want)
		}
		for _, old := range []struct {
			dir, restated string
			size          map[soap.Version]int
		}{
			{"pre16", readerEncDecl + readerSchemaDecls, map[soap.Version]int{soap.V11: 1010, soap.V12: 1006}},
			{"pre17", readerSchemaDecls, map[soap.Version]int{soap.V11: 951, soap.V12: 947}},
		} {
			doc, err := os.ReadFile(filepath.Join("testdata", "wire", old.dir, "echo16_"+corpusSuffix(v)))
			if err != nil {
				t.Fatal(err)
			}
			if sr, fault = ParseScatterRequest(doc, ""); fault != nil {
				t.Fatal(fault)
			}
			if sub, err = BuildSubBatch(sr.Version, sr.Headers, roundRobinShards(sr, 2)[0]); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(sub, []byte(`<s:Envelope xmlns:s="`+v.Namespace()+`"><s:Body xmlns:SOAP-ENV="`+v.Namespace()+`"`+old.restated+`><spi:Parallel_Method`)) || len(sub) != old.size[v] {
				t.Errorf("%v: sub-batch of the %s request is %d bytes, want %d with%s restated on Body: %s", v, old.dir, len(sub), old.size[v], old.restated, sub)
			}
		}
	}
}

// TestSubBatchGoldens pins, under testdata/subbatch/, the two sub-batches a
// round-robin gateway over two backends cuts from every packed request under
// testdata/wire/ — both versions, and every older spelling a client may still
// send. Entries that fault at the gateway are answered there and sent nowhere,
// so the round robin deals out the others, as assign does.
func TestSubBatchGoldens(t *testing.T) {
	subBatches := 0
	err := filepath.WalkDir(filepath.Join("testdata", "wire"), func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || filepath.Ext(path) != ".xml" {
			return err
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sr, fault := ParseScatterRequest(doc, "")
		if fault != nil || !sr.Packed {
			return nil
		}
		live := &ScatterRequest{}
		for _, e := range sr.Entries {
			if e.Fault == nil {
				live.Entries = append(live.Entries, e)
			}
		}
		name := strings.TrimSuffix(filepath.ToSlash(path), ".xml")
		name = strings.TrimPrefix(name, "testdata/wire/")
		for k, shard := range roundRobinShards(live, 2) {
			if len(shard) == 0 {
				continue
			}
			sub, err := BuildSubBatch(sr.Version, sr.Headers, shard)
			if err != nil {
				t.Fatalf("%s: sub-batch %d: %v", name, k, err)
			}
			exactGolden(t, "subbatch", fmt.Sprintf("%s.%d.xml", name, k), sub)
			subBatches++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if subBatches < 78 {
		t.Fatalf("pinned %d sub-batches, want the 78 of the corpus", subBatches)
	}
}

// TestSubBatchByteBudget: a sub-batch inherits instead of restating, so it is
// never larger than the client document it was cut from, and with a single
// backend the sub-batch of a request a Batch wrote is that request — with
// what its Envelope declared on demand moved to Body, where a sub-batch
// restates the client's scope.
func TestSubBatchByteBudget(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		packed := "packed" + strings.TrimSuffix(corpusSuffix(v), ".xml")
		for _, name := range []string{"wire/echo16_" + corpusSuffix(v), "wire/travel_" + corpusSuffix(v), packed + ".xml", packed + "-long.xml"} {
			doc, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			sr, fault := ParseScatterRequest(doc, "")
			if fault != nil {
				t.Fatalf("%s: %v", name, fault)
			}
			for _, k := range []int{1, 2, 4} {
				for i, shard := range roundRobinShards(sr, k) {
					if len(shard) == 0 {
						continue
					}
					sub, err := BuildSubBatch(sr.Version, sr.Headers, shard)
					if err != nil {
						t.Fatal(err)
					}
					if len(sub) > len(doc) {
						t.Errorf("%s: sub-batch %d of %d is %d bytes, the request %d: %s", name, i, k, len(sub), len(doc), sub)
					}
					want := doc
					if envelopeDecls(doc) != 0 {
						want = bytes.Replace(doc, []byte(readerSchemaDecls+`><s:Body>`), []byte(`><s:Body`+readerSchemaDecls+`>`), 1)
					}
					if k == 1 && !strings.HasSuffix(name, "-long.xml") && !bytes.Equal(sub, want) {
						t.Errorf("%s: the only sub-batch is not the request:\n got %s\nwant %s", name, sub, want)
					}
				}
			}
		}
	}
}

// TestSubBatchScope: what an entry inherited from the client's document it
// still inherits at the backend. The prefixes its xsi:type QNames use are
// declared on the client's Envelope and Parallel_Method, under names the
// sub-batch's own preamble does not declare; and an xmlns:m the entries
// inherit from the Envelope is not a batch default — Parallel_Method did not
// declare it — so it may not become one in the sub-batch either. It is
// restated on Body, and the gathered response is the direct server's.
func TestSubBatchScope(t *testing.T) {
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc := []byte(`<s:Envelope xmlns:s="` + v.Namespace() + `" xmlns:x="` + soap.NSXSD + `" xmlns:m="urn:spi:Echo"><s:Body>` +
			framingPM + toEcho + ` xmlns:i="` + soap.NSXSI + `">` +
			`<m:echo><n i:type="x:int">5</n></m:echo><m:echo><n i:type="x:int">6</n></m:echo>` +
			framingEnd + `</s:Body></s:Envelope>`)
		code, direct := postDoc(t, sys, "/services/", v, doc)
		if code != 200 || !bytes.Contains(direct, []byte(`<m:echoResponse xmlns:m="urn:spi:Echo" spi:id="1"><n xsi:type="xsd:int">6</n>`)) {
			t.Fatalf("%v: direct server answered %d %s", v, code, direct)
		}
		sr, fault := ParseScatterRequest(doc, "")
		if fault != nil {
			t.Fatal(fault)
		}
		col := sr.NewCollector()
		for _, e := range sr.Entries {
			sub, err := BuildSubBatch(sr.Version, sr.Headers, []*ScatterEntry{e})
			if err != nil {
				t.Fatal(err)
			}
			want := `<s:Body xmlns:i="` + soap.NSXSI + `" xmlns:x="` + soap.NSXSD + `" xmlns:m="urn:spi:Echo">` + framingPM + toEcho + `><m:echo`
			if !bytes.Contains(sub, []byte(want)) {
				t.Errorf("%v: scope not restated once, on Body:\n got %s\nwant …%s…", v, sub, want)
			}
			_, body := postDoc(t, sys, "/services", v, sub)
			segs, err := splitInto(col, sr, body)
			if err != nil || len(segs) != 1 {
				t.Fatalf("%v: split: %v (%d segments): %s", v, err, len(segs), body)
			}
			col.Deliver(e.Slot, segs[0])
		}
		resp, _, err := col.Assemble(context.Background(), v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(byID(resp.Body), byID(direct)) {
			t.Errorf("%v: gathered response is not the direct server's:\n got %s\nwant %s", v, resp.Body, direct)
		}
		resp.Release()
	}
}
