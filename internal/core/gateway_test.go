package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// buildServerResponse renders the packed response a direct server would
// produce for the given results, headers included.
func buildServerResponse(t *testing.T, v soap.Version, results []*rpcResult, headers []*xmldom.Element) []byte {
	t.Helper()
	pr, err := buildPackedResponse(results, testNS)
	if err != nil {
		t.Fatal(err)
	}
	env := soap.New()
	env.Version = v
	env.Header = headers
	env.AddBody(pr)
	var buf bytes.Buffer
	if err := env.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// The server encodes through the stream encoder; pin the paths equal
	// here so the splice test below anchors on real server bytes.
	enc := soap.NewStreamEncoder()
	streamed, err := enc.EncodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), streamed...)
	enc.Release()
	if !bytes.Equal(out, buf.Bytes()) {
		t.Fatalf("encoder paths diverge:\n%s\n%s", out, buf.Bytes())
	}
	return out
}

// TestSplitGatherResponseRoundTrip pins the raw-splice invariant the whole
// gateway rests on: splitting a server's packed response into segments and
// reassembling them through the GatherCollector reproduces the original
// document byte for byte, for both SOAP versions and under randomized
// delivery orders.
func TestSplitGatherResponseRoundTrip(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		results := sampleResults()
		direct := buildServerResponse(t, v, results, nil)

		segs, rawHeader, err := SplitGatherResponse(direct)
		if err != nil {
			t.Fatal(err)
		}
		if rawHeader != nil {
			t.Fatalf("unexpected header bytes: %q", rawHeader)
		}
		if len(segs) != len(results) {
			t.Fatalf("got %d segments, want %d", len(segs), len(results))
		}

		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 20; trial++ {
			ids := make([]int, len(results))
			for i, r := range results {
				ids[i] = r.id
			}
			col := NewGatherCollector(ids)
			order := rng.Perm(len(segs))
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
			if !bytes.Equal(resp.Body, direct) {
				t.Fatalf("reassembly diverges (v=%v):\n got %s\nwant %s", v, resp.Body, direct)
			}
			resp.Release()
		}
	}
}

// TestSplitGatherResponseHeader checks header bytes survive the splice.
func TestSplitGatherResponseHeader(t *testing.T) {
	h := xmldom.NewElement(xmltext.Name{Prefix: "h", Local: "Signed"})
	h.DeclareNamespace("h", "urn:hdr")
	h.SetText("token<&>")
	results := sampleResults()
	direct := buildServerResponse(t, soap.V11, results, []*xmldom.Element{h})

	segs, rawHeader, err := SplitGatherResponse(direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(rawHeader) == 0 {
		t.Fatal("header bytes not extracted")
	}
	ids := make([]int, len(results))
	for i, r := range results {
		ids[i] = r.id
	}
	col := NewGatherCollector(ids)
	col.AddHeader(0, rawHeader)
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
	direct := buildServerResponse(t, soap.V11, results, nil)

	// Slot 0 arrives as a spliced segment, slot 1 fails locally, slot 2
	// never arrives and is degraded at the deadline.
	okOnly := buildServerResponse(t, soap.V11, results[:1], nil)
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

// TestParseScatterRequest covers entry decoding, effective ids, local
// faults, and the whole-message fault precedence mirrored from the server.
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
	// The annotated clone must re-serialize with the effective id attached.
	var buf bytes.Buffer
	if err := sr.Entries[0].Element.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `spi:id="0"`) || !strings.Contains(buf.String(), `spi:service="Echo"`) {
		t.Fatalf("entry 0 not annotated: %s", buf.String())
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
}

// TestSplitTopLevelElements hits the scanner's edge cases directly.
func TestSplitTopLevelElements(t *testing.T) {
	in := `<a x="a>b"><b/></a><c></c><d t='>'>text &lt; more</d>`
	segs, err := splitTopLevelElements([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`<a x="a>b"><b/></a>`, `<c></c>`, `<d t='>'>text &lt; more</d>`}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments: %q", len(segs), segs)
	}
	for i := range want {
		if string(segs[i]) != want[i] {
			t.Fatalf("segment %d = %q, want %q", i, segs[i], want[i])
		}
	}
	// The scanner validates balance, not tag names — its input comes from
	// the server's own emitter, which cannot emit mismatched names.
	for _, bad := range []string{"<a>", "</a>", "<a", "<a><b></a>"} {
		if _, err := splitTopLevelElements([]byte(bad)); err == nil {
			t.Fatalf("no error for %q", bad)
		}
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

// roundRobinShards deals a parsed request's entries out in turn, as the
// gateway's round-robin policy shards them over k idle backends.
func roundRobinShards(sr *ScatterRequest, k int) [][]*ScatterEntry {
	shards := make([][]*ScatterEntry, k)
	for i, e := range sr.Entries {
		shards[i%k] = append(shards[i%k], e)
	}
	return shards
}

// TestSubBatchWire pins the document a backend actually parses: the first of
// the two sub-batches the gateway cuts from testdata/wire/echo16_1x.xml.
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
	}
}
