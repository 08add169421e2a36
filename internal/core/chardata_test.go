package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/wsse"
	"repro/internal/xmldom"
)

// The character-data acceptance suite. A value that is mostly markup
// characters has two spellings on the wire — every '<', '&' and '>' as an
// entity reference, or the whole value in one CDATA section — and a reader
// must take either for the same string. The documents under
// testdata/wire/pre22/ are what every writer sent before PR 22 (entity
// references only) and are never regenerated: they keep the escaped long form
// valid input forever.

// charDataParams are the values the documents carry: one that is mostly
// specials, one that looks like the response's own markup, one that holds the
// CDATA terminator (so it can only ever be escaped), and one too short for a
// section to pay for itself.
var charDataParams = []soapenc.Field{
	soapenc.F("dense", `<<&&>>"<&>"<<&&>>"<&>"`),
	soapenc.F("markup", `</m:echoResponse></spi:Parallel_Response><!-- " --><![CDATA[ <a b="c"/>`),
	soapenc.F("terminator", `a]]>b <<<<&&&&>>>> ]]]>`),
	soapenc.F("short", `x<y&z"`),
}

// charDataCalls is the batch the packed documents carry: the four values
// together, then the markup-like one alone.
func charDataCalls() []batchEntry {
	return []batchEntry{
		{service: "Echo", op: "echo", params: charDataParams},
		{service: "Echo", op: "echo", params: charDataParams[1:2]},
	}
}

func charDataDoc(t *testing.T, dir, name string, v soap.Version) []byte {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("testdata", "wire", dir, name+"_"+corpusSuffix(v)))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func wantFields(t *testing.T, what string, got, want []soapenc.Field) {
	t.Helper()
	if !soapenc.Equal(&soapenc.Struct{Fields: got}, &soapenc.Struct{Fields: want}) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// charDataAcceptance runs the three documents of one spelling — single call,
// packed request, packed response, under testdata/wire/<dir>/ — through every
// reader: the server, the client, and the gateway's scatter parser and gather
// walk. Same operations, same results, whatever the spelling.
func charDataAcceptance(t *testing.T, dir string) {
	sys := newSystem(t, nil)
	calls := charDataCalls()
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		what := dir + "/" + v.String()
		single := charDataDoc(t, dir, "chardata-single", v)
		packed := charDataDoc(t, dir, "chardata-packed", v)
		response := charDataDoc(t, dir, "chardata-response", v)

		// Server: the single call and the batch echo the values back.
		code, body := postDoc(t, sys, "/services/Echo", v, single)
		env, err := soap.Decode(bytes.NewReader(body))
		if code != 200 || err != nil || len(env.Body) != 1 {
			t.Fatalf("%s: single call: HTTP %d, %v: %s", what, code, err, body)
		}
		fields, err := soapenc.DecodeParams(env.Body[0])
		if err != nil {
			t.Fatalf("%s: single call: %v", what, err)
		}
		wantFields(t, what+": single call", fields, charDataParams)

		checkPacked := func(what string, code int, body []byte) {
			t.Helper()
			env, err := soap.Decode(bytes.NewReader(body))
			if code != 200 || err != nil || len(env.Body) != 1 {
				t.Fatalf("%s: HTTP %d, %v: %s", what, code, err, body)
			}
			results, err := readPackedReply(body, len(calls))
			if err != nil || len(results) != len(calls) {
				t.Fatalf("%s: %d results, %v", what, len(results), err)
			}
			for id, c := range calls {
				if results[id].fault != nil {
					t.Fatalf("%s: entry %d faulted: %v", what, id, results[id].fault)
				}
				wantFields(t, what, results[id].results, c.params)
			}
		}
		code, body = postDoc(t, sys, "/services", v, packed)
		checkPacked(what+": packed request", code, body)

		// Client: the packed response resolves every call of the batch.
		cli := cannedClient(t, v, map[string][]byte{"/services": response})
		b := cli.NewBatch()
		var futures []*Call
		for _, c := range calls {
			futures = append(futures, b.Add(c.service, c.op, c.params...))
		}
		if err := b.Send(); err != nil {
			t.Fatalf("%s: client: %v", what, err)
		}
		for i, f := range futures {
			got, err := f.Wait()
			if err != nil {
				t.Fatalf("%s: client: call %d: %v", what, i, err)
			}
			wantFields(t, what+": client", got, calls[i].params)
		}

		// Gateway: the scatter parser cuts the request into entries that
		// still mean the same at a backend, and the gather walk cuts the
		// response into segments that still mean the same to the client.
		sr, fault := ParseScatterRequest(packed, "")
		if fault != nil || len(sr.Entries) != len(calls) {
			t.Fatalf("%s: ParseScatterRequest: %v", what, fault)
		}
		sub, err := BuildSubBatch(sr.Version, sr.Headers, sr.Entries)
		if err != nil {
			t.Fatal(err)
		}
		code, body = postDoc(t, sys, "/services", v, sub)
		checkPacked(what+": scatter", code, body)

		reply, err := sr.SplitResponse(response, nil)
		if err != nil || len(reply.Segments) != len(calls) {
			t.Fatalf("%s: SplitResponse: %d segments, %v", what, len(reply.Segments), err)
		}
		col := sr.NewCollector()
		col.Gather(0, nil, &reply)
		for slot, seg := range reply.Segments {
			col.Deliver(slot, seg)
		}
		resp, _, err := col.Assemble(context.Background(), v, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkPacked(what+": gather", resp.StatusCode, resp.Body)
		// A reply that spells the envelope namespace as the gateway does comes
		// back as it was; an older one's segments, in the gateway's frame.
		want := response
		if reply.Prefix != soap.PrefixEnvelope {
			want = reframed(response, reply.Prefix)
		}
		if !bytes.Equal(resp.Body, want) {
			t.Errorf("%s: the gathered response is not the backend's own:\n got: %s\nwant: %s", what, resp.Body, want)
		}
		resp.Release()
	}
}

// TestCharDataPre22Fixtures: the escaped long form, as every writer before
// PR 22 sent it, is accepted by every reader.
func TestCharDataPre22Fixtures(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, name := range []string{"chardata-single", "chardata-packed", "chardata-response"} {
			if doc := charDataDoc(t, "pre22", name, v); bytes.Contains(doc, []byte("<![CDATA[")) || !bytes.Contains(doc, []byte("&lt;/m:echoResponse&gt;")) {
				t.Errorf("%s_%s is not a pre-22 document: %s", name, corpusSuffix(v), doc)
			}
		}
	}
	charDataAcceptance(t, "pre22")
}

// TestCharDataGoldens pins what the writers send for the same calls today —
// the client's single call and batch as the far side of the connection
// received them, and the server's answer to the batch — and runs those
// documents through the same acceptance as the pre-22 ones.
func TestCharDataGoldens(t *testing.T) {
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		client, log := recordingClient(t, v)
		_, err := client.Call("Echo", "echo", charDataParams...)
		wantRecordedFault(t, "single", err)
		testdataGolden(t, "wire", "chardata-single_"+corpusSuffix(v), log.last(t, 1))

		b := client.NewBatch()
		for _, c := range charDataCalls() {
			b.Add(c.service, c.op, c.params...)
		}
		wantRecordedFault(t, "packed", b.Send())
		packed := log.last(t, 2)
		testdataGolden(t, "wire", "chardata-packed_"+corpusSuffix(v), packed)

		code, body := postDoc(t, sys, "/services", v, packed)
		if code != 200 {
			t.Fatalf("%v: packed request: HTTP %d: %s", v, code, body)
		}
		testdataGolden(t, "wire", "chardata-response_"+corpusSuffix(v), body)
		// The markup-like value goes out in one section, in both directions;
		// the one that holds the terminator never does.
		for _, doc := range [][]byte{packed, body} {
			if !bytes.Contains(doc, []byte("<markup><![CDATA[</m:echoResponse>")) || !bytes.Contains(doc, []byte("<terminator>a]]&gt;b")) {
				t.Errorf("%v: values are not in their shorter spelling: %s", v, doc)
			}
		}
	}
	charDataAcceptance(t, "")
}

// TestSignedCharDataSection: the signature covers the body as it stands on
// the wire, so a value spelled as a CDATA section verifies as written — from
// the client's own signer and from a document signed by hand — and a byte
// changed inside the section is a signature mismatch.
func TestSignedCharDataSection(t *testing.T) {
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		parityConfig(parityFeatures{wsse: true})(s, c)
		c.HeaderProviders = []HeaderProvider{&wsse.Signer{Username: "alice", Secret: paritySecret}}
	})
	b := sys.client.NewBatch()
	var futures []*Call
	for _, c := range charDataCalls() {
		futures = append(futures, b.Add(c.service, c.op, c.params...))
	}
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futures {
		got, err := f.Wait()
		if err != nil {
			t.Fatalf("signed call %d: %v", i, err)
		}
		wantFields(t, "signed call", got, charDataCalls()[i].params)
	}

	tc := parityCase{body: func(t *testing.T) []*xmldom.Element {
		return []*xmldom.Element{parityPacked(
			parityEcho(t, "echo", `<<<<< tamper-target &&&&& "quoted" >>>>>`),
			parityEcho(t, "echo", "bystander"),
		)}
	}}
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc := parityDoc(t, v, true, tc.body(t)...)
		if !bytes.Contains(doc, []byte(`<![CDATA[<<<<< tamper-target &&&&& "quoted" >>>>>]]>`)) {
			t.Fatalf("%v: the signed value is not in a section: %s", v, doc)
		}
		if code, body := postDoc(t, sys, "/services/", v, doc); code != 200 || bytes.Contains(body, []byte("Fault")) {
			t.Errorf("%v: signed batch with a section: HTTP %d %s", v, code, body)
		}
		code, body := postDoc(t, sys, "/services/", v, tamperDoc(t, v, tc))
		if code != 500 || !bytes.Contains(body, []byte("signature mismatch")) {
			t.Errorf("%v: byte changed inside the section not rejected: HTTP %d %s", v, code, body)
		}
	}
}
