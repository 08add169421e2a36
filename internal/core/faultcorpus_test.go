package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// The fault corpus drives every fault emission site in the server end to
// end — watchdog timeout, per-item packed degradation, cancellation,
// admission shedding, application faults, header rejection (WSSE and
// mustUnderstand), malformed envelopes and version mismatch — and pins the
// exact response bytes in both SOAP versions under testdata/faultcorpus/.
// The goldens were committed green against the stringly-typed fault code
// and must pass unchanged across the internal/fault refactor: the corpus
// is the proof that retyping the taxonomy produced zero wire drift.
//
// Scenarios a remote caller cannot observe deterministically (a caller
// that cancels and walks away never reads the Server.Cancelled response)
// are driven at the emission function instead and encoded through the same
// envelope edge the wire path uses.

// corpusGolden compares got against testdata/faultcorpus/<name>, honoring
// the shared -update flag.
func corpusGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	testdataGolden(t, "faultcorpus", name, got)
}

// testdataGolden compares got against testdata/<dir>/<name> as every reader
// takes a packed response (byID), rewriting the file instead when -update is
// set.
func testdataGolden(t *testing.T, dir, name string, got []byte) {
	t.Helper()
	pinGolden(t, dir, name, got, byID)
}

// exactGolden is testdataGolden byte for byte, for a response whose entries
// completed in slot order: a Coupled server, or a fixed completion order.
func exactGolden(t *testing.T, dir, name string, got []byte) {
	t.Helper()
	pinGolden(t, dir, name, got, func(doc []byte) []byte { return doc })
}

// byID is a packed response as every reader takes it: the framing and the
// declarations as they are, the Parallel_Response entries sorted by spi:id.
// Entries go out in the order their work completes and every reader routes by
// id, so two responses that differ only in that order are one answer. A
// document with no Parallel_Response comes back as it is.
func byID(doc []byte) []byte {
	open := bytes.Index(doc, []byte("<"+PrefixPack+":"+ElemParallelResponse+" "))
	end := bytes.LastIndex(doc, []byte("</"+PrefixPack+":"+ElemParallelResponse+">"))
	if open < 0 || end < open {
		return doc
	}
	gt, _, _, err := scanTag(doc, open)
	if err != nil {
		return doc
	}
	entries, err := splitTopLevelElements(doc[gt+1 : end])
	if err != nil {
		return doc
	}
	goldenID := func(entry []byte) int {
		gt, _, _, _ := scanTag(entry, 0)
		_, v, _ := bytes.Cut(entry[:gt], []byte(` spi:id="`))
		id, err := strconv.Atoi(string(v[:max(bytes.IndexByte(v, '"'), 0)]))
		if err != nil {
			return -1
		}
		return id
	}
	sort.SliceStable(entries, func(i, j int) bool { return goldenID(entries[i]) < goldenID(entries[j]) })
	return slices.Concat(doc[:gt+1], bytes.Join(entries, nil), doc[end:])
}

func pinGolden(t *testing.T, dir, name string, got []byte, view func([]byte) []byte) {
	t.Helper()
	path := filepath.Join("testdata", dir, name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(view(got), view(want)) {
		t.Errorf("response bytes diverged from golden %s\n got: %s\nwant: %s", name, got, want)
	}
}

// corpusSingleDoc frames one single-call request envelope for op on the
// Echo service.
func corpusSingleDoc(t *testing.T, v soap.Version, op string, params ...soapenc.Field) []byte {
	t.Helper()
	env := soap.New()
	env.Version = v
	env.Body = append(env.Body, mustRequestElement(t, "urn:spi:Echo", op, params...))
	var buf bytes.Buffer
	if err := env.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corpusPackedDoc frames a two-entry packed request: a fast echo plus the
// blocking park operation, ids 0 and 1. It is spelled in the long form,
// which declares no batch default: the corpus pins what a fault looks like,
// and the response-framing table what a declared default does to the
// entries around one.
func corpusPackedDoc(t *testing.T, v soap.Version) []byte {
	t.Helper()
	env := soap.New()
	env.Version = v
	env.Body = append(env.Body, parityPacked(mustRequestElement(t, "urn:spi:Echo", "echo", soapenc.F("m", "quick")),
		mustRequestElement(t, "urn:spi:Echo", "park")))
	var buf bytes.Buffer
	if err := env.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postCorpus posts a request with optional extra headers and returns the
// raw response status and body bytes.
func postCorpus(t *testing.T, sys *system, target string, v soap.Version, doc []byte, extra ...string) (int, []byte) {
	t.Helper()
	resp, err := sys.client.http.Post(target, v.ContentType(), doc, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Body
}

func TestFaultCorpusWatchdogTimeout(t *testing.T) {
	// ServerConfig.OperationTimeout bounds the runaway handler; the
	// watchdog answers with the whole-message timeout fault.
	sys, _ := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.OperationTimeout = 50 * time.Millisecond
	})
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		code, body := postCorpus(t, sys, "/services/Echo", v, corpusSingleDoc(t, v, "park"))
		if code != 500 {
			t.Errorf("%s: status = %d, want 500", v, code)
		}
		corpusGolden(t, "watchdog_timeout_"+corpusSuffix(v), body)
	}
}

func TestFaultCorpusPackedDeadlineDegrade(t *testing.T) {
	// A packed batch whose propagated deadline expires mid-flight returns a
	// mixed response: the finished echo entry verbatim, the stuck park
	// entry as a per-item timeout fault carrying its spi:id.
	sys, _ := newResilienceSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		code, body := postCorpus(t, sys, "/services/", v, corpusPackedDoc(t, v),
			HeaderDeadline, "400")
		if code != 200 {
			t.Errorf("%s: status = %d, want 200 (degraded, not failed)", v, code)
		}
		corpusGolden(t, "packed_degrade_"+corpusSuffix(v), body)
	}
}

func TestFaultCorpusCancelled(t *testing.T) {
	// A caller that cancels and disconnects never reads the response, so
	// the cancellation fault cannot be captured off the wire; drive the
	// emission site (abandonResult) directly and answer with it as
	// faultResponse does.
	sys, _ := newResilienceSystem(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := sys.server.abandonResult(ctx, &rpcRequest{id: 1, service: "Echo", op: "park"})
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		resp := sys.server.faultResponse(res.fault, v)
		corpusGolden(t, "cancelled_"+corpusSuffix(v), resp.Body)
		resp.Release()
	}
}

func TestFaultCorpusAdmissionShed(t *testing.T) {
	// One worker, one queue slot, 5ms admission patience: with both
	// occupied by gated calls, the probe is shed with the busy fault.
	sys, release := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.AppWorkers = 1
		sc.AppQueue = 1
		sc.AdmissionTimeout = 5 * time.Millisecond
	})
	defer release()
	sys.client.Go("Echo", "gate")
	sys.client.Go("Echo", "gate")
	deadline := time.Now().Add(2 * time.Second)
	for sys.server.Stats().AppStage.Submitted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("gated calls never reached the application stage")
		}
		time.Sleep(time.Millisecond)
	}
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		code, body := postCorpus(t, sys, "/services/Echo", v, corpusSingleDoc(t, v, "echo"))
		if code != 500 {
			t.Errorf("%s: status = %d, want 500", v, code)
		}
		corpusGolden(t, "admission_shed_"+corpusSuffix(v), body)
	}
}

func TestFaultCorpusAppFault(t *testing.T) {
	// A handler error surfaces as a plain Server fault with the handler's
	// own text — the taxonomy's app-fault carrier must keep it verbatim.
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		code, body := postCorpus(t, sys, "/services/Echo", v, corpusSingleDoc(t, v, "fail"))
		if code != 500 {
			t.Errorf("%s: status = %d, want 500", v, code)
		}
		corpusGolden(t, "app_fault_"+corpusSuffix(v), body)
	}
}

func TestFaultCorpusMustUnderstand(t *testing.T) {
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc := `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `">` +
			`<SOAP-ENV:Header><x:token xmlns:x="urn:corpus" SOAP-ENV:mustUnderstand="1"/></SOAP-ENV:Header>` +
			`<SOAP-ENV:Body><m:echo xmlns:m="urn:spi:Echo"/></SOAP-ENV:Body></SOAP-ENV:Envelope>`
		code, body := postCorpus(t, sys, "/services/Echo", v, []byte(doc))
		if code != 500 {
			t.Errorf("%s: status = %d, want 500", v, code)
		}
		corpusGolden(t, "must_understand_"+corpusSuffix(v), body)
	}
}

func TestFaultCorpusWSSEReject(t *testing.T) {
	// A tampered body under a WSSE verifier is rejected at the header
	// processing stage with a Client fault carrying the verifier's error.
	sys := newSystem(t, parityConfig(parityFeatures{wsse: true}))
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc := parityDoc(t, v, true, parityEcho(t, "echo", "tamper-target"))
		tampered := bytes.Replace(doc, []byte("tamper-target"), []byte("tamper-forgery"), 1)
		if bytes.Equal(doc, tampered) {
			t.Fatal("tamper marker not found in document")
		}
		code, body := postCorpus(t, sys, "/services/Echo", v, tampered)
		if code != 500 {
			t.Errorf("%s: status = %d, want 500", v, code)
		}
		corpusGolden(t, "wsse_reject_"+corpusSuffix(v), body)
	}
}

func TestFaultCorpusEmptyPack(t *testing.T) {
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		pm := xmldom.NewElement(xmltext.Name{Prefix: PrefixPack, Local: ElemParallelMethod})
		pm.DeclareNamespace(PrefixPack, NSPack)
		env := soap.New()
		env.Version = v
		env.Body = append(env.Body, pm)
		var buf bytes.Buffer
		if err := env.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		code, body := postCorpus(t, sys, "/services/", v, buf.Bytes())
		if code != 500 {
			t.Errorf("%s: status = %d, want 500", v, code)
		}
		corpusGolden(t, "empty_pack_"+corpusSuffix(v), body)
	}
}

func TestFaultCorpusMalformed(t *testing.T) {
	// Bytes that are not an envelope at all are answered with a SOAP 1.1
	// Client fault regardless of what the request claimed to be.
	sys := newSystem(t, nil)
	code, body := postCorpus(t, sys, "/services/Echo", soap.V11, []byte("<not-soap/>"))
	if code != 500 {
		t.Errorf("status = %d, want 500", code)
	}
	corpusGolden(t, "malformed.xml", body)
}

func TestFaultCorpusVersionMismatch(t *testing.T) {
	sys := newSystem(t, nil)
	doc := `<e:Envelope xmlns:e="urn:not-a-soap-namespace"><e:Body/></e:Envelope>`
	code, body := postCorpus(t, sys, "/services/Echo", soap.V11, []byte(doc))
	if code != 500 {
		t.Errorf("status = %d, want 500", code)
	}
	corpusGolden(t, "version_mismatch.xml", body)
}

func TestFaultCorpusUnboundTypePrefix(t *testing.T) {
	// A value typed through a prefix its envelope binds nowhere — what an
	// on-demand writer that forgot a declaration would send — is a Client
	// fault, whole-message for a single call and per item in a batch; it used
	// to decode as the string it annotates. Likewise xsi:nil.
	sys := newSystem(t, nil)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		open := `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `" xmlns:xsd="` + soap.NSXSD + `"><SOAP-ENV:Body>`
		const end = `</SOAP-ENV:Body></SOAP-ENV:Envelope>`
		code, body := postCorpus(t, sys, "/services/Echo", v,
			[]byte(open+`<m:echo xmlns:m="urn:spi:Echo"><n xsi:type="xsd:int">5</n></m:echo>`+end))
		if code != 500 {
			t.Errorf("%s: status = %d, want 500", v, code)
		}
		corpusGolden(t, "unbound_xsi_"+corpusSuffix(v), body)
		code, body = postCorpus(t, sys, "/services", v, []byte(open+
			`<spi:Parallel_Method xmlns:spi="`+NSPack+`" xmlns:m="urn:spi:Echo" spi:service="Echo">`+
			`<m:echo><msg>fine</msg></m:echo><m:echo><none xsi:nil="true"/></m:echo></spi:Parallel_Method>`+end))
		if code != 200 {
			t.Errorf("%s: packed status = %d, want 200", v, code)
		}
		corpusGolden(t, "unbound_xsi_packed_"+corpusSuffix(v), body)
	}
}

func corpusSuffix(v soap.Version) string {
	if v == soap.V12 {
		return "12.xml"
	}
	return "11.xml"
}
