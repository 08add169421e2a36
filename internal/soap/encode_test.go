package soap

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenLines holds got to the lines of the file at path, which -update
// rewrites.
func goldenLines(t *testing.T, path string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(file), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d lines written, %s holds %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d: wrote %s\n%s holds %s", i+1, got[i], path, want[i])
		}
	}
}

func newBodyEntry(op, payload string) *xmldom.Element {
	el := xmldom.NewElement(xmltext.Name{Prefix: "m", Local: op})
	el.DeclareNamespace("m", "urn:spi:Echo")
	data := el.AddElement(xmltext.Name{Local: "data"})
	data.SetAttr(xmltext.Name{Prefix: PrefixXSI, Local: "type"}, "xsd:string")
	data.SetText(payload)
	return el
}

// plainEntry is a body entry of untyped string leaves: it uses no prefix but
// its own.
func plainEntry(op, payload string) *xmldom.Element {
	el := xmldom.NewElement(xmltext.Name{Prefix: "m", Local: op})
	el.DeclareNamespace("m", "urn:spi:Echo")
	el.AddElement(xmltext.Name{Local: "data"}).SetText(payload)
	return el
}

// sampleDecls is what each sample's Envelope must declare on demand, by the
// sample's name less its version suffix; samples not listed use typed values
// and no array: xsi and xsd.
var sampleDecls = map[string]Decls{
	"fault": 0, "fault-min": 0, "empty-body": 0, "strings": 0, "strings-header": 0,
	"nil": DeclXSI, "xsi-attr": DeclXSI, "xsd-qname": DeclXSD, "xsi-scoped": DeclXSD,
	"array-body": allDecls, "array-header": allDecls, "array-second": allDecls, "array-fault": allDecls,
}

// sample is one document of the parity set: an envelope of header and body
// trees, or a fault as the one body entry of an envelope in env's version.
type sample struct {
	env   *Envelope
	fault *Fault
}

// write streams the sample as the server sends it: the trees through
// WriteEnvelope, the fault through AppendElementFor.
func (s sample) write(enc *StreamEncoder) ([]byte, error) {
	enc.WriteEnvelope(s.env)
	if s.fault != nil {
		s.fault.AppendElementFor(enc.Emitter(), s.env.Version)
	}
	return enc.Finish()
}

func sampleEnvelopes() map[string]sample {
	out := map[string]sample{}
	for _, v := range []Version{V11, V12} {
		faultSample := func(f *Fault) sample { return sample{env: &Envelope{Version: v}, fault: f} }
		single := New()
		single.Version = v
		single.Body = append(single.Body, newBodyEntry("echo", "payload"))
		out[fmt.Sprintf("single-%v", v)] = sample{env: single}

		packed := New()
		packed.Version = v
		pack := xmldom.NewElement(xmltext.Name{Prefix: "spi", Local: "Parallel_Method"})
		pack.DeclareNamespace("spi", "http://spi.ict.ac.cn/pack")
		for i := 0; i < 8; i++ {
			entry := newBodyEntry("echo", fmt.Sprintf("entry-%d <&> \"q\"", i))
			entry.SetAttr(xmltext.Name{Prefix: "spi", Local: "id"}, fmt.Sprint(i))
			pack.AddChild(entry)
		}
		packed.Body = append(packed.Body, pack)
		out[fmt.Sprintf("packed-%v", v)] = sample{env: packed}

		detail := xmldom.NewElement(xmltext.Name{Local: "detail"})
		detail.AddElement(xmltext.Name{Local: "info"}).SetText("broke <badly>")
		fault := &Fault{Code: FaultClient, String: "bad request & more", Actor: "urn:actor", Detail: detail}
		out[fmt.Sprintf("fault-%v", v)] = faultSample(fault)

		faultMin := &Fault{String: "plain"}
		out[fmt.Sprintf("fault-min-%v", v)] = faultSample(faultMin)

		withHeader := New()
		withHeader.Version = v
		hdr := xmldom.NewElement(xmltext.Name{Prefix: "h", Local: "Auth"})
		hdr.DeclareNamespace("h", "urn:spi:hdr")
		hdr.SetAttr(xmltext.Name{Prefix: PrefixEnvelope, Local: "mustUnderstand"}, "1")
		hdr.SetText("token")
		withHeader.Header = append(withHeader.Header, hdr)
		withHeader.Body = append(withHeader.Body, newBodyEntry("echo", "with header"))
		out[fmt.Sprintf("header-%v", v)] = sample{env: withHeader}

		empty := New()
		empty.Version = v
		out[fmt.Sprintf("empty-body-%v", v)] = sample{env: empty}

		// SOAP-ENC in use — by a body entry, by a header block, by a fault
		// detail — and in use only under an element that declares it itself,
		// which leaves the Envelope nothing to declare.
		array := func(declare bool) *xmldom.Element {
			el := newBodyEntry("search", "flights")
			list := el.AddElement(xmltext.Name{Local: "list"})
			if declare {
				list.DeclareNamespace(PrefixEncoding, NSEncoding)
			}
			list.SetAttr(xmltext.Name{Prefix: PrefixXSI, Local: "type"}, PrefixEncoding+":Array")
			list.SetAttr(xmltext.Name{Prefix: PrefixEncoding, Local: "arrayType"}, "xsd:anyType[0]")
			return el
		}
		for name, build := range map[string]func(env *Envelope){
			"array-body":   func(env *Envelope) { env.Body = append(env.Body, array(false)) },
			"array-scoped": func(env *Envelope) { env.Body = append(env.Body, array(true)) },
			"array-header": func(env *Envelope) {
				env.Header = append(env.Header, array(false))
				env.Body = append(env.Body, newBodyEntry("echo", "x"))
			},
			"array-second": func(env *Envelope) {
				env.Body = append(env.Body, newBodyEntry("echo", "x"))
				env.Body = append(env.Body, array(false))
			},
		} {
			env := New()
			env.Version = v
			build(env)
			out[fmt.Sprintf("%s-%v", name, v)] = sample{env: env}
		}
		// xsi and xsd, each in use alone, not at all, or under its own
		// declaration; in a header block over a body of strings; in a fault
		// detail.
		for name, build := range map[string]func(env *Envelope){
			"strings": func(env *Envelope) { env.Body = append(env.Body, plainEntry("echo", "x")) },
			"strings-header": func(env *Envelope) {
				hdr := plainEntry("Trace", "t")
				hdr.SetAttr(xmltext.Name{Prefix: PrefixEnvelope, Local: "mustUnderstand"}, "0")
				env.Header = append(env.Header, hdr)
				env.Body = append(env.Body, plainEntry("echo", "x"))
			},
			"typed-header": func(env *Envelope) {
				env.Header = append(env.Header, newBodyEntry("Trace", "t"))
				env.Body = append(env.Body, plainEntry("echo", "x"))
			},
			"nil": func(env *Envelope) {
				el := plainEntry("echo", "x")
				el.AddElement(xmltext.Name{Local: "none"}).SetAttr(xmltext.Name{Prefix: PrefixXSI, Local: "nil"}, "true")
				env.Body = append(env.Body, el)
			},
			"xsi-attr": func(env *Envelope) {
				el := plainEntry("echo", "x")
				el.SetAttr(xmltext.Name{Prefix: PrefixXSI, Local: "schemaLocation"}, "urn:spi:Echo echo.xsd")
				env.Body = append(env.Body, el)
			},
			"xsd-qname": func(env *Envelope) {
				el := plainEntry("echo", "x")
				el.ChildElements()[0].SetAttr(xmltext.Name{Local: "base"}, "xsd:token")
				env.Body = append(env.Body, el)
			},
			"xsi-scoped": func(env *Envelope) {
				el := newBodyEntry("echo", "x")
				el.DeclareNamespace(PrefixXSI, NSXSI)
				env.Body = append(env.Body, el)
			},
		} {
			env := New()
			env.Version = v
			build(env)
			out[fmt.Sprintf("%s-%v", name, v)] = sample{env: env}
		}
		typedDetail := xmldom.NewElement(xmltext.Name{Local: "detail"})
		typedDetail.AddChild(newBodyEntry("cause", "typed"))
		out[fmt.Sprintf("typed-fault-%v", v)] = faultSample(&Fault{String: "with a typed detail", Detail: typedDetail})
		arrayDetail := xmldom.NewElement(xmltext.Name{Local: "detail"})
		arrayDetail.AddChild(array(false))
		out[fmt.Sprintf("array-fault-%v", v)] = faultSample(&Fault{String: "with an array", Detail: arrayDetail})
	}
	return out
}

// sampleDocuments reads testdata/envelopes.golden: the bytes of every sample,
// a line each, under its name.
func sampleDocuments(t testing.TB) map[string]string {
	t.Helper()
	file, err := os.ReadFile("testdata/envelopes.golden")
	if err != nil {
		t.Fatalf("missing golden file (run TestStreamEncoderParity with -update to create): %v", err)
	}
	docs := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(file), "\n"), "\n") {
		name, doc, _ := strings.Cut(line, "\t")
		docs[name] = doc
	}
	return docs
}

// TestStreamEncoderParity pins whole envelopes — streamed as the server
// writes them, and through Envelope.Encode where the sample is one of trees —
// to the bytes testdata/envelopes.golden holds: single, packed, fault,
// header-bearing and empty envelopes in both SOAP versions.
func TestStreamEncoderParity(t *testing.T) {
	samples := sampleEnvelopes()
	if *updateGolden {
		var lines []string
		for name, s := range samples {
			enc := NewStreamEncoder()
			doc, err := s.write(enc)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, name+"\t"+string(doc))
			enc.Release()
		}
		sort.Strings(lines)
		goldenLines(t, "testdata/envelopes.golden", lines)
	}
	docs := sampleDocuments(t)
	if len(docs) != len(samples) {
		t.Fatalf("%d samples, %d golden documents", len(samples), len(docs))
	}
	for name, s := range samples {
		t.Run(name, func(t *testing.T) {
			want := docs[name]
			enc := NewStreamEncoder()
			defer enc.Release()
			got, err := s.write(enc)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Fatalf("output diverged:\ngot:  %s\nwant: %s", got, want)
			}
			if s.fault == nil {
				var buf bytes.Buffer
				if err := s.env.Encode(&buf); err != nil || buf.String() != want {
					t.Fatalf("Encode (%v) diverged:\ngot:  %s\nwant: %s", err, buf.Bytes(), want)
				}
			}
			if bytes.HasPrefix(got, []byte("<?xml")) {
				t.Errorf("a writer emitted an XML declaration: %.60s", got)
			}
			wantDecls, listed := sampleDecls[name[:strings.LastIndexByte(name, '-')]]
			if !listed {
				wantDecls = DeclXSI | DeclXSD
			}
			tag := got[:bytes.IndexByte(got, '>')]
			if declares := envelopeDecls(got); declares != wantDecls {
				t.Errorf("Envelope declares %03b, content uses unscoped %03b (bits: SOAP-ENC, xsi, xsd)\n%s", declares, wantDecls, got)
			}
			if !bytes.HasSuffix(tag, []byte(`"`+s.env.Version.Namespace()+`"`+declText[wantDecls])) {
				t.Errorf("on-demand declarations are not in Figure 4's order after SOAP-ENV: %s", tag)
			}
		})
	}
}

// TestFaultAppendElementForParity holds the fault writer to the bytes
// testdata/fault_elements.golden holds, a line a fault, with and without an
// extra attribute.
func TestFaultAppendElementForParity(t *testing.T) {
	detail := xmldom.NewElement(xmltext.Name{Local: "detail"})
	detail.AddElement(xmltext.Name{Local: "code"}).SetText("E42")
	faults := []*Fault{
		{Code: FaultClient, String: "client side"},
		{Code: FaultServer, String: "server side", Actor: "urn:me"},
		{String: "defaulted code"},
		{Code: "Custom.Code", String: "esc <&> \"x\"", Detail: detail},
	}
	idAttr := xmltext.Name{Prefix: "spi", Local: "id"}
	var wrote []string
	for _, v := range []Version{V11, V12} {
		for _, f := range faults {
			for _, extras := range [][]xmltext.Attr{nil, {{Name: idAttr, Value: "7"}}} {
				em := xmltext.AcquireEmitter()
				f.AppendElementFor(em, v, extras...)
				if err := em.Err(); err != nil {
					t.Fatal(err)
				}
				wrote = append(wrote, string(em.Bytes()))
				xmltext.ReleaseEmitter(em)
			}
		}
	}
	goldenLines(t, "testdata/fault_elements.golden", wrote)
}

// TestStreamEncoderPoolRecycling exercises acquire/encode/release across
// goroutines; run under -race via the race-pools make target.
func TestStreamEncoderPoolRecycling(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				env := New()
				payload := fmt.Sprintf("w%d-%d", seed, i)
				env.Body = append(env.Body, newBodyEntry("echo", payload))
				want := `<s:Envelope xmlns:s="` + NSEnvelope + `"` + declText[DeclXSI|DeclXSD] +
					`><s:Body><m:echo xmlns:m="urn:spi:Echo"><data xsi:type="xsd:string">` + payload +
					`</data></m:echo></s:Body></s:Envelope>`
				enc := NewStreamEncoder()
				got, err := enc.EncodeEnvelope(env)
				if err != nil {
					t.Errorf("stream encode: %v", err)
					enc.Release()
					return
				}
				if string(got) != want {
					t.Errorf("pooled encoder corrupted output for %s: %s", payload, got)
				}
				enc.Release()
			}
		}(w)
	}
	wg.Wait()
}

func TestStreamEncoderReleaseIdempotent(t *testing.T) {
	enc := NewStreamEncoder()
	if _, err := enc.EncodeEnvelope(New()); err != nil {
		t.Fatal(err)
	}
	enc.Release()
	enc.Release() // second release must be a no-op
	var nilEnc *StreamEncoder
	nilEnc.Release() // nil-safe
}

// FuzzEncodeParity: any envelope the decoder accepts encodes to bytes that
// decode back to an equivalent envelope, and encoding that one again writes
// the same bytes.
func FuzzEncodeParity(f *testing.F) {
	for _, doc := range sampleDocuments(f) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := NewStreamEncoder()
		defer enc.Release()
		got, err := enc.EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("accepted envelope failed to encode: %v", err)
		}
		reEnv, err := Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("stream output does not re-decode: %v", err)
		}
		if reEnv.Version != env.Version || len(reEnv.Header) != len(env.Header) || len(reEnv.Body) != len(env.Body) {
			t.Fatalf("re-decoded envelope differs in shape:\nin:  %q\nout: %q", data, got)
		}
		for i, el := range append(append([]*xmldom.Element(nil), env.Header...), env.Body...) {
			re := append(append([]*xmldom.Element(nil), reEnv.Header...), reEnv.Body...)[i]
			if !xmldom.Equal(el, re) {
				t.Fatalf("re-decoded tree differs:\nin:  %s\nout: %s", el, re)
			}
		}
		var again bytes.Buffer
		if err := reEnv.Encode(&again); err != nil || !bytes.Equal(again.Bytes(), got) {
			t.Fatalf("encoding is not stable (%v):\nfirst:  %q\nsecond: %q", err, got, again.Bytes())
		}
	})
}

func BenchmarkStreamEncodePacked16(b *testing.B) {
	env := New()
	pack := xmldom.NewElement(xmltext.Name{Prefix: "spi", Local: "Parallel_Method"})
	pack.DeclareNamespace("spi", "http://spi.ict.ac.cn/pack")
	for i := 0; i < 16; i++ {
		pack.AddChild(newBodyEntry("echo", "payload"))
	}
	env.Body = append(env.Body, pack)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := NewStreamEncoder()
		if _, err := enc.EncodeEnvelope(env); err != nil {
			b.Fatal(err)
		}
		enc.Release()
	}
}

// TestDeclOf: the gateway's reading of a backend reply's declarations knows
// exactly the on-demand prefixes and the namespace each must be bound to.
func TestDeclOf(t *testing.T) {
	for i, d := range onDemand {
		if bit, ns := DeclOf(d.prefix); bit != 1<<i || ns != d.ns {
			t.Errorf("DeclOf(%q) = %03b, %q", d.prefix, bit, ns)
		}
	}
	for _, p := range []string{"m", "xsdx", "SOAP-ENV", "s", ""} {
		if bit, ns := DeclOf(p); bit != 0 || ns != "" {
			t.Errorf("DeclOf(%q) = %03b, %q; want none", p, bit, ns)
		}
	}
	const env = `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + NSEnvelope + `"`
	for set := Decls(0); set <= allDecls; set++ {
		doc := []byte(env + declText[set] + ` xmlns:m="urn:spi:Echo" xmlns:xsdx="urn:not-xsd" xmlns:xsi2="` + NSXSI + `"/>`)
		if got := envelopeDecls(doc); got != set {
			t.Errorf("%s: read %03b, want %03b", doc, got, set)
		}
	}
}

// envelopeDecls is what a document's Envelope start tag declares on demand.
func envelopeDecls(doc []byte) Decls {
	tok, _ := xmltext.NewTokenizer(bytes.NewReader(doc)).Next()
	var set Decls
	for _, a := range tok.Attrs {
		if d, ns := DeclOf(a.Name.Local); a.Name.Prefix == "xmlns" && a.Value == ns {
			set |= d
		}
	}
	return set
}
