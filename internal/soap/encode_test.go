package soap

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

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

func sampleEnvelopes() map[string]*Envelope {
	out := map[string]*Envelope{}
	for _, v := range []Version{V11, V12} {
		single := New()
		single.Version = v
		single.AddBody(newBodyEntry("echo", "payload"))
		out[fmt.Sprintf("single-%v", v)] = single

		packed := New()
		packed.Version = v
		pack := xmldom.NewElement(xmltext.Name{Prefix: "spi", Local: "Parallel_Method"})
		pack.DeclareNamespace("spi", "http://spi.ict.ac.cn/pack")
		for i := 0; i < 8; i++ {
			entry := newBodyEntry("echo", fmt.Sprintf("entry-%d <&> \"q\"", i))
			entry.SetAttr(xmltext.Name{Prefix: "spi", Local: "id"}, fmt.Sprint(i))
			pack.AddChild(entry)
		}
		packed.AddBody(pack)
		out[fmt.Sprintf("packed-%v", v)] = packed

		detail := xmldom.NewElement(xmltext.Name{Local: "detail"})
		detail.AddElement(xmltext.Name{Local: "info"}).SetText("broke <badly>")
		fault := &Fault{Code: FaultClient, String: "bad request & more", Actor: "urn:actor", Detail: detail}
		out[fmt.Sprintf("fault-%v", v)] = fault.EnvelopeFor(v)

		faultMin := &Fault{String: "plain"}
		out[fmt.Sprintf("fault-min-%v", v)] = faultMin.EnvelopeFor(v)

		withHeader := New()
		withHeader.Version = v
		hdr := xmldom.NewElement(xmltext.Name{Prefix: "h", Local: "Auth"})
		hdr.DeclareNamespace("h", "urn:spi:hdr")
		hdr.SetAttr(xmltext.Name{Prefix: PrefixEnvelope, Local: "mustUnderstand"}, "1")
		hdr.SetText("token")
		withHeader.AddHeader(hdr)
		withHeader.AddBody(newBodyEntry("echo", "with header"))
		out[fmt.Sprintf("header-%v", v)] = withHeader

		empty := New()
		empty.Version = v
		out[fmt.Sprintf("empty-body-%v", v)] = empty

		// SOAP-ENC in use — by a body entry, by a header block, by a fault
		// detail — and in use only under an element that declares it itself:
		// both writers must reach the same verdict on the Envelope's
		// declaration.
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
			"array-body":   func(env *Envelope) { env.AddBody(array(false)) },
			"array-scoped": func(env *Envelope) { env.AddBody(array(true)) },
			"array-header": func(env *Envelope) { env.AddHeader(array(false)); env.AddBody(newBodyEntry("echo", "x")) },
			"array-second": func(env *Envelope) { env.AddBody(newBodyEntry("echo", "x")); env.AddBody(array(false)) },
		} {
			env := New()
			env.Version = v
			build(env)
			out[fmt.Sprintf("%s-%v", name, v)] = env
		}
		// xsi and xsd, each in use alone, not at all, or under its own
		// declaration; in a header block over a body of strings; in a fault
		// detail.
		for name, build := range map[string]func(env *Envelope){
			"strings": func(env *Envelope) { env.AddBody(plainEntry("echo", "x")) },
			"strings-header": func(env *Envelope) {
				hdr := plainEntry("Trace", "t")
				hdr.SetAttr(xmltext.Name{Prefix: PrefixEnvelope, Local: "mustUnderstand"}, "0")
				env.AddHeader(hdr)
				env.AddBody(plainEntry("echo", "x"))
			},
			"typed-header": func(env *Envelope) { env.AddHeader(newBodyEntry("Trace", "t")); env.AddBody(plainEntry("echo", "x")) },
			"nil": func(env *Envelope) {
				el := plainEntry("echo", "x")
				el.AddElement(xmltext.Name{Local: "none"}).SetAttr(xmltext.Name{Prefix: PrefixXSI, Local: "nil"}, "true")
				env.AddBody(el)
			},
			"xsi-attr": func(env *Envelope) {
				el := plainEntry("echo", "x")
				el.SetAttr(xmltext.Name{Prefix: PrefixXSI, Local: "schemaLocation"}, "urn:spi:Echo echo.xsd")
				env.AddBody(el)
			},
			"xsd-qname": func(env *Envelope) {
				el := plainEntry("echo", "x")
				el.ChildElements()[0].SetAttr(xmltext.Name{Local: "base"}, "xsd:token")
				env.AddBody(el)
			},
			"xsi-scoped": func(env *Envelope) {
				el := newBodyEntry("echo", "x")
				el.DeclareNamespace(PrefixXSI, NSXSI)
				env.AddBody(el)
			},
		} {
			env := New()
			env.Version = v
			build(env)
			out[fmt.Sprintf("%s-%v", name, v)] = env
		}
		typedDetail := xmldom.NewElement(xmltext.Name{Local: "detail"})
		typedDetail.AddChild(newBodyEntry("cause", "typed"))
		out[fmt.Sprintf("typed-fault-%v", v)] = (&Fault{String: "with a typed detail", Detail: typedDetail}).EnvelopeFor(v)
		arrayDetail := xmldom.NewElement(xmltext.Name{Local: "detail"})
		arrayDetail.AddChild(array(false))
		out[fmt.Sprintf("array-fault-%v", v)] = (&Fault{String: "with an array", Detail: arrayDetail}).EnvelopeFor(v)
	}
	return out
}

// TestStreamEncoderParity pins StreamEncoder byte-identical to the
// DOM-building Envelope.Encode for single, packed, fault, header-bearing
// and empty envelopes in both SOAP versions.
func TestStreamEncoderParity(t *testing.T) {
	for name, env := range sampleEnvelopes() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := env.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			enc := NewStreamEncoder()
			defer enc.Release()
			got, err := enc.EncodeEnvelope(env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf.Bytes()) {
				t.Fatalf("stream output diverged:\ndom:    %s\nstream: %s", buf.Bytes(), got)
			}
			if bytes.HasPrefix(got, []byte("<?xml")) {
				t.Errorf("a writer emitted an XML declaration: %.60s", got)
			}
			want, listed := sampleDecls[name[:strings.LastIndexByte(name, '-')]]
			if !listed {
				want = DeclXSI | DeclXSD
			}
			tag := got[:bytes.IndexByte(got, '>')]
			if declares := TagDecls(tag); declares != want {
				t.Errorf("Envelope declares %03b, content uses unscoped %03b (bits: SOAP-ENC, xsi, xsd)\n%s", declares, want, got)
			}
			if !bytes.HasSuffix(tag, []byte(`"`+env.Version.Namespace()+`"`+declText[want])) {
				t.Errorf("on-demand declarations are not in Figure 4's order after SOAP-ENV: %s", tag)
			}
		})
	}
}

// TestFaultAppendElementForParity checks the streaming fault writer
// against the DOM fault element, including extra attributes in the
// position buildPackedResponse puts them.
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
	for _, v := range []Version{V11, V12} {
		for i, f := range faults {
			for _, withExtra := range []bool{false, true} {
				el := f.ElementFor(v)
				var extras []xmltext.Attr
				if withExtra {
					el.SetAttr(idAttr, "7")
					extras = append(extras, xmltext.Attr{Name: idAttr, Value: "7"})
				}
				want := el.String()
				em := xmltext.AcquireEmitter()
				f.AppendElementFor(em, v, extras...)
				if err := em.Err(); err != nil {
					t.Fatal(err)
				}
				got := string(em.Bytes())
				xmltext.ReleaseEmitter(em)
				if got != want {
					t.Fatalf("fault %d v=%v extra=%v:\ndom:    %s\nstream: %s", i, v, withExtra, want, got)
				}
			}
		}
	}
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
				env.AddBody(newBodyEntry("echo", payload))
				var want bytes.Buffer
				if err := env.Encode(&want); err != nil {
					t.Errorf("encode: %v", err)
					return
				}
				enc := NewStreamEncoder()
				got, err := enc.EncodeEnvelope(env)
				if err != nil {
					t.Errorf("stream encode: %v", err)
					enc.Release()
					return
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("pooled encoder corrupted output for %s", payload)
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

// FuzzEncodeParity: any envelope the decoder accepts must stream-encode to
// exactly the bytes Envelope.Encode produces, and those bytes must decode
// back to an equivalent tree.
func FuzzEncodeParity(f *testing.F) {
	for _, env := range sampleEnvelopes() {
		var buf bytes.Buffer
		if err := env.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var want bytes.Buffer
		if err := env.Encode(&want); err != nil {
			return
		}
		enc := NewStreamEncoder()
		defer enc.Release()
		got, err := enc.EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("stream encode failed where DOM encode succeeded: %v", err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("byte divergence:\ndom:    %q\nstream: %q", want.Bytes(), got)
		}
		reEnv, err := Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("stream output does not re-decode: %v", err)
		}
		if !xmldom.Equal(env.Element(), reEnv.Element()) {
			t.Fatalf("re-decoded tree differs:\nin:  %s\nout: %s", env.Element(), reEnv.Element())
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
	env.AddBody(pack)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := NewStreamEncoder()
		if _, err := enc.EncodeEnvelope(env); err != nil {
			b.Fatal(err)
		}
		enc.Release()
	}
}

// TestTagDecls: the gateway's reading of a backend reply's Envelope tag finds
// exactly the on-demand declarations it makes, wherever they sit among the
// others, and allocates nothing doing so.
func TestTagDecls(t *testing.T) {
	const env = `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + NSEnvelope + `"`
	for set := Decls(0); set <= allDecls; set++ {
		tag := []byte(env + declText[set] + ` xmlns:m="urn:spi:Echo" xmlns:xsdx="urn:not-xsd"`)
		if got := TagDecls(tag); got != set {
			t.Errorf("%s: read %03b, want %03b", tag, got, set)
		}
		if allocs := testing.AllocsPerRun(100, func() { TagDecls(tag) }); allocs != 0 {
			t.Errorf("%s: %v allocations", tag, allocs)
		}
	}
}
