package soap

import (
	"strings"
	"sync"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// StreamEncoder emits a SOAP envelope directly into a pooled byte buffer: the
// Envelope start tag declaring s, the optional Header with its blocks, the
// Body and whatever the caller writes into it. No XML declaration is written
// (the HTTP Content-Type already names the charset), and SOAP-ENC, xsi and xsd
// are declared on the Envelope each only when the content uses that prefix
// without declaring it itself — in that order, after xmlns:s, where the
// toolkits of the paper's Figure 4 put them. A message of strings alone
// declares s and nothing else; Figure 4's toolkits declared all four on
// every message, and readers accept either.
//
// Lifecycle: NewStreamEncoder → Begin → body writes → Finish → (use bytes)
// → Release. The byte slice returned by Finish aliases the pooled buffer
// and is invalidated by Release; callers that need the bytes past Release
// must copy them first. A StreamEncoder must not be used after Release.
type StreamEncoder struct {
	em      *xmltext.Emitter
	declAt  int     // offset in em where the Envelope tag's on-demand declarations go
	v       Version // whose envelope namespace the Envelope tag binds
	aliases string  // further declarations of it for Finish to make (Alias)
}

var streamEncoderPool = sync.Pool{New: func() any { return new(StreamEncoder) }}

// NewStreamEncoder returns a pooled encoder ready for Begin.
func NewStreamEncoder() *StreamEncoder {
	enc := streamEncoderPool.Get().(*StreamEncoder)
	enc.em = xmltext.AcquireEmitter()
	return enc
}

// Release recycles the encoder and its buffer. Safe on nil and idempotent,
// so it can run unconditionally in deferred cleanup.
func (enc *StreamEncoder) Release() {
	if enc == nil || enc.em == nil {
		return
	}
	xmltext.ReleaseEmitter(enc.em)
	enc.em = nil
	enc.aliases = ""
	streamEncoderPool.Put(enc)
}

// Emitter exposes the underlying emitter for typed body writers
// (soapenc.EncodeParamsTo, the core assembler).
func (enc *StreamEncoder) Emitter() *xmltext.Emitter { return enc.em }

// Envelope vocabulary as precomputed names, so the hot path builds no
// Name values per message. Both versions spell it with PrefixEnvelope.
var (
	nameEnvelope  = xmltext.Name{Prefix: PrefixEnvelope, Local: "Envelope"}
	nameHeader    = xmltext.Name{Prefix: PrefixEnvelope, Local: "Header"}
	nameBody      = xmltext.Name{Prefix: PrefixEnvelope, Local: "Body"}
	nameFault     = xmltext.Name{Prefix: PrefixEnvelope, Local: "Fault"}
	nameXmlnsEnv  = xmltext.Name{Prefix: "xmlns", Local: PrefixEnvelope}
	nameFaultcode = xmltext.Name{Local: "faultcode"}
	nameFaultstr  = xmltext.Name{Local: "faultstring"}
	nameFaultact  = xmltext.Name{Local: "faultactor"}

	nameCode12   = xmltext.Name{Prefix: PrefixEnvelope, Local: "Code"}
	nameValue12  = xmltext.Name{Prefix: PrefixEnvelope, Local: "Value"}
	nameReason12 = xmltext.Name{Prefix: PrefixEnvelope, Local: "Reason"}
	nameText12   = xmltext.Name{Prefix: PrefixEnvelope, Local: "Text"}
	nameNode12   = xmltext.Name{Prefix: PrefixEnvelope, Local: "Node"}
	nameDetail12 = xmltext.Name{Prefix: PrefixEnvelope, Local: "Detail"}
	nameXMLLang  = xmltext.Name{Prefix: "xml", Local: "lang"}
)

// Begin writes the envelope start tag declaring s, the optional Header with
// its blocks, and opens the Body. SOAP-ENC, xsi and xsd are not declared
// here: Finish adds each that something written in between used.
func (enc *StreamEncoder) Begin(v Version, headers []*xmldom.Element) {
	em := enc.open(v)
	if len(headers) > 0 {
		em.Start(nameHeader)
		for _, b := range headers {
			appendElement(em, b)
		}
		em.End()
	}
	em.Start(nameBody)
}

// BeginRawHeader is Begin for callers that hold the header blocks as
// pre-serialized bytes rather than a DOM — the gateway splices header
// sections straight out of backend responses. Empty raw omits the Header
// element, exactly as Begin does for a nil slice.
func (enc *StreamEncoder) BeginRawHeader(v Version, raw []byte) {
	em := enc.open(v)
	if len(raw) > 0 {
		em.Start(nameHeader)
		em.Raw(raw)
		em.End()
	}
	em.Start(nameBody)
}

// open starts the Envelope tag and notes where the on-demand declarations
// belong in it.
func (enc *StreamEncoder) open(v Version) *xmltext.Emitter {
	em := enc.em
	enc.v = v
	em.Start(nameEnvelope)
	em.Attr(nameXmlnsEnv, v.Namespace())
	enc.declAt = em.Len()
	return em
}

// Alias has Finish bind prefix to the envelope namespace too, so content
// spliced from a document that spelled the namespace with it — the gateway's
// gathered per-item faults — resolves. PrefixEnvelope and repeats add nothing.
func (enc *StreamEncoder) Alias(prefix string) {
	decl := ` xmlns:` + prefix + `="` + enc.v.Namespace() + `"`
	if prefix != PrefixEnvelope && !strings.Contains(enc.aliases, decl) {
		enc.aliases += decl
	}
}

// WriteBodyElement streams one already-built body entry. DOM-free callers
// write through Emitter instead.
func (enc *StreamEncoder) WriteBodyElement(el *xmldom.Element) {
	appendElement(enc.em, el)
}

// appendElement streams a DOM subtree, marking the emitter with the on-demand
// prefixes the subtree leans on a declaration from outside itself for.
func appendElement(em *xmltext.Emitter, el *xmldom.Element) {
	if em.Marked() != allDecls {
		em.Mark(usedDecls(el))
	}
	el.AppendTo(em)
}

// Decls is a set of the namespace prefixes an Envelope declares only on
// demand. Writers pass it around as marks on their emitter; the gateway reads
// it off a backend reply's declarations (DeclOf) and carries it to the
// envelope it frames around that reply's entries.
type Decls = xmltext.Marks

const (
	DeclEncoding Decls = 1 << iota // SOAP-ENC: arrays
	DeclXSI                        // xsi: xsi:type and xsi:nil
	DeclXSD                        // xsd: the type names

	allDecls = DeclEncoding | DeclXSI | DeclXSD
)

// onDemand lists the declarations in the order an Envelope start tag carries
// them, after the envelope's own — where the toolkits of the paper's Figure 4,
// which declared all of them on every message, put them. Entry i is bit i of
// a Decls.
var onDemand = [...]struct{ prefix, ns string }{
	{PrefixEncoding, NSEncoding}, {PrefixXSI, NSXSI}, {PrefixXSD, NSXSD},
}

// declText is the serialized declarations of every Decls value.
var declText = func() (t [allDecls + 1]string) {
	for set := range t {
		for i, d := range onDemand {
			if set&(1<<i) != 0 {
				t[set] += ` xmlns:` + d.prefix + `="` + d.ns + `"`
			}
		}
	}
	return t
}()

// declOf returns the bit of an on-demand prefix, zero for any other.
func declOf(prefix string) Decls {
	switch prefix {
	case PrefixXSI:
		return DeclXSI
	case PrefixXSD:
		return DeclXSD
	case PrefixEncoding:
		return DeclEncoding
	}
	return 0
}

// usedDecls returns, in one walk, the on-demand prefixes the subtree at el
// uses — in an element or attribute name, or leading a QName attribute value
// such as xsi:type="xsd:int" — outside any element that declares that prefix
// itself.
func usedDecls(el *xmldom.Element) Decls {
	uses, own := declOf(el.Name.Prefix), Decls(0)
	for i := range el.Attrs {
		a := &el.Attrs[i]
		if a.Name.Prefix == "xmlns" {
			own |= declOf(a.Name.Local)
			continue
		}
		uses |= declOf(a.Name.Prefix)
		if c := strings.IndexByte(a.Value, ':'); c > 0 {
			uses |= declOf(a.Value[:c])
		}
	}
	for _, c := range el.Children {
		if ce, ok := c.(*xmldom.Element); ok {
			uses |= usedDecls(ce)
		}
	}
	return uses &^ own
}

// DeclOf returns the bit of an on-demand prefix and the namespace every
// writer binds it to; zero and "" for any other prefix.
func DeclOf(prefix string) (Decls, string) {
	for i, d := range onDemand {
		if d.prefix == prefix {
			return 1 << i, d.ns
		}
	}
	return 0, ""
}

// Finish closes Body and Envelope and returns the document bytes. Whatever
// the emitter was marked with — by soapenc's typed-value encoder, a DOM
// subtree, or the gateway for a spliced reply that relies on it — is declared
// where the Envelope start tag has always carried it, after xmlns:s and any
// Alias. The slice is owned by the encoder: valid until Release.
func (enc *StreamEncoder) Finish() ([]byte, error) {
	em := enc.em
	em.End() // Body
	em.End() // Envelope
	if err := em.Finish(); err != nil {
		return nil, err
	}
	if decl := enc.aliases + declText[em.Marked()&allDecls]; decl != "" {
		em.Extend(len(decl))
		doc := em.Bytes()
		copy(doc[enc.declAt+len(decl):], doc[enc.declAt:])
		copy(doc[enc.declAt:], decl)
	}
	return em.Bytes(), nil
}

// WriteEnvelope writes a whole envelope but for Finish: Begin with its
// headers, then every body entry.
func (enc *StreamEncoder) WriteEnvelope(env *Envelope) {
	enc.Begin(env.Version, env.Header)
	for _, e := range env.Body {
		appendElement(enc.em, e)
	}
}

// EncodeEnvelope serializes a whole envelope of trees. The returned bytes are
// valid until Release.
func (enc *StreamEncoder) EncodeEnvelope(env *Envelope) ([]byte, error) {
	enc.WriteEnvelope(env)
	return enc.Finish()
}

// AppendElementFor streams the fault body entry in the given version's
// layout: the flat faultcode/faultstring(/faultactor)(/detail) children of
// s:Fault for SOAP 1.1; s:Code/s:Value, s:Reason/s:Text, s:Node and s:Detail
// under s:Fault for SOAP 1.2. Either version's fault leans on the Envelope it
// is written into for the binding of s. An empty Code goes out as Server.
// extra attributes (e.g. spi:id on per-item faults) follow on the Fault start
// tag, in the order given. A Detail tree marks the emitter with the on-demand
// prefixes it leans on the Envelope for.
func (f *Fault) AppendElementFor(em *xmltext.Emitter, v Version, extra ...xmltext.Attr) {
	if v == V12 {
		f.appendElement12(em, extra)
		return
	}
	code := f.Code
	if code == "" {
		code = FaultServer
	}
	em.Start(nameFault)
	for _, a := range extra {
		em.Attr(a.Name, a.Value)
	}
	em.Start(nameFaultcode)
	// Escaping is character-local, so adjacent Text calls concatenate to
	// the same bytes as one Text(PrefixEnvelope + ":" + code) — minus the
	// string concatenation.
	em.Text(PrefixEnvelope)
	em.Text(":")
	em.Text(code)
	em.End()
	em.Start(nameFaultstr)
	em.Text(f.String)
	em.End()
	if f.Actor != "" {
		em.Start(nameFaultact)
		em.Text(f.Actor)
		em.End()
	}
	if f.Detail != nil {
		appendElement(em, f.Detail)
	}
	em.End()
}

func (f *Fault) appendElement12(em *xmltext.Emitter, extra []xmltext.Attr) {
	code := f.Code
	if code == "" {
		code = FaultServer
	}
	em.Start(nameFault)
	for _, a := range extra {
		em.Attr(a.Name, a.Value)
	}
	em.Start(nameCode12)
	em.Start(nameValue12)
	em.Text(PrefixEnvelope + ":")
	em.Text(faultCode12(code))
	em.End()
	em.End()
	em.Start(nameReason12)
	em.Start(nameText12)
	em.Attr(nameXMLLang, "en")
	em.Text(f.String)
	em.End()
	em.End()
	if f.Actor != "" {
		em.Start(nameNode12)
		em.Text(f.Actor)
		em.End()
	}
	if f.Detail != nil {
		em.Mark(usedDecls(f.Detail))
		em.Start(nameDetail12)
		for _, n := range f.Detail.Children {
			xmldom.AppendNode(n, em)
		}
		em.End()
	}
	em.End()
}
