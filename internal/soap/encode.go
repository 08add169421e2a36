package soap

import (
	"strings"
	"sync"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// StreamEncoder emits a SOAP envelope directly into a pooled byte buffer,
// without building the xmldom tree that Envelope.Encode constructs and
// throws away per message. Its output is byte-identical to Envelope.Encode
// for the same logical envelope — golden and differential tests pin this —
// so the two paths are interchangeable on the wire. Neither writes an XML
// declaration (the HTTP Content-Type already names the charset), and both
// declare SOAP-ENC only when the envelope's content uses the prefix.
//
// Lifecycle: NewStreamEncoder → Begin → body writes → Finish → (use bytes)
// → Release. The byte slice returned by Finish aliases the pooled buffer
// and is invalidated by Release; callers that need the bytes past Release
// must copy them first. A StreamEncoder must not be used after Release.
type StreamEncoder struct {
	em    *xmltext.Emitter
	encAt int // offset in em of the Envelope tag's xmlns:SOAP-ENC slot
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
	streamEncoderPool.Put(enc)
}

// Emitter exposes the underlying emitter for typed body writers
// (soapenc.EncodeParamsTo, the core assembler).
func (enc *StreamEncoder) Emitter() *xmltext.Emitter { return enc.em }

// Envelope vocabulary as precomputed names, so the hot path builds no
// Name values per message.
var (
	nameEnvelope  = xmltext.Name{Prefix: PrefixEnvelope, Local: "Envelope"}
	nameHeader    = xmltext.Name{Prefix: PrefixEnvelope, Local: "Header"}
	nameBody      = xmltext.Name{Prefix: PrefixEnvelope, Local: "Body"}
	nameFault     = xmltext.Name{Prefix: PrefixEnvelope, Local: "Fault"}
	nameXmlnsEnv  = xmltext.Name{Prefix: "xmlns", Local: PrefixEnvelope}
	nameXmlnsEnc  = xmltext.Name{Prefix: "xmlns", Local: PrefixEncoding}
	nameXmlnsXSI  = xmltext.Name{Prefix: "xmlns", Local: PrefixXSI}
	nameXmlnsXSD  = xmltext.Name{Prefix: "xmlns", Local: PrefixXSD}
	nameFaultcode = xmltext.Name{Local: "faultcode"}
	nameFaultstr  = xmltext.Name{Local: "faultstring"}
	nameFaultact  = xmltext.Name{Local: "faultactor"}

	nameFault12  = xmltext.Name{Prefix: "env", Local: "Fault"}
	nameXmlnsE12 = xmltext.Name{Prefix: "xmlns", Local: "env"}
	nameCode12   = xmltext.Name{Prefix: "env", Local: "Code"}
	nameValue12  = xmltext.Name{Prefix: "env", Local: "Value"}
	nameReason12 = xmltext.Name{Prefix: "env", Local: "Reason"}
	nameText12   = xmltext.Name{Prefix: "env", Local: "Text"}
	nameNode12   = xmltext.Name{Prefix: "env", Local: "Node"}
	nameDetail12 = xmltext.Name{Prefix: "env", Local: "Detail"}
	nameXMLLang  = xmltext.Name{Prefix: "xml", Local: "lang"}
)

// Begin writes the envelope start tag with the namespace declarations every
// body relies on (same order as Envelope.Element), the optional Header with
// its blocks, and opens the Body. SOAP-ENC is not among them: Finish adds it
// when something written in between used the prefix.
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

// open starts the Envelope tag and notes where xmlns:SOAP-ENC belongs in it.
func (enc *StreamEncoder) open(v Version) *xmltext.Emitter {
	em := enc.em
	em.Start(nameEnvelope)
	em.Attr(nameXmlnsEnv, v.Namespace())
	enc.encAt = em.Len()
	em.Attr(nameXmlnsXSI, NSXSI)
	em.Attr(nameXmlnsXSD, NSXSD)
	return em
}

// WriteBodyElement streams one already-built body entry. DOM-free callers
// write through Emitter instead.
func (enc *StreamEncoder) WriteBodyElement(el *xmldom.Element) {
	appendElement(enc.em, el)
}

// appendElement streams a DOM subtree, marking the emitter when the subtree
// leans on a SOAP-ENC declaration from outside itself.
func appendElement(em *xmltext.Emitter, el *xmldom.Element) {
	if !em.Marked() && usesEncoding(el) {
		em.Mark()
	}
	el.AppendTo(em)
}

// usesEncoding reports whether the subtree at el uses the SOAP-ENC prefix —
// in an element or attribute name, or leading a QName attribute value such as
// xsi:type="SOAP-ENC:Array" — outside any element that declares it itself.
func usesEncoding(el *xmldom.Element) bool {
	uses := el.Name.Prefix == PrefixEncoding
	for i := range el.Attrs {
		switch a := &el.Attrs[i]; {
		case a.Name.Prefix == "xmlns":
			if a.Name.Local == PrefixEncoding {
				return false
			}
		case a.Name.Prefix == PrefixEncoding || strings.HasPrefix(a.Value, PrefixEncoding+":"):
			uses = true
		}
	}
	if uses {
		return true
	}
	for _, c := range el.Children {
		if ce, ok := c.(*xmldom.Element); ok && usesEncoding(ce) {
			return true
		}
	}
	return false
}

// encodingDecl is the one declaration an Envelope makes only on demand: the
// array encoder is its only user, and most messages carry no array.
const encodingDecl = ` xmlns:` + PrefixEncoding + `="` + NSEncoding + `"`

// Finish closes Body and Envelope and returns the document bytes. If the
// emitter was marked — soapenc's array encoder, a DOM subtree or a spliced
// reply that relies on the prefix — xmlns:SOAP-ENC is put where the Envelope
// start tag has always carried it, after xmlns:SOAP-ENV. The slice is owned
// by the encoder: valid until Release.
func (enc *StreamEncoder) Finish() ([]byte, error) {
	em := enc.em
	em.End() // Body
	em.End() // Envelope
	if err := em.Finish(); err != nil {
		return nil, err
	}
	if em.Marked() {
		em.Extend(len(encodingDecl))
		doc := em.Bytes()
		copy(doc[enc.encAt+len(encodingDecl):], doc[enc.encAt:])
		copy(doc[enc.encAt:], encodingDecl)
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

// EncodeEnvelope serializes a whole envelope, the drop-in replacement for
// Envelope.Encode into a fresh buffer. The returned bytes are valid until
// Release.
func (enc *StreamEncoder) EncodeEnvelope(env *Envelope) ([]byte, error) {
	enc.WriteEnvelope(env)
	return enc.Finish()
}

// AppendElementFor streams the fault body entry in the given version's
// layout, byte-identical to ElementFor serialized through the DOM. extra
// attributes (e.g. spi:id on per-item faults) are emitted right after the
// version-required ones, matching SetAttr-append order on the DOM path.
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
	// the same bytes as one SetText(PrefixEnvelope + ":" + code) — minus
	// the string concatenation.
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
	em.Start(nameFault12)
	em.Attr(nameXmlnsE12, NSEnvelope12)
	for _, a := range extra {
		em.Attr(a.Name, a.Value)
	}
	em.Start(nameCode12)
	em.Start(nameValue12)
	em.Text("env:")
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
		if usesEncoding(f.Detail) {
			em.Mark()
		}
		em.Start(nameDetail12)
		for _, n := range f.Detail.Children {
			xmldom.AppendNode(n, em)
		}
		em.End()
	}
	em.End()
}
