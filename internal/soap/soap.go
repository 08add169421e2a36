// Package soap implements the SOAP 1.1 envelope: construction, parsing,
// header blocks and faults. One reader, the StreamDecoder, interprets every
// envelope; Decode is its whole-document form on the heap.
//
// It follows the subset of the SOAP 1.1 specification that RPC-style web
// services of the paper's era actually used — an Envelope with an optional
// Header and a mandatory Body whose entries are RPC request/response
// elements or a Fault. Typed parameter encoding lives in package soapenc;
// the packed Parallel_Method extension lives in package core.
package soap

import (
	"fmt"
	"io"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Namespace URIs and conventional prefixes of the SOAP 1.1 stack.
const (
	// NSEnvelope is the SOAP 1.1 envelope namespace.
	NSEnvelope = "http://schemas.xmlsoap.org/soap/envelope/"
	// NSEncoding is the SOAP 1.1 encoding namespace (section 5 encoding).
	NSEncoding = "http://schemas.xmlsoap.org/soap/encoding/"
	// NSXSI is the XML Schema instance namespace (xsi:type, xsi:nil).
	NSXSI = "http://www.w3.org/2001/XMLSchema-instance"
	// NSXSD is the XML Schema datatypes namespace (xsd:int, xsd:string, ...).
	NSXSD = "http://www.w3.org/2001/XMLSchema"

	// PrefixEnvelope is the one letter every writer binds the envelope
	// namespace to in both versions, as WCF does. Readers bind by URI, so a
	// peer's SOAP-ENV (the paper's Figure 4), soapenv or env reads the same.
	PrefixEnvelope = "s"
	// PrefixEncoding is the conventional encoding prefix.
	PrefixEncoding = "SOAP-ENC"
	// PrefixXSI is the conventional xsi prefix.
	PrefixXSI = "xsi"
	// PrefixXSD is the conventional xsd prefix.
	PrefixXSD = "xsd"
)

// Envelope is a SOAP message: optional header blocks plus body entries.
type Envelope struct {
	// Version is the envelope version (V11 unless set or parsed otherwise).
	Version Version
	// Header holds the header blocks, in order. Nil means no Header element.
	Header []*xmldom.Element
	// Body holds the body entries, in order. An RPC message has exactly one;
	// a fault message has a single Fault element (see Fault method).
	Body []*xmldom.Element
}

// New returns an empty envelope.
func New() *Envelope { return &Envelope{} }

// Encode serializes the envelope to w, in one Write: its header blocks and
// body entries streamed by a StreamEncoder, which declares on the root what
// they use. No XML declaration is written: it would restate what
// Content-Type's charset says on every message, and WS-I Basic Profile obliges
// receivers to accept one, not senders to send it.
func (env *Envelope) Encode(w io.Writer) error {
	enc := NewStreamEncoder()
	defer enc.Release()
	doc, err := enc.EncodeEnvelope(env)
	if err != nil {
		return err
	}
	_, err = w.Write(doc)
	return err
}

// Decode parses a SOAP 1.1 or SOAP 1.2 envelope from r into heap trees: it
// reads the document whole and decodes it on a pooled StreamDecoder, every
// entry completed, for callers that keep the envelope past the exchange.
func Decode(r io.Reader) (*Envelope, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	d := AcquireStreamDecoder(b, nil)
	defer d.Release()
	if err := d.ReadPreamble(); err != nil {
		return nil, err
	}
	env, err := d.Finish()
	if err != nil {
		return nil, err
	}
	// Release clears the decoder's own Envelope; the trees are the heap's.
	out := *env
	return &out, nil
}

// VersionMismatchError reports an Envelope element in an unrecognized
// namespace — per SOAP 1.1 §4.4, the receiver must answer with a
// VersionMismatch fault.
type VersionMismatchError struct {
	Namespace string
}

// Error implements the error interface.
func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("soap: envelope namespace %q is neither SOAP 1.1 nor SOAP 1.2", e.Namespace)
}

// MustUnderstandHeaders returns the header blocks flagged with
// s:mustUnderstand="1". A receiver that does not recognize one of
// them is required to fault with a MustUnderstand fault code.
func (env *Envelope) MustUnderstandHeaders() []*xmldom.Element {
	var out []*xmldom.Element
	nsEnv := env.Version.Namespace()
	for _, h := range env.Header {
		for _, a := range h.Attrs {
			if a.Name.Local != "mustUnderstand" {
				continue
			}
			if uri, ok := h.ResolvePrefix(a.Name.Prefix); ok && uri == nsEnv {
				if a.Value == "1" || a.Value == "true" {
					out = append(out, h)
				}
			}
		}
	}
	return out
}

// Fault returns the fault carried by the envelope body, or nil if the
// message is not a fault. Codes are normalized to their SOAP 1.1 names
// (Client/Server) regardless of envelope version.
func (env *Envelope) Fault() *Fault {
	if len(env.Body) != 1 {
		return nil
	}
	el := env.Body[0]
	if !el.Is(env.Version.Namespace(), "Fault") {
		return nil
	}
	if env.Version == V12 {
		return parseFault12(el)
	}
	return ParseFault(el)
}

// ParseFault decodes a Fault element in the SOAP 1.1 layout: the body of a
// SOAP 1.1 fault message, or a per-item fault of a packed response, which
// keeps that layout in either version.
func ParseFault(el *xmldom.Element) *Fault {
	f := &Fault{}
	if c := el.Child("", "faultcode"); c != nil {
		// The fault code is a QName in the envelope namespace by convention;
		// store just the local part ("Client", "Server", ...).
		f.Code = xmltext.ParseName(c.Text()).Local
	}
	if c := el.Child("", "faultstring"); c != nil {
		f.String = c.Text()
	}
	if c := el.Child("", "faultactor"); c != nil {
		f.Actor = c.Text()
	}
	if c := el.Child("", "detail"); c != nil {
		f.Detail = c
	}
	return f
}

// parseFault12 decodes a SOAP 1.2 Fault element.
func parseFault12(el *xmldom.Element) *Fault {
	f := &Fault{}
	if code := el.Child(NSEnvelope12, "Code"); code != nil {
		if v := code.Child(NSEnvelope12, "Value"); v != nil {
			f.Code = faultCode11(xmltext.ParseName(v.Text()).Local)
		}
	}
	if reason := el.Child(NSEnvelope12, "Reason"); reason != nil {
		if tx := reason.Child(NSEnvelope12, "Text"); tx != nil {
			f.String = tx.Text()
		}
	}
	if node := el.Child(NSEnvelope12, "Node"); node != nil {
		f.Actor = node.Text()
	}
	if d := el.Child(NSEnvelope12, "Detail"); d != nil {
		f.Detail = d
	}
	return f
}
