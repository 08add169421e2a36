package soapenc

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/soap"
	"repro/internal/xmltext"
)

// The value writers: they stream a value's element straight into an
// xmltext.Emitter, so typed parameters cost zero allocations on the encode
// hot path. A scalar is <name xsi:type="xsd:…">text</name>, a string an
// untyped leaf, nil an empty element with xsi:nil="true", an Array
// xsi:type="SOAP-ENC:Array" then SOAP-ENC:arrayType="xsd:anyType[n]" over its
// <item>s, a Struct its fields as children in order.

var nameItem = xmltext.Name{Local: "item"}

// EncodeTo emits `<name>` carrying v into em. It fails on a value outside the
// closed set and on a struct field with an empty name, leaving em with what it
// had written. Every prefix it writes it also marks on em —
// xsi and xsd for a typed value, xsi for nil, SOAP-ENC besides for an Array,
// none for a string — so that whoever frames the document
// (soap.StreamEncoder.Finish) declares exactly those.
func EncodeTo(em *xmltext.Emitter, name string, v Value) error {
	return encodeTo(em, xmltext.Name{Local: name}, v)
}

// EncodeParamsTo emits each named parameter in order, failing on the first
// with an empty name.
func EncodeParamsTo(em *xmltext.Emitter, params []Field) error {
	for _, p := range params {
		if p.Name == "" {
			return fmt.Errorf("soapenc: parameter with empty name")
		}
		if err := encodeTo(em, xmltext.Name{Local: p.Name}, p.Value); err != nil {
			return err
		}
	}
	return nil
}

func encodeTo(em *xmltext.Emitter, name xmltext.Name, v Value) error {
	// Normalize the int widths first.
	switch n := v.(type) {
	case int:
		v = int64(n)
	case int32:
		v = int64(n)
	}
	// Scratch for number/time formatting; stays on the stack because the
	// emitter only copies out of it (vet-escapes pins this).
	var tmp [64]byte
	em.Start(name)
	switch v := v.(type) {
	case nil:
		writeNil(em)
	case string:
		// A value states its type only when its spelling cannot: every reader
		// takes an untyped leaf for a string.
		em.Text(v)
	case bool:
		writeType(em, "xsd:boolean")
		if v {
			em.RawString("true")
		} else {
			em.RawString("false")
		}
	case int64:
		writeType(em, intType(v))
		em.Raw(strconv.AppendInt(tmp[:0], v, 10))
	case float64:
		writeType(em, "xsd:double")
		em.Raw(AppendDouble(tmp[:0], v))
	case []byte:
		writeType(em, "xsd:base64Binary")
		base64.StdEncoding.Encode(em.Extend(base64.StdEncoding.EncodedLen(len(v))), v)
	case time.Time:
		writeType(em, "xsd:dateTime")
		em.Raw(v.UTC().AppendFormat(tmp[:0], time.RFC3339Nano))
	case Array:
		em.Mark(soap.DeclEncoding)
		writeType(em, "SOAP-ENC:Array") // arrayType below is the xsd: QName
		at := append(tmp[:0], "xsd:anyType["...)
		at = strconv.AppendInt(at, int64(len(v)), 10)
		at = append(at, ']')
		em.AttrRaw(encArrayTyp, at)
		for _, item := range v {
			if err := encodeTo(em, nameItem, item); err != nil {
				return err
			}
		}
	case *Struct:
		if v == nil {
			writeNil(em)
			break
		}
		for _, f := range v.Fields {
			if f.Name == "" {
				return fmt.Errorf("soapenc: struct field with empty name")
			}
			if err := encodeTo(em, xmltext.Name{Local: f.Name}, f.Value); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("soapenc: unsupported value type %T", v)
	}
	em.End()
	return nil
}

// writeType writes xsi:type and marks the two prefixes a typed value uses.
func writeType(em *xmltext.Emitter, qname string) {
	em.Mark(soap.DeclXSI | soap.DeclXSD)
	em.Attr(xsiTypeAttr, qname)
}

func writeNil(em *xmltext.Emitter) {
	em.Mark(soap.DeclXSI)
	em.Attr(xsiNilAttr, "true")
}

// AppendDouble renders a float in a form xsd:double accepts, including the
// special values. It is exported for template splicing (msgcache), which must
// render values exactly as the encoder does.
func AppendDouble(dst []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(dst, "NaN"...)
	case math.IsInf(f, 1):
		return append(dst, "INF"...)
	case math.IsInf(f, -1):
		return append(dst, "-INF"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}
