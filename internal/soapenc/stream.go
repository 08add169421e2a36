package soapenc

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/xmltext"
)

// Streaming counterparts of Encode/EncodeParams: they write the same bytes
// the DOM path serializes to, directly into an xmltext.Emitter, so typed
// parameters cost zero allocations on the encode hot path. Differential
// tests pin byte parity against the DOM path for every value type.

var nameItem = xmltext.Name{Local: "item"}

// EncodeTo emits `<name>` carrying v into em, byte-identical to Encode
// followed by serialization. The xsd and xsi prefixes must be in scope at the
// insertion point, as inside any SOAP envelope; an Array marks em so that
// whoever frames the document (soap.StreamEncoder.Finish) declares SOAP-ENC.
func EncodeTo(em *xmltext.Emitter, name string, v Value) error {
	return encodeTo(em, xmltext.Name{Local: name}, v)
}

// EncodeParamsTo emits each named parameter in order, the streaming form
// of EncodeParams.
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
	// Normalize the int widths first (the DOM path recurses for these).
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
		em.Attr(xsiNilAttr, "true")
	case string:
		em.Attr(xsiTypeAttr, "xsd:string")
		em.Text(v)
	case bool:
		em.Attr(xsiTypeAttr, "xsd:boolean")
		if v {
			em.RawString("true")
		} else {
			em.RawString("false")
		}
	case int64:
		if v >= math.MinInt32 && v <= math.MaxInt32 {
			em.Attr(xsiTypeAttr, "xsd:int")
		} else {
			em.Attr(xsiTypeAttr, "xsd:long")
		}
		em.Raw(strconv.AppendInt(tmp[:0], v, 10))
	case float64:
		em.Attr(xsiTypeAttr, "xsd:double")
		em.Raw(AppendDouble(tmp[:0], v))
	case []byte:
		em.Attr(xsiTypeAttr, "xsd:base64Binary")
		base64.StdEncoding.Encode(em.Extend(base64.StdEncoding.EncodedLen(len(v))), v)
	case time.Time:
		em.Attr(xsiTypeAttr, "xsd:dateTime")
		em.Raw(v.UTC().AppendFormat(tmp[:0], time.RFC3339Nano))
	case Array:
		em.Mark() // the one user of SOAP-ENC: the Envelope declares it on demand
		em.Attr(xsiTypeAttr, "SOAP-ENC:Array")
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
			em.Attr(xsiNilAttr, "true")
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

// AppendDouble is formatDouble in append form, exported for template
// splicing (msgcache), which must render values exactly as the encoder
// does.
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
