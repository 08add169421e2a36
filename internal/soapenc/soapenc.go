// Package soapenc implements SOAP 1.1 section-5 style typed parameter
// encoding: the conversion between Go values and xsi:type-annotated XML
// elements.
//
// The value model is deliberately small and closed — it is the set of types
// an RPC parameter can take on the wire:
//
//	nil        -> xsi:nil="true"
//	string     -> untyped leaf
//	bool       -> xsd:boolean
//	int64      -> xsd:int / xsd:long (narrowest that fits)
//	float64    -> xsd:double
//	[]byte     -> xsd:base64Binary
//	time.Time  -> xsd:dateTime
//	Array      -> SOAP-ENC:Array of items
//	*Struct    -> untyped element with named child fields
//
// A value states its type only when its spelling cannot: decoding dispatches
// on xsi:type, and an element without one is decided by structure (child
// elements present -> *Struct, otherwise string), which is how the
// loosely-typed toolkits of the era behaved — so the writers leave a string
// untyped, and a message of strings uses neither the xsi nor the xsd prefix.
// A peer's xsd:string is read as before.
package soapenc

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/soap"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Value is one SOAP-encodable value. See the package comment for the closed
// set of permitted dynamic types.
type Value any

// Array is an ordered sequence of values, encoded as a SOAP-ENC:Array.
type Array []Value

// Struct is an ordered set of named fields, encoded as child elements.
type Struct struct {
	Fields []Field
}

// Field is one named member of a Struct (and also one named RPC parameter).
type Field struct {
	Name  string
	Value Value
}

// NewStruct builds a Struct from alternating name/value pairs, a convenience
// for literals in services and tests.
func NewStruct(fields ...Field) *Struct {
	return &Struct{Fields: fields}
}

// F is shorthand for constructing a Field.
func F(name string, v Value) Field { return Field{Name: name, Value: v} }

// Get returns the value of the first field with the given name.
func (s *Struct) Get(name string) (Value, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f.Value, true
		}
	}
	return nil, false
}

// GetString returns the named field as a string, or "" if absent/mistyped.
func (s *Struct) GetString(name string) string {
	v, _ := s.Get(name)
	str, _ := v.(string)
	return str
}

// GetInt returns the named field as an int64, or 0 if absent/mistyped.
func (s *Struct) GetInt(name string) int64 {
	v, _ := s.Get(name)
	n, _ := v.(int64)
	return n
}

// GetFloat returns the named field as a float64, or 0 if absent/mistyped.
func (s *Struct) GetFloat(name string) float64 {
	v, _ := s.Get(name)
	f, _ := v.(float64)
	return f
}

// GetBool returns the named field as a bool, or false if absent/mistyped.
func (s *Struct) GetBool(name string) bool {
	v, _ := s.Get(name)
	b, _ := v.(bool)
	return b
}

// intType returns the QName of the narrowest xsd integer type that holds n.
func intType(n int64) string {
	if n >= math.MinInt32 && n <= math.MaxInt32 {
		return soap.PrefixXSD + ":int"
	}
	return soap.PrefixXSD + ":long"
}

var (
	xsiTypeAttr = xmltext.Name{Prefix: soap.PrefixXSI, Local: "type"}
	xsiNilAttr  = xmltext.Name{Prefix: soap.PrefixXSI, Local: "nil"}
	encArrayTyp = xmltext.Name{Prefix: soap.PrefixEncoding, Local: "arrayType"}
)

func parseDouble(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "INF":
		return math.Inf(1), nil
	case "-INF":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// Decode converts an element back to a Value, dispatching on xsi:type.
func Decode(el *xmldom.Element) (Value, error) {
	// xsi:nil
	for _, a := range el.Attrs {
		if a.Name.Local != "nil" {
			continue
		}
		isXSI, err := inXSI(el, a)
		if err != nil {
			return nil, err
		}
		if isXSI && (a.Value == "true" || a.Value == "1") {
			return nil, nil
		}
	}
	ts, ok, err := typeOf(el)
	if err != nil {
		return nil, err
	}
	if !ok {
		// No xsi:type: decide structurally.
		if hasElementChild(el) {
			return decodeStruct(el)
		}
		return el.Text(), nil
	}
	ns, local := ts.ns, ts.local
	switch {
	case ns == soap.NSXSD:
		return decodeXSD(el, local)
	case ns == soap.NSEncoding && local == "Array":
		return decodeArray(el)
	default:
		// Unknown type annotation: fall back to structural decoding, like
		// the lenient toolkits did.
		if hasElementChild(el) {
			return decodeStruct(el)
		}
		return el.Text(), nil
	}
}

// hasElementChild reports whether el has an element child, without
// materializing the ChildElements slice.
func hasElementChild(el *xmldom.Element) bool {
	for _, c := range el.Children {
		if _, ok := c.(*xmldom.Element); ok {
			return true
		}
	}
	return false
}

type typeRef struct{ ns, local string }

// typeOf resolves the element's xsi:type attribute to a (namespace, local)
// pair. A QName whose prefix is bound nowhere is an error, not an untyped
// element: a SOAP-ENC:Array cut loose from its declaration would otherwise
// decode as a struct of items.
func typeOf(el *xmldom.Element) (typeRef, bool, error) {
	for _, a := range el.Attrs {
		if a.Name.Local != "type" {
			continue
		}
		if isXSI, err := inXSI(el, a); err != nil {
			return typeRef{}, false, err
		} else if !isXSI {
			continue
		}
		qn := xmltext.ParseName(strings.TrimSpace(a.Value))
		uri, ok := el.ResolvePrefix(qn.Prefix)
		if !ok {
			return typeRef{}, false, fmt.Errorf("soapenc: xsi:type %q on <%s>: prefix %q is not bound to a namespace",
				a.Value, el.Name.Local, qn.Prefix)
		}
		return typeRef{ns: uri, local: qn.Local}, true, nil
	}
	return typeRef{}, false, nil
}

// inXSI reports whether attribute a of el — a type or a nil — is in the
// schema-instance namespace. A prefix bound nowhere is an error, the
// attribute-name half of typeOf's rule: an xsi:type="xsd:int" whose envelope
// forgot to declare xsi would otherwise decode as the string it annotates.
func inXSI(el *xmldom.Element, a xmltext.Attr) (bool, error) {
	uri, ok := el.ResolvePrefix(a.Name.Prefix)
	if !ok && a.Name.Prefix != "" {
		return false, fmt.Errorf("soapenc: attribute %s on <%s>: prefix %q is not bound to a namespace",
			a.Name, el.Name.Local, a.Name.Prefix)
	}
	return ok && uri == soap.NSXSI, nil
}

func decodeXSD(el *xmldom.Element, local string) (Value, error) {
	text := el.Text()
	switch local {
	case "string", "anyURI", "QName", "normalizedString", "token":
		return text, nil
	case "boolean":
		switch strings.TrimSpace(text) {
		case "true", "1":
			return true, nil
		case "false", "0":
			return false, nil
		}
		return nil, fmt.Errorf("soapenc: bad xsd:boolean %q", text)
	case "int", "long", "short", "byte", "integer", "unsignedInt", "unsignedShort":
		n, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("soapenc: bad xsd:%s %q", local, text)
		}
		return n, nil
	case "double", "float", "decimal":
		f, err := parseDouble(strings.TrimSpace(text))
		if err != nil {
			return nil, fmt.Errorf("soapenc: bad xsd:%s %q", local, text)
		}
		return f, nil
	case "base64Binary":
		b, err := base64.StdEncoding.DecodeString(strings.TrimSpace(text))
		if err != nil {
			return nil, fmt.Errorf("soapenc: bad xsd:base64Binary: %v", err)
		}
		return b, nil
	case "dateTime":
		ts, err := time.Parse(time.RFC3339Nano, strings.TrimSpace(text))
		if err != nil {
			return nil, fmt.Errorf("soapenc: bad xsd:dateTime %q", text)
		}
		return ts, nil
	default:
		return nil, fmt.Errorf("soapenc: unsupported xsd type %q", local)
	}
}

func decodeArray(el *xmldom.Element) (Value, error) {
	items := el.ChildElements()
	arr := make(Array, 0, len(items))
	for _, item := range items {
		v, err := Decode(item)
		if err != nil {
			return nil, err
		}
		arr = append(arr, v)
	}
	return arr, nil
}

func decodeStruct(el *xmldom.Element) (Value, error) {
	s := &Struct{}
	for _, c := range el.ChildElements() {
		v, err := Decode(c)
		if err != nil {
			return nil, err
		}
		s.Fields = append(s.Fields, Field{Name: c.Name.Local, Value: v})
	}
	return s, nil
}

// DecodeParams decodes every child element of el as a named parameter.
// It walks el.Children directly rather than materializing a ChildElements
// slice — this runs once per entry on both hot decode paths.
func DecodeParams(el *xmldom.Element) ([]Field, error) {
	n := 0
	for _, c := range el.Children {
		if _, ok := c.(*xmldom.Element); ok {
			n++
		}
	}
	params := make([]Field, 0, n)
	for _, c := range el.Children {
		ce, ok := c.(*xmldom.Element)
		if !ok {
			continue
		}
		v, err := Decode(ce)
		if err != nil {
			return nil, err
		}
		params = append(params, Field{Name: ce.Name.Local, Value: v})
	}
	return params, nil
}

// Equal reports deep semantic equality of two values. Times compare with
// time.Time.Equal; NaNs compare equal to each other (so round-trip
// properties hold).
func Equal(a, b Value) bool {
	switch av := a.(type) {
	case nil:
		return b == nil
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case int64:
		bv, ok := b.(int64)
		return ok && av == bv
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return false
		}
		if math.IsNaN(av) && math.IsNaN(bv) {
			return true
		}
		return av == bv
	case []byte:
		bv, ok := b.([]byte)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
		return true
	case time.Time:
		bv, ok := b.(time.Time)
		return ok && av.Equal(bv)
	case Array:
		bv, ok := b.(Array)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !Equal(av[i], bv[i]) {
				return false
			}
		}
		return true
	case *Struct:
		bv, ok := b.(*Struct)
		if !ok || len(av.Fields) != len(bv.Fields) {
			return false
		}
		for i := range av.Fields {
			if av.Fields[i].Name != bv.Fields[i].Name || !Equal(av.Fields[i].Value, bv.Fields[i].Value) {
				return false
			}
		}
		return true
	}
	return false
}
