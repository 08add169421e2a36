// Package bind maps Go structs onto the SOAP parameter model by
// reflection, in the style of net/rpc and encoding/json: services declare
// plain typed request/response structs and handler functions, and the
// binding layer converts to and from the dynamic soapenc values the wire
// uses.
//
// This is the programming model the Axis-era toolkits generated from WSDL
// with code generators; Go's reflection lets the same convenience come
// from the type system directly:
//
//	type HelloReq struct {
//	    Name string `soap:"name"`
//	}
//	type HelloResp struct {
//	    Greeting string `soap:"greeting"`
//	}
//	svc.Register("Hello", bind.MustHandler(func(ctx *registry.Context, req HelloReq) (HelloResp, error) {
//	    return HelloResp{Greeting: "hello, " + req.Name}, nil
//	}), "typed greeting")
//
// Supported field types: string, bool, all int/uint sizes (uint64 values
// above MaxInt64 are rejected), float32/64, []byte, time.Time, slices,
// pointers (nil maps to xsi:nil), and nested structs. The `soap` tag
// renames a field; `soap:"-"` skips it; unexported fields are skipped.
package bind

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"repro/internal/registry"
	"repro/internal/soapenc"
)

var (
	timeType  = reflect.TypeOf(time.Time{})
	bytesType = reflect.TypeOf([]byte(nil))
)

func marshalValue(rv reflect.Value) (soapenc.Value, error) {
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return nil, nil
		}
		return marshalValue(rv.Elem())
	case reflect.String:
		return rv.String(), nil
	case reflect.Bool:
		return rv.Bool(), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rv.Int(), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u := rv.Uint()
		if u > math.MaxInt64 {
			return nil, fmt.Errorf("bind: uint value %d overflows the wire integer type", u)
		}
		return int64(u), nil
	case reflect.Float32, reflect.Float64:
		return rv.Float(), nil
	case reflect.Slice:
		if rv.IsNil() {
			// nil slices map to xsi:nil so they round-trip distinctly
			// from empty slices (which become zero-item arrays).
			return nil, nil
		}
		if rv.Type() == bytesType {
			return append([]byte(nil), rv.Bytes()...), nil
		}
		arr := make(soapenc.Array, rv.Len())
		for i := 0; i < rv.Len(); i++ {
			v, err := marshalValue(rv.Index(i))
			if err != nil {
				return nil, err
			}
			arr[i] = v
		}
		return arr, nil
	case reflect.Array:
		arr := make(soapenc.Array, rv.Len())
		for i := 0; i < rv.Len(); i++ {
			v, err := marshalValue(rv.Index(i))
			if err != nil {
				return nil, err
			}
			arr[i] = v
		}
		return arr, nil
	case reflect.Struct:
		if rv.Type() == timeType {
			return rv.Interface().(time.Time), nil
		}
		fields, err := MarshalFields(rv.Interface())
		if err != nil {
			return nil, err
		}
		return &soapenc.Struct{Fields: fields}, nil
	default:
		return nil, fmt.Errorf("bind: cannot marshal %s", rv.Type())
	}
}

// MarshalFields converts a struct value into an ordered field list — the
// form RPC parameters and results take.
func MarshalFields(v any) ([]soapenc.Field, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, nil
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return nil, fmt.Errorf("bind: MarshalFields needs a struct, got %s", rv.Type())
	}
	rt := rv.Type()
	var out []soapenc.Field
	for i := 0; i < rt.NumField(); i++ {
		sf := rt.Field(i)
		name, skip := fieldName(sf)
		if skip {
			continue
		}
		val, err := marshalValue(rv.Field(i))
		if err != nil {
			return nil, fmt.Errorf("bind: field %s: %w", sf.Name, err)
		}
		out = append(out, soapenc.Field{Name: name, Value: val})
	}
	return out, nil
}

// fieldName resolves the wire name of a struct field from the `soap` tag.
func fieldName(sf reflect.StructField) (name string, skip bool) {
	if !sf.IsExported() {
		return "", true
	}
	tag := sf.Tag.Get("soap")
	if tag == "-" {
		return "", true
	}
	if tag != "" {
		if i := strings.IndexByte(tag, ','); i >= 0 {
			tag = tag[:i]
		}
		if tag != "" {
			return tag, false
		}
	}
	return sf.Name, false
}

func unmarshalValue(v soapenc.Value, rv reflect.Value) error {
	if v == nil {
		// nil maps to the zero value; pointers become nil.
		rv.SetZero()
		return nil
	}
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
		return unmarshalValue(v, rv.Elem())
	}
	switch val := v.(type) {
	case string:
		if rv.Kind() != reflect.String {
			return typeErr(v, rv)
		}
		rv.SetString(val)
	case bool:
		if rv.Kind() != reflect.Bool {
			return typeErr(v, rv)
		}
		rv.SetBool(val)
	case int64:
		switch rv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if rv.OverflowInt(val) {
				return fmt.Errorf("bind: %d overflows %s", val, rv.Type())
			}
			rv.SetInt(val)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			if val < 0 || rv.OverflowUint(uint64(val)) {
				return fmt.Errorf("bind: %d does not fit %s", val, rv.Type())
			}
			rv.SetUint(uint64(val))
		case reflect.Float32, reflect.Float64:
			rv.SetFloat(float64(val))
		default:
			return typeErr(v, rv)
		}
	case float64:
		switch rv.Kind() {
		case reflect.Float32, reflect.Float64:
			rv.SetFloat(val)
		default:
			return typeErr(v, rv)
		}
	case []byte:
		if rv.Type() != bytesType {
			return typeErr(v, rv)
		}
		rv.SetBytes(append([]byte(nil), val...))
	case time.Time:
		if rv.Type() != timeType {
			return typeErr(v, rv)
		}
		rv.Set(reflect.ValueOf(val))
	case soapenc.Array:
		if rv.Kind() != reflect.Slice {
			return typeErr(v, rv)
		}
		out := reflect.MakeSlice(rv.Type(), len(val), len(val))
		for i, item := range val {
			if err := unmarshalValue(item, out.Index(i)); err != nil {
				return fmt.Errorf("bind: element %d: %w", i, err)
			}
		}
		rv.Set(out)
	case *soapenc.Struct:
		if rv.Kind() != reflect.Struct || rv.Type() == timeType {
			return typeErr(v, rv)
		}
		return UnmarshalFields(val.Fields, rv.Addr().Interface())
	default:
		return fmt.Errorf("bind: unsupported wire value %T", v)
	}
	return nil
}

func typeErr(v soapenc.Value, rv reflect.Value) error {
	return fmt.Errorf("bind: cannot store wire %T into Go %s", v, rv.Type())
}

// UnmarshalFields fills a struct from an ordered field list, matching by
// wire name. Unknown wire fields are ignored (lenient, like the era's
// toolkits); missing ones leave the zero value.
func UnmarshalFields(fields []soapenc.Field, dst any) error {
	rv := reflect.ValueOf(dst)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("bind: UnmarshalFields needs a non-nil pointer, got %T", dst)
	}
	rv = rv.Elem()
	if rv.Kind() != reflect.Struct {
		return fmt.Errorf("bind: UnmarshalFields needs a struct pointer, got %T", dst)
	}
	rt := rv.Type()
	byName := make(map[string]int, rt.NumField())
	for i := 0; i < rt.NumField(); i++ {
		name, skip := fieldName(rt.Field(i))
		if !skip {
			byName[name] = i
		}
	}
	for _, f := range fields {
		idx, ok := byName[f.Name]
		if !ok {
			continue
		}
		if err := unmarshalValue(f.Value, rv.Field(idx)); err != nil {
			return fmt.Errorf("bind: field %q: %w", f.Name, err)
		}
	}
	return nil
}

// Handler adapts a typed function to the registry.Handler signature. fn
// must be:
//
//	func(ctx *registry.Context, req ReqStruct) (RespStruct, error)
//
// where ReqStruct and RespStruct are struct types (or pointers to them).
func Handler(fn any) (registry.Handler, error) {
	fv := reflect.ValueOf(fn)
	ft := fv.Type()
	if ft.Kind() != reflect.Func {
		return nil, fmt.Errorf("bind: Handler needs a function, got %T", fn)
	}
	ctxType := reflect.TypeOf((*registry.Context)(nil))
	errType := reflect.TypeOf((*error)(nil)).Elem()
	if ft.NumIn() != 2 || ft.In(0) != ctxType {
		return nil, fmt.Errorf("bind: handler must be func(*registry.Context, Req) (Resp, error)")
	}
	if ft.NumOut() != 2 || !ft.Out(1).Implements(errType) || ft.Out(1) != errType {
		return nil, fmt.Errorf("bind: handler must return (Resp, error)")
	}
	reqType := ft.In(1)
	reqStruct := reqType
	for reqStruct.Kind() == reflect.Pointer {
		reqStruct = reqStruct.Elem()
	}
	if reqStruct.Kind() != reflect.Struct {
		return nil, fmt.Errorf("bind: request type %s is not a struct", reqType)
	}
	respType := ft.Out(0)
	respStruct := respType
	for respStruct.Kind() == reflect.Pointer {
		respStruct = respStruct.Elem()
	}
	if respStruct.Kind() != reflect.Struct {
		return nil, fmt.Errorf("bind: response type %s is not a struct", respType)
	}

	return func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		reqPtr := reflect.New(reqStruct)
		if err := UnmarshalFields(params, reqPtr.Interface()); err != nil {
			return nil, err
		}
		arg := reqPtr.Elem()
		if reqType.Kind() == reflect.Pointer {
			arg = reqPtr
		}
		out := fv.Call([]reflect.Value{reflect.ValueOf(ctx), arg})
		if errV := out[1]; !errV.IsNil() {
			return nil, errV.Interface().(error)
		}
		return MarshalFields(out[0].Interface())
	}, nil
}

// MustHandler is Handler that panics on a bad signature, for static wiring.
func MustHandler(fn any) registry.Handler {
	h, err := Handler(fn)
	if err != nil {
		panic(err)
	}
	return h
}

// CallTyped performs the client-side half of the typed binding: it
// marshals a request struct into parameters and unmarshals the results
// into a response struct. caller abstracts any of the client's invocation
// surfaces (Call, AutoBatcher.Call, ...).
func CallTyped(caller func(params ...soapenc.Field) ([]soapenc.Field, error), req, resp any) error {
	params, err := MarshalFields(req)
	if err != nil {
		return err
	}
	results, err := caller(params...)
	if err != nil {
		return err
	}
	return UnmarshalFields(results, resp)
}
