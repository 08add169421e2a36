package admin

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// statsSource is a fixed-snapshot Source for tests.
type statsSource struct{ s Stats }

func (src *statsSource) AdminStats() Stats { return src.s }

func sampleStats() Stats {
	return Stats{
		Role:       "server",
		Weight:     4,
		Draining:   false,
		Workers:    32,
		Busy:       7,
		Idle:       25,
		QueueDepth: 3,
		QueueCap:   1024,
		Inflight:   10,
		Envelopes:  12345,
		Requests:   23456,
		Packed:     11111,
		Faults:     17,
		ItemFaults: 42,
		FaultCodes: []FaultCode{
			{Code: "Server.Timeout", Count: 12},
			{Code: "Server.Busy", Count: 5},
		},
		Ops: []OpStat{
			{Op: "Echo.echo", Count: 9000, MeanUs: 850, P50Us: 800, P90Us: 1200, P99Us: 2500},
			{Op: "Weather.get", Count: 120, MeanUs: 1500, P50Us: 1400, P90Us: 2100, P99Us: 4200},
		},
	}
}

// encodeStatsResponse renders the response envelope the way the server
// dispatcher would, so ParseStatsResponse sees realistic bytes.
func encodeStatsResponse(t *testing.T, v soap.Version, s Stats) []byte {
	t.Helper()
	doc, err := requestDocument(v, OpGetStats+"Response", StatsFields(s))
	if err != nil {
		t.Fatalf("encode stats: %v", err)
	}
	return doc
}

func TestStatsRoundTrip(t *testing.T) {
	want := sampleStats()
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		body := encodeStatsResponse(t, v, want)
		got, err := ParseStatsResponse(body)
		if err != nil {
			t.Fatalf("%v: ParseStatsResponse: %v", v, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: stats = %+v, want %+v", v, got, want)
		}
	}
}

func TestParseStatsResponseRejects(t *testing.T) {
	bad := func(name string, mutate func(*Stats)) []byte {
		s := sampleStats()
		mutate(&s)
		return encodeStatsResponse(t, soap.V11, s)
	}
	cases := map[string][]byte{
		"not xml":          []byte("not xml at all"),
		"not an envelope":  []byte(`<?xml version="1.0"?><root/>`),
		"zero weight":      bad("zero weight", func(s *Stats) { s.Weight = 0 }),
		"negative busy":    bad("negative busy", func(s *Stats) { s.Busy = -1 }),
		"busy over pool":   bad("busy over pool", func(s *Stats) { s.Busy = s.Workers + 1 }),
		"negative queue":   bad("negative queue", func(s *Stats) { s.QueueDepth = -5 }),
		"negative counter": bad("negative counter", func(s *Stats) { s.Envelopes = -1 }),
		"negative fault code count": bad("negative fault code count",
			func(s *Stats) { s.FaultCodes[0].Count = -3 }),
		"nameless fault code": bad("nameless fault code",
			func(s *Stats) { s.FaultCodes[0].Code = "" }),
	}
	for name, v := range map[string]struct {
		field string
		value soapenc.Value
	}{
		"role as int":            {"role", int64(1)},
		"weight as string":       {"weight", "4"},
		"workers as float":       {"workers", 32.0},
		"draining as int":        {"draining", int64(0)},
		"nil role":               {"role", nil},
		"nil count":              {"requests", nil},
		"nil ops":                {"ops", nil},
		"nil fault_codes":        {"fault_codes", nil},
		"ops item not a struct":  {"ops", soapenc.Array{"Echo.echo"}},
		"nil ops item":           {"ops", soapenc.Array{nil}},
		"op item with no op":     {"ops", soapenc.Array{soapenc.NewStruct(soapenc.F("count", int64(1)))}},
		"op item with nil op":    {"ops", soapenc.Array{soapenc.NewStruct(soapenc.F("op", nil))}},
		"op item with nil count": {"ops", soapenc.Array{soapenc.NewStruct(soapenc.F("op", "Echo.echo"), soapenc.F("count", nil))}},
		"negative op quantile":   {"ops", soapenc.Array{soapenc.NewStruct(soapenc.F("op", "Echo.echo"), soapenc.F("p99_us", int64(-1)))}},
		"fault code with nil count": {"fault_codes",
			soapenc.Array{soapenc.NewStruct(soapenc.F("code", "Server.Busy"), soapenc.F("count", nil))}},
		"fault code not a struct": {"fault_codes", soapenc.Array{"Server.Busy"}},
	} {
		cases[name] = statsDocWith(t, v.field, v.value)
	}
	for name, body := range cases {
		if _, err := ParseStatsResponse(body); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// statsDocWith encodes sampleStats with the named wire field's value
// replaced by v, or with the field appended when the snapshot has none.
func statsDocWith(t *testing.T, name string, v soapenc.Value) []byte {
	t.Helper()
	fields := StatsFields(sampleStats())
	i := 0
	for i < len(fields) && fields[i].Name != name {
		i++
	}
	if i == len(fields) {
		fields = append(fields, soapenc.Field{Name: name})
	}
	fields[i].Value = v
	doc, err := requestDocument(soap.V11, OpGetStats+"Response", fields)
	if err != nil {
		t.Fatalf("encode stats with %s: %v", name, err)
	}
	return doc
}

// TestStatsFromFieldsIgnoresUnknown: a field the parser does not know is
// skipped whatever its value, at the top level and inside an op item, so a
// newer node's snapshot reads as the fields this one knows.
func TestStatsFromFieldsIgnoresUnknown(t *testing.T) {
	sample := StatsFields(sampleStats())
	ops := sample[len(sample)-1].Value.(soapenc.Array)
	op := ops[0].(*soapenc.Struct)
	extraOp := soapenc.NewStruct(append(op.Fields, soapenc.F("p999_us", int64(-1)))...)
	for name, v := range map[string]struct {
		field string
		value soapenc.Value
	}{
		"unknown string":   {"future_field", "whatever"},
		"unknown nil":      {"future", nil},
		"unknown negative": {"future", int64(-7)},
		"unknown struct":   {"future", soapenc.NewStruct(soapenc.F("a", int64(-1)), soapenc.F("b", nil))},
		"unknown array":    {"future", soapenc.Array{nil, "x"}},
		"unknown op field": {"ops", soapenc.Array{extraOp, ops[1]}},
	} {
		doc := statsDocWith(t, v.field, v.value)
		got, err := ParseStatsResponse(doc)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want := sampleStats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats = %+v, want %+v", name, got, want)
		}
	}
}

// TestGatewayStatsBytes pins the snapshot a gateway without an app stage
// advertises: no ops recorded and no faults, so ops goes out as an empty
// array and fault_codes not at all, whether the slices are nil or empty.
func TestGatewayStatsBytes(t *testing.T) {
	const want = `<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/" xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema"><s:Body><m:GetStatsResponse xmlns:m="urn:spi:Admin"><role>gateway</role><weight xsi:type="xsd:int">1</weight><draining xsi:type="xsd:boolean">true</draining><workers xsi:type="xsd:int">0</workers><busy xsi:type="xsd:int">0</busy><idle xsi:type="xsd:int">0</idle><queue_depth xsi:type="xsd:int">0</queue_depth><queue_cap xsi:type="xsd:int">0</queue_cap><inflight xsi:type="xsd:int">2</inflight><envelopes xsi:type="xsd:int">5</envelopes><requests xsi:type="xsd:int">40</requests><packed xsi:type="xsd:int">5</packed><faults xsi:type="xsd:int">0</faults><item_faults xsi:type="xsd:int">0</item_faults><ops xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType[0]"/></m:GetStatsResponse></s:Body></s:Envelope>`
	gw := Stats{Role: "gateway", Weight: 1, Draining: true, Inflight: 2, Envelopes: 5, Requests: 40, Packed: 5}
	empty := gw
	empty.FaultCodes, empty.Ops = []FaultCode{}, []OpStat{}
	parsed := gw
	parsed.Ops = []OpStat{}
	for name, s := range map[string]Stats{"nil slices": gw, "empty slices": empty} {
		doc := encodeStatsResponse(t, soap.V11, s)
		if string(doc) != want {
			t.Errorf("%s: encoded\n%s\nwant\n%s", name, doc, want)
		}
		got, err := ParseStatsResponse(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, parsed) {
			t.Errorf("%s: parsed %#v, want %#v", name, got, parsed)
		}
	}
}

func TestParseStatsResponseFault(t *testing.T) {
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(soap.V11, nil)
	soap.ServerFault("stats unavailable").AppendElementFor(enc.Emitter(), soap.V11)
	doc, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	_, err = ParseStatsResponse(doc)
	var got *soap.Fault
	if !errors.As(err, &got) {
		t.Fatalf("error %v (%T), want *soap.Fault", err, err)
	}
	if got.String != "stats unavailable" {
		t.Errorf("fault string = %q", got.String)
	}
}

func deployTest(t *testing.T) (*registry.Container, *statsSource, *State) {
	t.Helper()
	c := registry.NewContainer()
	src := &statsSource{s: sampleStats()}
	st := NewState(4)
	if err := Deploy(c, src, st); err != nil {
		t.Fatal(err)
	}
	return c, src, st
}

func TestDeployGetStats(t *testing.T) {
	c, _, _ := deployTest(t)
	if !c.Idempotent(ServiceName, OpGetStats) {
		t.Error("GetStats not marked idempotent")
	}
	if c.Idempotent(ServiceName, OpSetState) {
		t.Error("SetState must not be idempotent")
	}
	op, fault := c.Lookup(ServiceName, OpGetStats)
	if fault != nil {
		t.Fatal(fault)
	}
	out, fault := registry.Invoke(op, &registry.Context{}, nil)
	if fault != nil {
		t.Fatal(fault)
	}
	got, err := StatsFromFields(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Role != "server" || got.Workers != 32 || len(got.Ops) != 2 {
		t.Errorf("unexpected snapshot %+v", got)
	}
}

func TestDeploySetState(t *testing.T) {
	c, _, st := deployTest(t)
	op, fault := c.Lookup(ServiceName, OpSetState)
	if fault != nil {
		t.Fatal(fault)
	}
	out, fault := registry.Invoke(op, &registry.Context{}, []soapenc.Field{
		soapenc.F("weight", int64(9)), soapenc.F("drain", true),
	})
	if fault != nil {
		t.Fatal(fault)
	}
	res := soapenc.NewStruct(out...)
	w, _ := res.Get("weight")
	d, _ := res.Get("draining")
	if w != int64(9) || d != true {
		t.Errorf("response = %+v", out)
	}
	if w, d := st.Snapshot(); w != 9 || !d {
		t.Errorf("state = (%d, %v), want (9, true)", w, d)
	}

	// Partial update: only resume, weight untouched.
	out, fault = registry.Invoke(op, &registry.Context{}, []soapenc.Field{soapenc.F("drain", false)})
	if fault != nil {
		t.Fatal(fault)
	}
	res = soapenc.NewStruct(out...)
	w, _ = res.Get("weight")
	d, _ = res.Get("draining")
	if w != int64(9) || d != false {
		t.Errorf("partial response = %+v", out)
	}

	// Invalid weight is a Client fault and leaves state untouched.
	_, fault = registry.Invoke(op, &registry.Context{}, []soapenc.Field{soapenc.F("weight", int64(0))})
	if fault == nil || fault.Code != soap.FaultClient {
		t.Fatalf("weight=0 fault = %+v, want Client", fault)
	}
	_, fault = registry.Invoke(op, &registry.Context{}, []soapenc.Field{soapenc.F("weight", "heavy")})
	if fault == nil || fault.Code != soap.FaultClient {
		t.Fatalf("weight=string fault = %+v, want Client", fault)
	}
	if w, _ := st.Snapshot(); w != 9 {
		t.Errorf("weight mutated to %d by rejected updates", w)
	}
}

func TestRequestBuilders(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		re, err := soap.Decode(bytes.NewReader(GetStatsRequest(v)))
		if err != nil {
			t.Fatalf("%v: round-trip: %v", v, err)
		}
		if re.Version != v || re.Body[0].Name.Local != OpGetStats || re.Body[0].Namespace() != Namespace {
			t.Errorf("%v: %v body entry {%s}%s", v, re.Version, re.Body[0].Namespace(), re.Body[0].Name.Local)
		}

		drain := true
		doc, err := SetStateRequest(v, "", 3, &drain)
		if err != nil {
			t.Fatal(err)
		}
		re, err = soap.Decode(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		params, err := soapenc.DecodeParams(re.Body[0])
		if err != nil {
			t.Fatal(err)
		}
		ps := soapenc.NewStruct(params...)
		w, _ := ps.Get("weight")
		d, _ := ps.Get("drain")
		if w != int64(3) || d != true {
			t.Errorf("%v: SetState params = %+v", v, params)
		}
	}
	// A poll allocates nothing for its request body.
	if allocs := testing.AllocsPerRun(100, func() { GetStatsRequest(soap.V11) }); allocs != 0 {
		t.Errorf("GetStatsRequest allocates %v times", allocs)
	}
}
