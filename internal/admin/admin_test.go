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
	for name, body := range cases {
		if _, err := ParseStatsResponse(body); err == nil {
			t.Errorf("%s: parsed without error", name)
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

func TestStatsFromFieldsIgnoresUnknown(t *testing.T) {
	fields := append(StatsFields(sampleStats()), soapenc.F("future_field", "whatever"))
	if _, err := StatsFromFields(fields); err != nil {
		t.Fatalf("unknown field rejected: %v", err)
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
