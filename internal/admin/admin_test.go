package admin

import (
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

// fieldsWith is sampleStats' GetStatsResponse parameters with the named
// field's value replaced by v, or with the field appended when the snapshot
// has none.
func fieldsWith(name string, v soapenc.Value) []soapenc.Field {
	fields := StatsFields(sampleStats())
	i := 0
	for i < len(fields) && fields[i].Name != name {
		i++
	}
	if i == len(fields) {
		fields = append(fields, soapenc.Field{Name: name})
	}
	fields[i].Value = v
	return fields
}

// TestStatsFromFieldsRejects: a snapshot whose values its readers cannot take
// is an error, never a reading. The bytes that do not decode at all, and a
// node's fault, are the exporter's rows (cmd/spiexporter).
func TestStatsFromFieldsRejects(t *testing.T) {
	bad := func(mutate func(*Stats)) []soapenc.Field {
		s := sampleStats()
		mutate(&s)
		return StatsFields(s)
	}
	cases := map[string][]soapenc.Field{
		"zero weight":               bad(func(s *Stats) { s.Weight = 0 }),
		"negative busy":             bad(func(s *Stats) { s.Busy = -1 }),
		"busy over pool":            bad(func(s *Stats) { s.Busy = s.Workers + 1 }),
		"negative queue":            bad(func(s *Stats) { s.QueueDepth = -5 }),
		"negative counter":          bad(func(s *Stats) { s.Envelopes = -1 }),
		"negative fault code count": bad(func(s *Stats) { s.FaultCodes[0].Count = -3 }),
		"nameless fault code":       bad(func(s *Stats) { s.FaultCodes[0].Code = "" }),
		"nameless op":               bad(func(s *Stats) { s.Ops[1].Op = "" }),
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
		"nil fault code item":     {"fault_codes", soapenc.Array{nil}},
	} {
		cases[name] = fieldsWith(v.field, v.value)
	}
	for name, fields := range cases {
		if s, err := StatsFromFields(fields); err == nil {
			t.Errorf("%s: read as %+v", name, s)
		}
	}
}

// TestStatsFromFieldsIgnoresUnknown: a field the reader does not know is
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
		got, err := StatsFromFields(fieldsWith(v.field, v.value))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want := sampleStats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats = %+v, want %+v", name, got, want)
		}
	}
}

func deployTest(t *testing.T) (*registry.Container, *statsSource, *State) {
	t.Helper()
	c := registry.NewContainer()
	src := &statsSource{s: sampleStats()}
	st := NewState()
	if err := st.SetWeight(4); err != nil {
		t.Fatal(err)
	}
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
