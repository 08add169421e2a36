package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// These tests pin the encode paths to committed bytes: the streamed
// Parallel_Response assembler to the fragments under testdata/parity/,
// captured when a tree-building assembler — the server-side assembler of §3.4
// as the server first had it — still wrote the same ones, and the full
// streamed server response to the buffered server's bytes end to end. Under
// randomized completion orders the entries are compared by spi:id (byID);
// in slot order, byte for byte.

// responseDefaults are the batch defaults the fragment comparisons run under:
// none, the namespace most sample results share, one that a single result
// has, and one nobody has.
var responseDefaults = []string{"", "urn:spi:Echo", "urn:spi:WeatherService", "urn:spi:Nobody"}

// fragmentGoldens names the fragment sampleResults assembles to under each
// of responseDefaults, in testdata/parity/.
var fragmentGoldens = []string{"fragment-no-default.xml", "fragment-echo-default.xml",
	"fragment-weather-default.xml", "fragment-unused-default.xml"}

// testNS resolves service namespaces the way the echo container does.
func testNS(service string) string { return "urn:spi:" + service }

// sampleResults builds a result set exercising every entry shape the
// assembler encodes: multi-typed params, empty results, per-item faults
// (minimal and fully populated, with arena-free Detail trees), and spi:id
// values that differ from slot order.
func sampleResults() []*rpcResult {
	detail := xmldom.NewElement(xmltext.Name{Local: "detail"})
	detail.AddElement(xmltext.Name{Local: "info"}).SetText("stage <3> & co")
	return []*rpcResult{
		{id: 0, service: "Echo", op: "echo", results: []soapenc.Field{
			soapenc.F("msg", "a<b&c]]>\"'"), soapenc.F("n", int64(-42)),
		}},
		{id: 7, service: "Echo", op: "echo", results: []soapenc.Field{
			soapenc.F("ok", true), soapenc.F("ratio", 0.25), soapenc.F("blob", []byte{0, 1, 2, 0xff}),
		}},
		{id: 2, service: "Echo", op: "slow", fault: &soap.Fault{
			Code: soap.FaultServer, String: "deliberate <failure>", Actor: "urn:actor", Detail: detail,
		}},
		{id: 3, service: "WeatherService", op: "GetWeather", results: []soapenc.Field{
			soapenc.F("GetWeatherResult", "Sunny in \tBeijing\n"),
		}},
		{id: 4, service: "Echo", op: "echo", results: nil},
		{id: 5, service: "Echo", op: "fail", fault: &soap.Fault{
			Code: FaultCodeTimeout, String: "deadline expired before Echo.fail finished",
		}},
		{id: 6, service: "Echo", op: "echo", results: []soapenc.Field{
			soapenc.F("when", time.Date(2026, 8, 5, 12, 34, 56, 789000000, time.UTC)),
			soapenc.F("nothing", nil),
		}},
	}
}

// assembleStreamed replays dispatchPacked's assembly: results are delivered
// into the collector from another goroutine in the given order while the
// collector writes each as it lands, then the closed fragment bytes are
// returned.
func assembleStreamed(t *testing.T, results []*rpcResult, order []int, defaultNS string) string {
	t.Helper()
	col := new(collector[*rpcResult]).init(len(results), len(results))
	asm := newPackedAssembler(defaultNS)
	defer asm.release()

	go func() {
		for _, slot := range order {
			col.put(slot, results[slot])
		}
	}()

	write := func(_ int, r *rpcResult) error { return asm.encodeEntry(r, testNS) }
	if err := col.drain(context.Background(), write, nil); err != nil {
		t.Fatalf("assembler failed: %v", err)
	}
	asm.em.End() // Parallel_Response
	if err := asm.em.Finish(); err != nil {
		t.Fatalf("fragment finish: %v", err)
	}
	return string(asm.em.Bytes())
}

func TestStreamAssemblerFragmentParity(t *testing.T) {
	results := sampleResults()
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0}, // slot 0 delivered last
	}
	for seed := int64(0); seed < 6; seed++ {
		order := rand.New(rand.NewSource(seed)).Perm(len(results))
		orders = append(orders, order)
	}
	for i, def := range responseDefaults {
		for k, order := range orders {
			got := []byte(assembleStreamed(t, results, order, def))
			if k == 0 {
				// Results that complete in slot order are written in it.
				exactGolden(t, "parity", fragmentGoldens[i], got)
			} else {
				parityGolden(t, fragmentGoldens[i], got)
			}
		}
	}
	if asm := newPackedAssembler(""); asm.itemFaults != 0 {
		t.Errorf("fresh assembler itemFaults = %d", asm.itemFaults)
	} else {
		asm.release()
	}
}

// TestStreamAssemblerPoolRecycling hammers the pooled fragment emitters from
// concurrent assemblers with distinct payloads; recycled buffers must never
// bleed one response's bytes into another. Run with -race.
func TestStreamAssemblerPoolRecycling(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 25; round++ {
				tag := fmt.Sprintf("g%d-r%d", g, round)
				results := []*rpcResult{
					{id: 0, service: "Echo", op: "echo", results: []soapenc.Field{soapenc.F("tag", tag)}},
					{id: 1, service: "Echo", op: "echo", results: []soapenc.Field{soapenc.F("n", int64(g*100+round))}},
					{id: 2, service: "Echo", op: "fail", fault: &soap.Fault{Code: soap.FaultServer, String: "boom " + tag}},
				}
				def := responseDefaults[round%len(responseDefaults)]
				// The batch default on Parallel_Response, restated by every
				// entry it is not the namespace of.
				declared, restated := "", ` xmlns:m="urn:spi:Echo"`
				if def != "" {
					declared = ` xmlns:m="` + def + `"`
				}
				if def == "urn:spi:Echo" {
					restated = ""
				}
				want := `<spi:Parallel_Response xmlns:spi="http://spi.ict.ac.cn/pack"` + declared + `>` +
					`<m:echoResponse` + restated + ` spi:id="0"><tag>` + tag + `</tag></m:echoResponse>` +
					`<m:echoResponse` + restated + ` spi:id="1"><n xsi:type="xsd:int">` + strconv.Itoa(g*100+round) + `</n></m:echoResponse>` +
					`<s:Fault spi:id="2"><faultcode>s:Server</faultcode><faultstring>boom ` + tag + `</faultstring></s:Fault>` +
					`</spi:Parallel_Response>`
				got := assembleStreamed(t, results, rng.Perm(len(results)), def)
				if !bytes.Equal(byID([]byte(got)), byID([]byte(want))) {
					t.Errorf("round %s diverged:\nstreamed: %s\nwant:     %s", tag, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// requestShapes are the batches whose request documents testdata/wire/ pins
// (TestRequestDocumentGoldens): what a
// batch shares (namespace, service) is hoisted onto Parallel_Method, so the
// interesting axes are how much is shared and who sets the default.
var requestShapes = []struct {
	name  string
	calls func() []batchEntry
}{
	{"echo16", func() []batchEntry {
		// Figure 5's regime: one service, one operation, sixteen times.
		calls := make([]batchEntry, 16)
		for i := range calls {
			calls[i] = batchEntry{service: "Echo", op: "echo",
				params: []soapenc.Field{soapenc.F("data", fmt.Sprintf("payload-%02d", i))}}
		}
		return calls
	}},
	{"travel", func() []batchEntry {
		// The travel agent's step 1 and 3 queries in one message: every
		// entry a different service, so every entry but the first overrides.
		var calls []batchEntry
		for _, v := range []string{"Airline1", "Airline2", "Airline3"} {
			calls = append(calls, batchEntry{service: v, op: "QueryFlights", params: []soapenc.Field{
				soapenc.F("from", "Beijing"), soapenc.F("to", "São Paulo")}})
		}
		for _, v := range []string{"Hotel1", "Hotel2", "Hotel3"} {
			calls = append(calls, batchEntry{service: v, op: "QueryRooms", params: []soapenc.Field{
				soapenc.F("city", "São Paulo"), soapenc.F("nights", int32(3))}})
		}
		return calls
	}},
	{"mixed", func() []batchEntry {
		return []batchEntry{
			{service: "Echo", op: "echo", params: []soapenc.Field{soapenc.F("msg", "x<y&z\""), soapenc.F("n", int64(9))}},
			{service: "WeatherService", op: "GetWeather", params: []soapenc.Field{soapenc.F("CityName", "São Paulo")}},
			{service: "Echo", op: "slow"},
			{service: "Echo", op: "echo", params: []soapenc.Field{soapenc.F("blob", []byte("raw\x00bytes")), soapenc.F("flag", false)}},
		}
	}},
	{"array", func() []batchEntry {
		// The one value that needs xmlns:SOAP-ENC on the Envelope.
		return []batchEntry{
			{service: "Echo", op: "echo", params: []soapenc.Field{soapenc.F("msg", "plain")}},
			{service: "Echo", op: "echo", params: []soapenc.Field{soapenc.F("list", soapenc.Array{int64(1), "two", soapenc.Array{}})}},
		}
	}},
	{"solo", func() []batchEntry {
		return []batchEntry{{service: "Echo", op: "echo", params: []soapenc.Field{soapenc.F("msg", "alone")}}}
	}},
	{"odd-first", func() []batchEntry {
		// The first entry sets the default, so an outlier in front makes
		// every other entry override it.
		return []batchEntry{
			{service: "WeatherService", op: "GetWeather", params: []soapenc.Field{soapenc.F("CityName", "Oslo")}},
			{service: "Echo", op: "echo", params: []soapenc.Field{soapenc.F("msg", "a")}},
			{service: "Echo", op: "echo", params: []soapenc.Field{soapenc.F("msg", "b")}},
		}
	}},
	{"shared-namespace", func() []batchEntry {
		// Two services under one namespace (Define): only spi:service varies.
		return []batchEntry{
			{service: "EchoA", op: "echo", params: []soapenc.Field{soapenc.F("msg", "a")}},
			{service: "EchoB", op: "echo", params: []soapenc.Field{soapenc.F("msg", "b")}},
		}
	}},
}

// TestStreamResponseParityE2E posts packed requests and requires the bytes
// pinned under testdata/parity/ (captured from the since-deleted buffered
// pipeline) — including per-item faults, slow entries that finish after the
// ones behind them, and spi:id overrides — as every reader takes them, and
// byte for byte from a Coupled server.
func TestStreamResponseParityE2E(t *testing.T) {
	for _, f := range []parityFeatures{{name: "bare"}, {name: "coupled", coupled: true}} {
		streamResponseParity(t, f)
	}
}

func streamResponseParity(t *testing.T, f parityFeatures) {
	sys := newSystem(t, parityConfig(f))

	docs := []struct{ name, doc string }{
		// slow entries first, so later echoes complete before them.
		{"e2e-slow-first", testEnv11 + `<SOAP-ENV:Body><spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">` +
			`<m:slow xmlns:m="urn:spi:Echo" spi:id="0" spi:service="Echo"><p>first</p></m:slow>` +
			`<m:slow xmlns:m="urn:spi:Echo" spi:id="1" spi:service="Echo"><p>second</p></m:slow>` +
			`<m:echo xmlns:m="urn:spi:Echo" spi:id="2" spi:service="Echo"><msg>a&amp;b</msg><n xsi:type="xsd:int" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema">5</n></m:echo>` +
			`<m:fail xmlns:m="urn:spi:Echo" spi:id="3" spi:service="Echo"/>` +
			`<m:GetWeather xmlns:m="urn:spi:WeatherService" spi:id="4" spi:service="WeatherService"><CityName>Oslo</CityName></m:GetWeather>` +
			`</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`},
		// spi:id values out of order relative to slots.
		{"e2e-id-override", testEnv11 + `<SOAP-ENV:Body><spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">` +
			`<m:echo xmlns:m="urn:spi:Echo" spi:id="9" spi:service="Echo"><msg>nine</msg></m:echo>` +
			`<m:echo xmlns:m="urn:spi:Echo" spi:id="1" spi:service="Echo"><msg>one</msg></m:echo>` +
			`<m:noSuchOp xmlns:m="urn:spi:Echo" spi:id="5" spi:service="Echo"/>` +
			`</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`},
		// Single unfaulted entry.
		{"e2e-solo", testEnv11 + `<SOAP-ENV:Body><spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">` +
			`<m:echo xmlns:m="urn:spi:Echo" spi:id="0" spi:service="Echo"><msg>solo</msg></m:echo>` +
			`</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`},
	}
	for _, d := range docs {
		resp, err := sys.client.http.Post("/services/", "text/xml", []byte(d.doc))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d, want 200", d.name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != soap.V11.ContentType() {
			t.Errorf("%s: content-type %q", d.name, ct)
		}
		if !strings.Contains(string(resp.Body), "Parallel_Response") {
			t.Errorf("%s: response is not packed: %s", d.name, resp.Body)
		}
		f.pin(t, d.name+"_11.xml", resp.Body)
	}
}
