package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmldom"
)

// The response-framing table: what a server answers to each shape of packed
// request, pinned under testdata/parity/respframing-*, and decoded back the
// way the client's dispatcher does. Every request here declares its default
// on Parallel_Method, as a Batch does; the long spellings are the rest of
// the parity suite's business.

// respFramingCase is one request shape.
type respFramingCase struct {
	name string
	wsse bool
	// doc builds the request; sign is set in the WSSE cell.
	doc func(t *testing.T, v soap.Version, sign bool) []byte
	// ids are the spi:id values the response carries, in slot order; faults
	// marks the slots answered with a per-item fault; ns is each slot's
	// service namespace ("" on a fault).
	ids    []int
	faults []bool
	ns     []string
}

// wireDoc reads a request golden of testdata/wire/.
func wireDoc(t *testing.T, name string, v soap.Version) []byte {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("testdata", "wire", name+"_"+corpusSuffix(v)))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// pmDoc frames a hand-written Parallel_Method, signed when asked.
func pmDoc(pm string) func(*testing.T, soap.Version, bool) []byte {
	return func(t *testing.T, v soap.Version, sign bool) []byte {
		t.Helper()
		el, err := xmldom.ParseString(pm)
		if err != nil {
			t.Fatal(err)
		}
		return parityDoc(t, v, sign, el)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

var respFramingCases = []respFramingCase{
	// Figure 5's regime: sixteen entries, one namespace.
	{name: "echo16",
		doc: func(t *testing.T, v soap.Version, _ bool) []byte { return wireDoc(t, "echo16", v) },
		ids: seq(16), faults: make([]bool, 16), ns: repeat("urn:spi:Echo", 16)},
	// The travel agent's queries: six services, the first one's the default.
	{name: "travel",
		doc: func(t *testing.T, v soap.Version, _ bool) []byte { return wireDoc(t, "travel", v) },
		ids: seq(6), faults: make([]bool, 6),
		ns: []string{"urn:spi:Airline1", "urn:spi:Airline2", "urn:spi:Airline3", "urn:spi:Hotel1", "urn:spi:Hotel2", "urn:spi:Hotel3"}},
	// The entry in slot 0 faults: nothing downstream may lean on it.
	{name: "fault-first",
		doc: pmDoc(framingPM + echoNS + toEcho + `><m:fail/><m:echo` + echoArgs + `<m:echo` + echoArgs + framingEnd),
		ids: seq(3), faults: []bool{true, false, false}, ns: []string{"", "urn:spi:Echo", "urn:spi:Echo"}},
	// The default names a service nobody deployed: its entries fault, the
	// entry that overrides it runs and says whose response it is.
	{name: "unregistered-default",
		doc: pmDoc(framingPM + ` xmlns:m="urn:spi:Nobody" spi:service="Nobody"><m:echo` + echoArgs +
			`<m:echo` + echoNS + toEcho + echoArgs + framingEnd),
		ids: seq(2), faults: []bool{true, false}, ns: []string{"", "urn:spi:Echo"}},
	// An explicit id that is not the slot is echoed.
	{name: "explicit-id",
		doc: pmDoc(framingPM + echoNS + toEcho + `><m:echo spi:id="7"` + echoArgs + `<m:echo` + echoArgs + framingEnd),
		ids: []int{7, 1}, faults: make([]bool, 2), ns: repeat("urn:spi:Echo", 2)},
	// A signed request: verified over the body as sent, answered the same.
	{name: "wsse", wsse: true,
		doc: pmDoc(framingPM + echoNS + toEcho + `><m:echo` + echoArgs +
			`<m:GetWeather` + weatherNS + toWeather + weatherArgs + framingEnd),
		ids: seq(2), faults: make([]bool, 2), ns: []string{"urn:spi:Echo", "urn:spi:WeatherService"}},
	// Entries finish in an order that changes from run to run.
	{name: "jitter",
		doc: pmDoc(framingPM + echoNS + toEcho + `><m:jitter` + `><message>first</message></m:jitter>` +
			`<m:jitter/><m:GetWeather` + weatherNS + toWeather + weatherArgs + `<m:jitter/><m:jitter/>` + framingEnd),
		ids: seq(5), faults: make([]bool, 5),
		ns: []string{"urn:spi:Echo", "urn:spi:Echo", "urn:spi:WeatherService", "urn:spi:Echo", "urn:spi:Echo"}},
}

// respFramingConfig deploys what the table calls beyond the echo container:
// the travel agent's services as identities, and an Echo operation that
// finishes after a random few hundred microseconds.
func respFramingConfig(f parityFeatures) func(*ServerConfig, *ClientConfig) {
	return func(s *ServerConfig, c *ClientConfig) {
		parityConfig(f)(s, c)
		identity := func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			return params, nil
		}
		for i := 1; i <= 3; i++ {
			for _, kind := range []struct{ service, op string }{{"Airline", "QueryFlights"}, {"Hotel", "QueryRooms"}} {
				name := kind.service + strconv.Itoa(i)
				s.Container.MustAddService(name, "urn:spi:"+name, "travel agent vendor").MustRegister(kind.op, identity, "identity")
			}
		}
		echo, _ := s.Container.Service("Echo")
		echo.MustRegister("jitter", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			time.Sleep(time.Duration(rand.Intn(400)) * time.Microsecond)
			return params, nil
		}, "identity, after a random pause")
	}
}

func TestPackedResponseFraming(t *testing.T) {
	for _, f := range []parityFeatures{{name: "bare"}, {name: "wsse", wsse: true},
		{name: "coupled", coupled: true}, {name: "wsse-coupled", wsse: true, coupled: true}} {
		sys := newSystem(t, respFramingConfig(f))
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			for _, tc := range respFramingCases {
				if tc.wsse != f.wsse {
					continue
				}
				rounds := 1
				if tc.name == "jitter" {
					rounds = 20
				}
				for round := 0; round < rounds; round++ {
					label := fmt.Sprintf("%v/%s round %d", v, tc.name, round)
					code, body := postDoc(t, sys, "/services/", v, tc.doc(t, v, f.wsse))
					if code != 200 {
						t.Fatalf("%s: status %d: %s", label, code, body)
					}
					f.pin(t, "respframing-"+tc.name+"_"+corpusSuffix(v), body)
					checkPackedResponse(t, label, body, tc)
				}
			}
		}
	}
}

// checkPackedResponse decodes a response as the client does and holds it to
// what the case promised.
func checkPackedResponse(t *testing.T, label string, body []byte, tc respFramingCase) {
	t.Helper()
	env, err := soap.Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: response does not parse: %v", label, err)
	}
	if len(env.Body) != 1 || !isPackedResponse(env.Body[0]) {
		t.Fatalf("%s: response is not a %s: %s", label, ElemParallelResponse, body)
	}
	results, err := readPackedReply(body, slices.Max(tc.ids)+1)
	if err != nil {
		t.Fatalf("%s: client refuses the response: %v", label, err)
	}
	if len(results) != len(tc.ids) {
		t.Fatalf("%s: %d results, want %d", label, len(results), len(tc.ids))
	}
	// Entries go out in the order their work completes: each is matched to
	// its slot by the spi:id it carries, and every slot is answered once.
	slotOf := make(map[string]int, len(tc.ids))
	for slot, id := range tc.ids {
		slotOf[strconv.Itoa(id)] = slot
	}
	for _, entry := range env.Body[0].ChildElements() {
		// benchmark/loadgen_test.go checks that the load generator routes by
		// id, not by position, by swapping spi:id="0" and spi:id="1" in a live
		// reply: ids are positional on the request, but the response keeps
		// every one.
		v, _ := entry.Attr(attrID)
		slot, ok := slotOf[v]
		if !ok {
			t.Fatalf("%s: an entry carries spi:id %q, want one of %v once each", label, v, tc.ids)
		}
		delete(slotOf, v)
		res := results[tc.ids[slot]]
		if res == nil {
			t.Fatalf("%s: no result under id %d", label, tc.ids[slot])
		}
		if (res.fault != nil) != tc.faults[slot] {
			t.Errorf("%s: slot %d fault = %v, want faulted %v", label, slot, res.fault, tc.faults[slot])
		}
		if !tc.faults[slot] && entry.Namespace() != tc.ns[slot] {
			t.Errorf("%s: slot %d answers in namespace %q, want %q", label, slot, entry.Namespace(), tc.ns[slot])
		}
	}
}
