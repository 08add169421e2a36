package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmldom"
)

// newPlanWireSystem is newPlanSystem with the Echo and WeatherService
// operations the pinned plan shapes call besides Math's.
func newPlanWireSystem(t *testing.T, mutate func(*ServerConfig, *ClientConfig)) *system {
	t.Helper()
	return newPlanSystem(t, func(s *ServerConfig, c *ClientConfig) {
		echo := s.Container.MustAddService("Echo", "urn:spi:Echo", "returns its input")
		echo.MustRegister("echo", func(ctx *registry.Context, p []soapenc.Field) ([]soapenc.Field, error) {
			return p, nil
		}, "identity")
		weather := s.Container.MustAddService("WeatherService", "urn:spi:WeatherService", "city weather")
		weather.MustRegister("GetWeather", func(ctx *registry.Context, p []soapenc.Field) ([]soapenc.Field, error) {
			city, _ := p[0].Value.(string)
			return []soapenc.Field{soapenc.F("GetWeatherResult", "Sunny in "+city)}, nil
		}, "city weather")
		if mutate != nil {
			mutate(s, c)
		}
	})
}

// TestPlanResponseGoldens pins the server's reply to every pinned plan shape,
// in both envelope versions, byte for byte: on a Coupled server the steps
// complete in slot order.
func TestPlanResponseGoldens(t *testing.T) {
	sys := newPlanWireSystem(t, func(s *ServerConfig, c *ClientConfig) { s.Coupled = true })
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, shape := range planShapes {
			p := sys.client.NewPlan()
			shape.build(p)
			code, body := postDoc(t, sys, "/services/", v, writtenDocument(t, v, p.writeBody))
			if code != 200 {
				t.Errorf("%v/%s: status %d: %s", v, shape.name, code, body)
			}
			exactGolden(t, "wire", shape.name+"-response_"+corpusSuffix(v), body)
		}
	}
}

// planDoc is a request document whose Body holds the Execution_Plan
// start tag attrs and the steps.
func planDoc(v soap.Version, attrs, steps string) []byte {
	return []byte(`<s:Envelope xmlns:s="` + v.Namespace() + `"><s:Body>` +
		`<spi:Execution_Plan xmlns:spi="` + NSPack + `"` + attrs + `>` + steps +
		`</spi:Execution_Plan></s:Body></s:Envelope>`)
}

// Steps on Math for the hostile-plan table.
const (
	planConst    = `<m:Const xmlns:m="urn:spi:Math"><v>1</v></m:Const>`
	planFail     = `<m:Fail xmlns:m="urn:spi:Math"/>`
	planRefValue = `<m:Id xmlns:m="urn:spi:Math"><x><spi:ref spi:step="0" spi:result="value"/></x></m:Id>`
)

// planRefTo is a Math.Id step whose one parameter is the reference ref.
func planRefTo(ref string) string {
	return `<m:Id xmlns:m="urn:spi:Math"><x>` + ref + `</x></m:Id>`
}

// TestPlanHostileTable pins what the server answers to a damaged or hostile
// plan: the status, and the fault code and faultstring — of the whole
// message, or of the step named by id when the plan is answered with 200.
// An empty code on a 200 row means that step returned a result.
func TestPlanHostileTable(t *testing.T) {
	sys := newPlanWireSystem(t, nil)
	for _, tc := range []struct {
		name, target, attrs, steps string
		status                     int
		id                         int
		code, str                  string
		check                      func(t *testing.T, body []byte)
	}{
		{name: "empty", steps: "",
			status: 500, code: soap.FaultClient, str: "Execution_Plan has no steps"},
		{name: "non-number step", steps: planConst + planRefTo(`<spi:ref spi:step="one" spi:result="value"/>`),
			status: 500, code: soap.FaultClient, str: `step 1: bad reference step "one"`},
		{name: "negative step", steps: planConst + planRefTo(`<spi:ref spi:step="-1" spi:result="value"/>`),
			status: 500, code: soap.FaultClient, str: `step 1: bad reference step "-1"`},
		{name: "out-of-range step", steps: planConst + planRefTo(`<spi:ref spi:step="9" spi:result="value"/>`),
			status: 500, code: soap.FaultClient, str: `step 1: bad reference step "9"`},
		{name: "forward step", steps: planRefTo(`<spi:ref spi:step="1" spi:result="value"/>`) + planConst,
			status: 500, code: soap.FaultClient, str: "step 0 references step 1; references must point to earlier steps"},
		{name: "self step", steps: planConst + planRefTo(`<spi:ref spi:step="1" spi:result="value"/>`),
			status: 500, code: soap.FaultClient, str: "step 1 references step 1; references must point to earlier steps"},
		{name: "ref without result", steps: planConst + planRefTo(`<spi:ref spi:step="0"/>`),
			status: 500, code: soap.FaultClient, str: "step 1: reference without a result name"},
		{name: "step names no service", target: "/services/", steps: planConst,
			status: 500, code: soap.FaultClient, str: `step "Const" names no service`},
		{name: "rebound spi:id", steps: `<m:Const xmlns:m="urn:spi:Math" xmlns:spi="urn:other" spi:id="7"/>`,
			status: 500, code: soap.FaultClient, str: `step "Const": spi:id attribute in wrong namespace`},
		{name: "bad spi:id", steps: planConst + `<m:Const xmlns:m="urn:spi:Math" spi:id="x"/>`,
			status: 500, code: soap.FaultClient, str: `step "Const": bad spi:id "x"`},
		{name: "param does not decode", steps: planConst +
			`<m:Const xmlns:m="urn:spi:Math" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema">` +
			`<v xsi:type="xsd:int">many</v></m:Const>`,
			status: 500, code: soap.FaultClient, str: `step 1 param "v": soapenc: bad xsd:int "many"`},
		{name: "depends on a faulted step", steps: planFail + planRefValue,
			status: 200, id: 1, code: soap.FaultClient, str: "step 1 depends on step 0, which faulted: deliberate"},
		{name: "missing result", steps: planConst + planRefTo(`<spi:ref spi:step="0" spi:result="nope"/>`),
			status: 200, id: 1, code: soap.FaultClient, str: `step 1 references result "nope" of step 0, which has no such result`},
		{name: "batch attributes ignored", attrs: ` xmlns:m="urn:spi:Echo" spi:service="Echo"`, steps: planConst + planRefValue,
			status: 200, id: 1,
			check: func(t *testing.T, body []byte) {
				if open := `<spi:Parallel_Response xmlns:spi="` + NSPack + `">`; !bytes.Contains(body, []byte(open)) {
					t.Errorf("the response declares a default: %s", body)
				}
			}},
	} {
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			target := tc.target
			if target == "" {
				target = "/services/Math"
			}
			code, body := postDoc(t, sys, target, v, planDoc(v, tc.attrs, tc.steps))
			if code != tc.status {
				t.Errorf("%s/%v: status %d, want %d: %s", tc.name, v, code, tc.status, body)
				continue
			}
			gotCode, gotStr := "", ""
			results, err := readPackedReply(body, 4)
			var f *soap.Fault
			switch {
			case errors.As(err, &f):
				gotCode, gotStr = f.Code, f.String
			case err != nil:
				t.Errorf("%s/%v: %v: %s", tc.name, v, err, body)
				continue
			case results[tc.id] == nil:
				t.Errorf("%s/%v: step %d unanswered: %s", tc.name, v, tc.id, body)
				continue
			case results[tc.id].fault != nil:
				gotCode, gotStr = results[tc.id].fault.Code, results[tc.id].fault.String
			}
			if gotCode != tc.code || gotStr != tc.str {
				t.Errorf("%s/%v: fault %q %q, want %q %q", tc.name, v, gotCode, gotStr, tc.code, tc.str)
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		}
	}
}

// TestEntryInterceptorSeesPlanSteps: the entry interceptors run on every step
// of a plan, as on every entry of a batch — Index is the step's position and
// Packed is set — and a step they deny is the whole plan's fault: nothing
// runs, not even the steps before it.
func TestEntryInterceptorSeesPlanSteps(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	sys := newPlanWireSystem(t, func(s *ServerConfig, c *ClientConfig) {
		s.EntryInterceptors = []EntryInterceptor{func(entry *xmldom.Element, info *EntryInfo) (*xmldom.Element, *soap.Fault) {
			mu.Lock()
			seen = append(seen, fmt.Sprintf("%s %d %v", entry.Name.Local, info.Index, info.Packed))
			mu.Unlock()
			if entry.Name.Local == "echo" {
				return nil, soap.ClientFault("echo denied")
			}
			return nil, nil
		}}
	})
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		seen = nil
		p := sys.client.NewPlan()
		a := p.Add("Math", "Const", soapenc.F("v", int64(1)))
		p.Add("Echo", "echo", soapenc.F("x", a.Ref("value")))
		p.Add("Math", "Const", soapenc.F("v", int64(2)))
		code, body := postDoc(t, sys, "/services/", v, writtenDocument(t, v, p.writeBody))
		_, err := readPackedReply(body, 3)
		var f *soap.Fault
		if code != 500 || !errors.As(err, &f) || f.Code != soap.FaultClient || f.String != "echo denied" {
			t.Errorf("%v: %d %v, want 500 and the Client fault %q: %s", v, code, err, "echo denied", body)
		}
		if want := []string{"Const 0 true", "echo 1 true", "Const 2 true"}; !slices.Equal(seen, want) {
			t.Errorf("%v: the interceptor saw %q, want %q", v, seen, want)
		}
		if reqs := sys.server.Stats().Requests; reqs != 0 {
			t.Errorf("%v: a plan with a denied step ran %d operations, want 0", v, reqs)
		}
	}
}
