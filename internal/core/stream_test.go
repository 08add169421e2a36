package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/soap"
	"repro/internal/soapenc"
)

const testEnv11 = `<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">`

// postRaw sends raw bytes to the pack endpoint and decodes the response
// envelope.
func postRaw(t *testing.T, sys *system, doc string) (int, *soap.Envelope) {
	t.Helper()
	resp, err := sys.client.http.Post("/services/", "text/xml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.Decode(strings.NewReader(string(resp.Body)))
	if err != nil {
		t.Fatalf("response not an envelope: %v\n%s", err, resp.Body)
	}
	return resp.StatusCode, env
}

// TestStreamArenaIsolationE2E is the end-to-end leak check: many sequential
// and concurrent packed requests with distinct payloads over one server,
// every response carrying exactly its own request's values. Arena recycling
// between (and during) requests must never bleed one request's strings into
// another's response. Run with -race to catch pool misuse.
func TestStreamArenaIsolationE2E(t *testing.T) {
	sys := newSystem(t, nil)
	const rounds, width = 20, 8
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := sys.client.NewBatch()
				var calls []*Call
				for i := 0; i < width; i++ {
					payload := fmt.Sprintf("worker%d-round%d-item%d", g, r, i)
					calls = append(calls, batch.Add("Echo", "echo", soapenc.F("v", payload)))
				}
				if err := batch.Send(); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				for i, c := range calls {
					res, err := c.Wait()
					if err != nil {
						t.Errorf("call: %v", err)
						return
					}
					want := fmt.Sprintf("worker%d-round%d-item%d", g, r, i)
					if len(res) != 1 || !soapenc.Equal(res[0].Value, want) {
						t.Errorf("echo returned %v, want %q", res, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := sys.server.Stats(); st.PackedMessages == 0 {
		t.Error("no packed messages recorded — packed dispatch untested")
	}
}

// TestStreamMalformedTailFault checks documents whose envelope breaks after
// well-formed packed entries: the client still sees the whole-message
// malformed-envelope fault.
func TestStreamMalformedTailFault(t *testing.T) {
	sys := newSystem(t, nil)
	pack := `<spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">` +
		`<m:echo xmlns:m="urn:spi:Echo" spi:id="0" spi:service="Echo"><v xsi:type="xsd:string">x</v></m:echo>` +
		`</spi:Parallel_Method>`
	for _, doc := range []string{
		// Header after Body.
		testEnv11 + `<SOAP-ENV:Body>` + pack + `</SOAP-ENV:Body><SOAP-ENV:Header/></SOAP-ENV:Envelope>`,
		// Mismatched end tag after the pack.
		testEnv11 + `<SOAP-ENV:Body>` + pack + `</SOAP-ENV:Wrong></SOAP-ENV:Envelope>`,
		// Truncated document.
		testEnv11 + `<SOAP-ENV:Body>` + pack,
	} {
		status, env := postRaw(t, sys, doc)
		if status != 500 {
			t.Errorf("status = %d, want 500 for %s", status, doc)
		}
		f := env.Fault()
		if f == nil || f.Code != soap.FaultClient || !strings.Contains(f.String, "malformed envelope") {
			t.Errorf("fault = %+v for %s", f, doc)
		}
	}
}

// TestStreamExtraBodyEntryFault checks the count error: a packed entry
// followed by a second body entry yields the "expected exactly one body
// entry" fault.
func TestStreamExtraBodyEntryFault(t *testing.T) {
	sys := newSystem(t, nil)
	doc := testEnv11 + `<SOAP-ENV:Body>` +
		`<spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">` +
		`<m:echo xmlns:m="urn:spi:Echo" spi:id="0" spi:service="Echo"/>` +
		`</spi:Parallel_Method>` +
		`<m:extra xmlns:m="urn:spi:Echo"/>` +
		`</SOAP-ENV:Body></SOAP-ENV:Envelope>`
	status, env := postRaw(t, sys, doc)
	if status != 500 {
		t.Errorf("status = %d, want 500", status)
	}
	f := env.Fault()
	if f == nil || f.Code != soap.FaultClient || !strings.Contains(f.String, "expected exactly one body entry, got 2") {
		t.Errorf("fault = %+v", f)
	}
}

// TestStreamCoupledPacked runs a packed message in coupled mode, where
// entries execute serially on the protocol thread as they are decoded.
func TestStreamCoupledPacked(t *testing.T) {
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) { s.Coupled = true })
	batch := sys.client.NewBatch()
	c1 := batch.Add("Echo", "echo", soapenc.F("a", "1"))
	c2 := batch.Add("Echo", "fail")
	c3 := batch.Add("Echo", "echo", soapenc.F("b", "2"))
	if err := batch.Send(); err != nil {
		t.Fatal(err)
	}
	if res, err := c1.Wait(); err != nil || !soapenc.Equal(res[0].Value, "1") {
		t.Errorf("c1 = %v %v", res, err)
	}
	if _, err := c2.Wait(); err == nil {
		t.Error("c2 should fault")
	}
	if res, err := c3.Wait(); err != nil || !soapenc.Equal(res[0].Value, "2") {
		t.Errorf("c3 = %v %v", res, err)
	}
}
