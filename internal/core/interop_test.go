package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/soapenc"
)

// Interoperability corpus: envelopes as other SOAP 1.1 toolkits of the
// paper's era spelled them. The server must accept all of these shapes —
// the paper's whole premise is that heterogeneous clients (Axis, gSOAP,
// .NET, Perl) talk to one container. Each entry POSTs raw bytes at the
// server and checks the response.
func TestInteropEnvelopeShapes(t *testing.T) {
	sys := newSystem(t, nil)

	cases := []struct {
		name   string
		target string
		body   string
		// wantResult is a substring expected in a 200 response body.
		wantResult string
		// wantFault is the expected fault code for rejected messages.
		wantFault string
	}{
		{
			name:   "axis style, prefixed everything",
			target: "/services/Echo",
			body: `<?xml version="1.0" encoding="UTF-8"?>
<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"
                  xmlns:xsd="http://www.w3.org/2001/XMLSchema"
                  xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
  <soapenv:Body>
    <ns1:echo xmlns:ns1="urn:spi:Echo">
      <data xsi:type="xsd:string">axis flavoured</data>
    </ns1:echo>
  </soapenv:Body>
</soapenv:Envelope>`,
			wantResult: "axis flavoured",
		},
		{
			name:   "gsoap style, default namespace body entry",
			target: "/services/Echo",
			body: `<?xml version="1.0" encoding="UTF-8"?>
<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">
<SOAP-ENV:Body><echo xmlns="urn:spi:Echo"><data>gsoap flavoured</data></echo></SOAP-ENV:Body>
</SOAP-ENV:Envelope>`,
			wantResult: "gsoap flavoured",
		},
		{
			name:   "dotnet style, untyped parameters, no xml declaration",
			target: "/services/Echo",
			body: `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
  <soap:Body>
    <echo xmlns="urn:spi:Echo"><data>dotnet flavoured</data></echo>
  </soap:Body>
</soap:Envelope>`,
			wantResult: "dotnet flavoured",
		},
		{
			name:   "header present but ignorable",
			target: "/services/Echo",
			body: `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">
  <e:Header><Session xmlns="urn:vendor">abc</Session></e:Header>
  <e:Body><echo xmlns="urn:spi:Echo"><data>with header</data></echo></e:Body>
</e:Envelope>`,
			wantResult: "with header",
		},
		{
			name:   "cdata payload",
			target: "/services/Echo",
			body: `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">
  <e:Body><echo xmlns="urn:spi:Echo"><data><![CDATA[<raw & unescaped>]]></data></echo></e:Body>
</e:Envelope>`,
			wantResult: "&lt;raw &amp; unescaped&gt;",
		},
		{
			name:   "packed message with explicit per-entry namespaces",
			target: "/services",
			body: `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">
  <e:Body>
    <p:Parallel_Method xmlns:p="http://spi.ict.ac.cn/pack">
      <a:echo xmlns:a="urn:spi:Echo" xmlns:spi="http://spi.ict.ac.cn/pack" spi:id="0" spi:service="Echo"><data>first</data></a:echo>
      <b:GetWeather xmlns:b="urn:spi:WeatherService" xmlns:spi="http://spi.ict.ac.cn/pack" spi:id="1" spi:service="WeatherService"><CityName>Beijing</CityName></b:GetWeather>
    </p:Parallel_Method>
  </e:Body>
</e:Envelope>`,
			wantResult: "Sunny in Beijing",
		},
		{
			name:   "soap 1.2 envelope accepted",
			target: "/services/Echo",
			body: `<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">
  <env:Body><echo xmlns="urn:spi:Echo"><data>one point two</data></echo></env:Body>
</env:Envelope>`,
			wantResult: "one point two",
		},
		{
			name:      "html error page instead of xml",
			target:    "/services/Echo",
			body:      `<html><body>503 Service Unavailable</body></html>`,
			wantFault: soap.FaultClient,
		},
		{
			name:   "empty body",
			target: "/services/Echo",
			body: `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">
  <e:Body/>
</e:Envelope>`,
			wantFault: soap.FaultClient,
		},
		{
			name:   "two body entries rejected",
			target: "/services/Echo",
			body: `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">
  <e:Body><echo xmlns="urn:spi:Echo"/><echo xmlns="urn:spi:Echo"/></e:Body>
</e:Envelope>`,
			wantFault: soap.FaultClient,
		},
		{
			name:   "doctype smuggling rejected",
			target: "/services/Echo",
			body: `<!DOCTYPE lolz [<!ENTITY lol "lol">]>
<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">
  <e:Body><echo xmlns="urn:spi:Echo"/></e:Body>
</e:Envelope>`,
			wantFault: soap.FaultClient,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := sys.client.http.Post(tc.target, "text/xml; charset=utf-8", []byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantFault != "" {
				if resp.StatusCode != 500 {
					t.Fatalf("status = %d, want 500 fault (body %s)", resp.StatusCode, truncate(resp.Body, 200))
				}
				env, err := soap.Decode(bytes.NewReader(resp.Body))
				if err != nil {
					t.Fatalf("fault response not SOAP: %v", err)
				}
				f := env.Fault()
				if f == nil || f.Code != tc.wantFault {
					t.Fatalf("fault = %v, want code %s", f, tc.wantFault)
				}
				return
			}
			if resp.StatusCode != 200 {
				t.Fatalf("status = %d: %s", resp.StatusCode, truncate(resp.Body, 300))
			}
			if !strings.Contains(string(resp.Body), tc.wantResult) {
				t.Errorf("response missing %q:\n%s", tc.wantResult, resp.Body)
			}
		})
	}
}

func TestSOAP12EndToEnd(t *testing.T) {
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		c.SOAP12 = true
	})
	res, err := sys.client.Call("Echo", "echo", soapenc.F("data", "v12"))
	if err != nil {
		t.Fatal(err)
	}
	if !soapenc.Equal(res[0].Value, "v12") {
		t.Errorf("result = %v", res)
	}
	// The response must come back as SOAP 1.2, with the 1.2 media type.
	resp, err := sys.client.http.Post("/services/Echo", soap.V12.ContentType(),
		[]byte(`<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">
		  <env:Body><echo xmlns="urn:spi:Echo"><data>x</data></echo></env:Body></env:Envelope>`))
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/soap+xml") {
		t.Errorf("content type = %q, want application/soap+xml", ct)
	}
	if !strings.Contains(string(resp.Body), soap.NSEnvelope12) {
		t.Errorf("response not in SOAP 1.2 namespace:\n%s", resp.Body)
	}

	// Faults come back in 1.2 format with mapped codes.
	_, err = sys.client.Call("Echo", "fail")
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != soap.FaultServer {
		t.Errorf("1.2 fault = %v", err)
	}
	_, err = sys.client.Call("NoSuchService", "op")
	if !errors.As(err, &f) || f.Code != soap.FaultClient {
		t.Errorf("1.2 client fault = %v", err)
	}

	// Packed messages work over 1.2 too.
	b := sys.client.NewBatch()
	c1 := b.Add("Echo", "echo", soapenc.F("data", "p1"))
	c2 := b.Add("Echo", "echo", soapenc.F("data", "p2"))
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	if r, err := c1.Wait(); err != nil || !soapenc.Equal(r[0].Value, "p1") {
		t.Errorf("packed 1.2 call 1 = %v, %v", r, err)
	}
	if r, err := c2.Wait(); err != nil || !soapenc.Equal(r[0].Value, "p2") {
		t.Errorf("packed 1.2 call 2 = %v, %v", r, err)
	}
}

func TestUnknownEnvelopeVersionGetsVersionMismatch(t *testing.T) {
	sys := newSystem(t, nil)
	resp, err := sys.client.http.Post("/services/Echo", "text/xml",
		[]byte(`<e:Envelope xmlns:e="urn:soap:99"><e:Body><op/></e:Body></e:Envelope>`))
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.Decode(bytes.NewReader(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	f := env.Fault()
	if f == nil || f.Code != soap.FaultVersionMismatch {
		t.Errorf("fault = %v, want VersionMismatch", f)
	}
}

// The response to a foreign-shaped request must itself be a valid SOAP
// envelope that round-trips through our decoder.
func TestInteropResponsesAreWellFormed(t *testing.T) {
	sys := newSystem(t, nil)
	body := `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">
	  <soapenv:Body><echo xmlns="urn:spi:Echo"><data>x</data></echo></soapenv:Body>
	</soapenv:Envelope>`
	resp, err := sys.client.http.Post("/services/Echo", "text/xml", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.Decode(bytes.NewReader(resp.Body))
	if err != nil {
		t.Fatalf("response does not decode: %v\n%s", err, resp.Body)
	}
	if len(env.Body) != 1 || env.Body[0].Name.Local != "echoResponse" {
		t.Errorf("response body = %v", env.Body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/xml") {
		t.Errorf("content type = %q", ct)
	}
}

// Large batch stress: 500 packed requests in one message (beyond the
// paper's M=128) must execute and correlate correctly. The message outgrows
// the 64-slot queue, so its entries wait for space under its deadline; with
// none, the overflow would be shed.
func TestLargePackedMessage(t *testing.T) {
	sys := newSystem(t, nil)
	const m = 500
	b := sys.client.NewBatch()
	calls := make([]*Call, m)
	for i := 0; i < m; i++ {
		calls[i] = b.Add("Echo", "echo", soapenc.F("i", int64(i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.SendCtx(ctx); err != nil {
		t.Fatal(err)
	}
	for i, c := range calls {
		res, err := c.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got, _ := res[0].Value.(int64); got != int64(i) {
			t.Fatalf("call %d correlated to %d", i, got)
		}
	}
}
