package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/wsdl"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// newEchoContainer deploys the Echo service used throughout the evaluation
// plus a Weather service matching Figure 4.
func newEchoContainer(t *testing.T) *registry.Container {
	t.Helper()
	c := registry.NewContainer()
	echo := c.MustAddService("Echo", "urn:spi:Echo", "returns its input")
	echo.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return params, nil
	}, "identity")
	echo.MustRegister("fail", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return nil, errors.New("deliberate failure")
	}, "always faults")
	echo.MustRegister("slow", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		time.Sleep(20 * time.Millisecond)
		return params, nil
	}, "sleeps 20ms")

	weather := c.MustAddService("WeatherService", "urn:spi:WeatherService", "Figure 4 weather service")
	weather.MustRegister("GetWeather", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		city := ""
		for _, p := range params {
			if p.Name == "CityName" {
				city, _ = p.Value.(string)
			}
		}
		return []soapenc.Field{soapenc.F("GetWeatherResult", "Sunny in "+city)}, nil
	}, "city weather")
	return c
}

// system wires a client and server over an in-memory link.
type system struct {
	client  *Client
	server  *Server
	link    *netsim.Link
	submits *submitWatch // set by newResilienceSystem
}

func newSystem(t *testing.T, mutate func(*ServerConfig, *ClientConfig)) *system {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	scfg := ServerConfig{Container: newEchoContainer(t), AppWorkers: 8, AppQueue: 64}
	ccfg := ClientConfig{Dial: link.Dial, Timeout: 5 * time.Second}
	if mutate != nil {
		mutate(&scfg, &ccfg)
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	cli, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		link.Close()
	})
	return &system{client: cli, server: srv, link: link}
}

func TestSingleCallRoundTrip(t *testing.T) {
	sys := newSystem(t, nil)
	results, err := sys.client.Call("Echo", "echo", soapenc.F("msg", "hello"), soapenc.F("n", int64(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Name != "msg" || !soapenc.Equal(results[0].Value, "hello") {
		t.Errorf("results = %v", results)
	}
	if !soapenc.Equal(results[1].Value, int64(7)) {
		t.Errorf("int result = %v", results[1].Value)
	}
}

func TestSingleCallFault(t *testing.T) {
	sys := newSystem(t, nil)
	_, err := sys.client.Call("Echo", "fail")
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *soap.Fault", err)
	}
	if f.Code != soap.FaultServer || !strings.Contains(f.String, "deliberate failure") {
		t.Errorf("fault = %+v", f)
	}
}

func TestUnknownServiceAndOperation(t *testing.T) {
	sys := newSystem(t, nil)
	_, err := sys.client.Call("NoSuch", "echo")
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != soap.FaultClient {
		t.Errorf("unknown service err = %v", err)
	}
	_, err = sys.client.Call("Echo", "noSuchOp")
	if !errors.As(err, &f) || f.Code != soap.FaultClient {
		t.Errorf("unknown op err = %v", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	sys := newSystem(t, nil)
	b := sys.client.NewBatch()
	var calls []*Call
	for i := 0; i < 10; i++ {
		calls = append(calls, b.Add("Echo", "echo", soapenc.F("i", int64(i))))
	}
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		results, err := call.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(results) != 1 || !soapenc.Equal(results[0].Value, int64(i)) {
			t.Errorf("call %d results = %v", i, results)
		}
	}
	// The whole batch used exactly one envelope and one connection.
	if st := sys.client.Stats(); st.Envelopes != 1 || st.Batches != 1 || st.Calls != 10 {
		t.Errorf("client stats = %+v", st)
	}
	if st := sys.link.Stats(); st.Dials != 1 {
		t.Errorf("dials = %d, want 1", st.Dials)
	}
	if st := sys.server.Stats(); st.PackedMessages != 1 || st.Requests != 10 {
		t.Errorf("server stats = %+v", st)
	}
}

func TestBatchMixedServices(t *testing.T) {
	sys := newSystem(t, nil)
	b := sys.client.NewBatch()
	c1 := b.Add("Echo", "echo", soapenc.F("x", "1"))
	c2 := b.Add("WeatherService", "GetWeather", soapenc.F("CityName", "Beijing"))
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Wait(); err != nil {
		t.Errorf("echo in mixed batch: %v", err)
	}
	results, err := c2.Wait()
	if err != nil {
		t.Fatalf("weather in mixed batch: %v", err)
	}
	if len(results) != 1 || !soapenc.Equal(results[0].Value, "Sunny in Beijing") {
		t.Errorf("weather results = %v", results)
	}
}

func TestBatchPerItemFaults(t *testing.T) {
	sys := newSystem(t, nil)
	b := sys.client.NewBatch()
	ok1 := b.Add("Echo", "echo", soapenc.F("x", "a"))
	bad := b.Add("Echo", "fail")
	ok2 := b.Add("Echo", "echo", soapenc.F("x", "b"))
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	if _, err := ok1.Wait(); err != nil {
		t.Errorf("ok1: %v", err)
	}
	if _, err := bad.Wait(); err == nil {
		t.Error("faulting call succeeded")
	} else {
		var f *soap.Fault
		if !errors.As(err, &f) || !strings.Contains(f.String, "deliberate failure") {
			t.Errorf("bad call err = %v", err)
		}
	}
	results, err := ok2.Wait()
	if err != nil || !soapenc.Equal(results[0].Value, "b") {
		t.Errorf("ok2 after faulting sibling: %v %v", results, err)
	}
	if st := sys.server.Stats(); st.ItemFaults != 1 {
		t.Errorf("item faults = %d", st.ItemFaults)
	}
}

func TestBatchExecutesConcurrently(t *testing.T) {
	sys := newSystem(t, nil)
	b := sys.client.NewBatch()
	var calls []*Call
	for i := 0; i < 8; i++ {
		calls = append(calls, b.Add("Echo", "slow"))
	}
	start := time.Now()
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	for _, c := range calls {
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 8 x 20ms serial would be 160ms; the app stage (8 workers) runs them
	// together.
	if elapsed > 120*time.Millisecond {
		t.Errorf("packed slow calls took %v, want concurrent execution", elapsed)
	}
}

func TestCoupledModeSerializesPackedRequests(t *testing.T) {
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) { s.Coupled = true })
	b := sys.client.NewBatch()
	for i := 0; i < 4; i++ {
		b.Add("Echo", "slow")
	}
	start := time.Now()
	if err := b.Send(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 70*time.Millisecond {
		t.Errorf("coupled mode finished in %v, want >= 4x20ms serial execution", elapsed)
	}
}

func TestGoFutures(t *testing.T) {
	sys := newSystem(t, nil)
	var calls []*Call
	for i := 0; i < 6; i++ {
		calls = append(calls, sys.client.Go("Echo", "echo", soapenc.F("i", int64(i))))
	}
	for i, c := range calls {
		results, err := c.Wait()
		if err != nil {
			t.Fatalf("go %d: %v", i, err)
		}
		if !soapenc.Equal(results[0].Value, int64(i)) {
			t.Errorf("go %d = %v", i, results)
		}
	}
	// Each Go used its own envelope.
	if st := sys.client.Stats(); st.Envelopes != 6 {
		t.Errorf("envelopes = %d", st.Envelopes)
	}
}

func TestEmptyAndDoubleSendBatch(t *testing.T) {
	sys := newSystem(t, nil)
	b := sys.client.NewBatch()
	if err := b.Send(); err == nil {
		t.Error("empty batch sent")
	}
	b2 := sys.client.NewBatch()
	b2.Add("Echo", "echo")
	if err := b2.Send(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Send(); err == nil {
		t.Error("double send accepted")
	}
	late := b2.Add("Echo", "echo")
	if _, err := late.Wait(); err == nil {
		t.Error("Add after Send resolved successfully")
	}
}

func TestSingleRequestOnPackEndpoint(t *testing.T) {
	// A plain (unpacked) request POSTed to the pack endpoint resolves its
	// service by body namespace.
	sys := newSystem(t, nil)
	doc := soapRequestBody(t, soap.V11, "echo", soapenc.F("m", "x"))
	r, err := sys.client.postPooled(context.Background(), sys.client.ep.Pack(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()
	if f := r.env.Fault(); f != nil {
		t.Fatal(f)
	}
	params, err := soapenc.DecodeParams(r.env.Body[0])
	if err != nil || len(params) != 1 || !soapenc.Equal(params[0].Value, "x") {
		t.Errorf("params = %v, err = %v", params, err)
	}
}

func TestFigure4WireFormat(t *testing.T) {
	// Golden test for the packed request message of the paper's Figure 4:
	// two weather queries (Beijing, Shanghai) in one envelope whose body is
	// a Parallel_Method element with two child request elements. The figure's
	// Axis bytes type every string and declare xsi and xsd on every Envelope;
	// these leave a string untyped — every reader decodes an untyped leaf as
	// one — and so declare neither. The figure binds the envelope namespace to
	// SOAP-ENV, these to s: a prefix means nothing, and readers bind the URI.
	var entries []batchEntry
	for _, city := range []string{"Beijing, China", "Shanghai, China"} {
		entries = append(entries, batchEntry{service: "WeatherService", ns: "urn:spi:WeatherService", op: "GetWeather",
			params: []soapenc.Field{soapenc.F("CityName", city), soapenc.F("CountryName", "China")}})
	}
	env := soap.New()
	env.Body = append(env.Body, mustPackedRequest(t, entries...))
	var buf strings.Builder
	if err := env.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()

	for _, want := range []string{
		`s:Envelope`,
		`xmlns:s="http://schemas.xmlsoap.org/soap/envelope/"`,
		`<spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack" xmlns:m="urn:spi:WeatherService" spi:service="WeatherService">`,
		// As in the figure, the entries are bare RPC elements: what the
		// batch shares lives on Parallel_Method, and ids are positional.
		`<m:GetWeather><CityName`,
		`<CityName>Beijing, China</CityName>`,
		`<CityName>Shanghai, China</CityName>`,
		`<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/"><s:Body>`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("Figure 4 message missing %q:\n%s", want, doc)
		}
	}

	// And the body must parse back into two requests.
	parsed, err := soap.Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !isPackedRequest(parsed.Body[0]) {
		t.Fatal("body not recognized as Parallel_Method")
	}
	kids := parsed.Body[0].ChildElements()
	if len(kids) != 2 {
		t.Fatalf("packed children = %d", len(kids))
	}
	if strings.Contains(doc, "spi:id") || strings.Contains(doc, "xsi:") || strings.Contains(doc, "xsd:") {
		t.Errorf("Figure 4 message carries a correlation id or a type:\n%s", doc)
	}
	req, fault := decodeRequestElement(kids[1], packDefaultService(parsed.Body[0], ""), 1)
	if fault != nil {
		t.Fatal(fault)
	}
	if req.service != "WeatherService" || req.op != "GetWeather" || req.id != 1 {
		t.Errorf("decoded request = %+v", req)
	}
}

func TestHeaderProcessorAndMustUnderstand(t *testing.T) {
	var seen []string
	proc := &testHeaderProc{ns: "urn:test:auth", local: "Token", fn: func(block *xmldom.Element, body []byte) error {
		seen = append(seen, block.Text())
		if block.Text() == "bad" {
			return errors.New("invalid token")
		}
		return nil
	}}
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		s.HeaderProcessors = []HeaderProcessor{proc}
		c.HeaderProviders = []HeaderProvider{headerProviderFunc(func(body []byte) ([]*xmldom.Element, error) {
			h := xmldom.NewElement(xmltext.Name{Local: "Token"})
			h.DeclareNamespace("", "urn:test:auth")
			h.SetAttr(xmltext.Name{Prefix: soap.PrefixEnvelope, Local: "mustUnderstand"}, "1")
			h.DeclareNamespace(soap.PrefixEnvelope, soap.NSEnvelope)
			h.SetText("good")
			return []*xmldom.Element{h}, nil
		})}
	})
	if _, err := sys.client.Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "good" {
		t.Errorf("processor saw %v", seen)
	}
}

func TestMustUnderstandUnknownHeaderFaults(t *testing.T) {
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		c.HeaderProviders = []HeaderProvider{headerProviderFunc(func(body []byte) ([]*xmldom.Element, error) {
			h := xmldom.NewElement(xmltext.Name{Local: "Mystery"})
			h.DeclareNamespace("", "urn:test:unknown")
			h.DeclareNamespace(soap.PrefixEnvelope, soap.NSEnvelope)
			h.SetAttr(xmltext.Name{Prefix: soap.PrefixEnvelope, Local: "mustUnderstand"}, "1")
			return []*xmldom.Element{h}, nil
		})}
	})
	_, err := sys.client.Call("Echo", "echo")
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != soap.FaultMustUnderstand {
		t.Errorf("err = %v, want MustUnderstand fault", err)
	}
}

type testHeaderProc struct {
	ns, local string
	fn        func(*xmldom.Element, []byte) error
}

func (p *testHeaderProc) HeaderName() (string, string) { return p.ns, p.local }
func (p *testHeaderProc) ProcessHeader(b *xmldom.Element, body []byte) error {
	return p.fn(b, body)
}

type headerProviderFunc func([]byte) ([]*xmldom.Element, error)

func (f headerProviderFunc) MakeHeaders(body []byte) ([]*xmldom.Element, error) { return f(body) }

// TestAutoBatcherCoalesces: concurrent callers' calls share one envelope.
// The batch is held open until all of them have joined, then flushed.
func TestAutoBatcherCoalesces(t *testing.T) {
	sys := newSystem(t, nil)
	ab := NewAutoBatcher(sys.client, 64)
	ab.w.yield = holdYield(t)
	defer ab.Close()

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results, err := ab.Call("Echo", "echo", soapenc.F("i", int64(i)))
			if err == nil && !soapenc.Equal(results[0].Value, int64(i)) {
				err = fmt.Errorf("wrong result %v", results)
			}
			errs[i] = err
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); len(ab.w.formingItems(struct{}{})) < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d calls joined the batch", len(ab.w.formingItems(struct{}{})), n)
		}
		time.Sleep(time.Millisecond)
	}
	ab.Flush()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if st := sys.client.Stats(); st.Envelopes != 1 {
		t.Errorf("auto batcher sent %d envelopes for %d calls, want 1", st.Envelopes, n)
	}
}

// TestAutoBatcherLoneCallSealsAfterOneYield: a call with no companion goes
// out after one yield that brings none, alone in its envelope.
func TestAutoBatcherLoneCallSealsAfterOneYield(t *testing.T) {
	sys := newSystem(t, nil)
	ab := NewAutoBatcher(sys.client, 64)
	var yields atomic.Int32
	ab.w.yield = func() { yields.Add(1); runtime.Gosched() }
	defer ab.Close()
	if res, err := ab.Call("Echo", "echo", soapenc.F("m", "alone")); err != nil || !soapenc.Equal(res[0].Value, "alone") {
		t.Fatalf("lone call = %v, %v", res, err)
	}
	if n := yields.Load(); n != 1 {
		t.Errorf("sealed after %d yields, want 1", n)
	}
	if st := sys.client.Stats(); st.Batches != 1 || st.Calls != 1 {
		t.Errorf("sent %d batches for %d calls, want 1 for 1", st.Batches, st.Calls)
	}
}

func TestAutoBatcherMaxBatchFlush(t *testing.T) {
	sys := newSystem(t, nil)
	ab := NewAutoBatcher(sys.client, 4)
	ab.w.yield = holdYield(t) // only the cap seals the batch
	defer ab.Close()
	var calls []*Call
	for i := 0; i < 4; i++ {
		calls = append(calls, ab.Go("Echo", "echo", soapenc.F("i", int64(i))))
	}
	for _, c := range calls {
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAutoBatcherExplicitFlush(t *testing.T) {
	sys := newSystem(t, nil)
	ab := NewAutoBatcher(sys.client, 1024)
	ab.w.yield = holdYield(t) // the batch never settles on its own
	defer ab.Close()
	call := ab.Go("Echo", "echo", soapenc.F("m", "flushed"))
	select {
	case <-call.Done():
		t.Fatal("call resolved before flush")
	case <-time.After(10 * time.Millisecond):
	}
	ab.Flush()
	select {
	case <-call.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("flush did not release the call")
	}
	res, err := call.Wait()
	if err != nil || !soapenc.Equal(res[0].Value, "flushed") {
		t.Errorf("flushed call = %v, %v", res, err)
	}
	// Flushing with nothing pending is a no-op.
	ab.Flush()
}

func TestAutoBatcherClosed(t *testing.T) {
	sys := newSystem(t, nil)
	ab := NewAutoBatcher(sys.client, 8)
	ab.Close()
	if _, err := ab.Call("Echo", "echo"); err == nil {
		t.Error("call on closed autobatcher succeeded")
	}
}

// TestAutoBatcherCloseSendsForming: Close sends the batch still forming and
// waits for it, so every call issued before Close has resolved when it returns.
func TestAutoBatcherCloseSendsForming(t *testing.T) {
	sys := newSystem(t, nil)
	ab := NewAutoBatcher(sys.client, 1024)
	ab.w.yield = holdYield(t) // the batch never settles on its own
	calls := []*Call{
		ab.Go("Echo", "echo", soapenc.F("m", "a")),
		ab.Go("Echo", "echo", soapenc.F("m", "b")),
	}
	ab.Close()
	for i, c := range calls {
		select {
		case <-c.Done():
		default:
			t.Fatalf("call %d unresolved after Close", i)
		}
		if res, err := c.Wait(); err != nil || !soapenc.Equal(res[0].Value, []string{"a", "b"}[i]) {
			t.Errorf("call %d = %v, %v", i, res, err)
		}
	}
	if st := sys.client.Stats(); st.Batches != 1 || st.Calls != 2 {
		t.Errorf("Close sent %d batches for %d calls, want 1 for 2", st.Batches, st.Calls)
	}
}

func TestNotFoundAndMethodNotAllowed(t *testing.T) {
	sys := newSystem(t, nil)
	// Bad path segment.
	_, err := sys.client.Call("Echo/extra", "echo")
	if err == nil {
		t.Error("nested path accepted")
	}
}

func TestWSDLEndpoint(t *testing.T) {
	sys := newSystem(t, nil)
	get := func(target string) (*httpx.Response, error) {
		req := httpx.NewRequest("GET", target, nil)
		return sys.client.http.DoCtx(context.Background(), req)
	}
	resp, err := get("/services/Echo?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "wsdl:definitions") {
		t.Errorf("wsdl endpoint = %d %q", resp.StatusCode, truncate(resp.Body, 100))
	}
	resp, err = get("/services")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "Echo") {
		t.Errorf("service listing = %d %q", resp.StatusCode, truncate(resp.Body, 100))
	}
	resp, err = get("/services/NoSuch?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Errorf("missing service wsdl = %d", resp.StatusCode)
	}
	resp, err = get("/services/Echo")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "?wsdl") {
		t.Errorf("service info = %d %q", resp.StatusCode, truncate(resp.Body, 100))
	}
}

func TestMalformedEnvelopeFaults(t *testing.T) {
	sys := newSystem(t, nil)
	resp, err := sys.client.http.Post("/services/Echo", "text/xml", []byte("<not-soap/>"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	env, err := soap.Decode(strings.NewReader(string(resp.Body)))
	if err != nil {
		t.Fatal(err)
	}
	if f := env.Fault(); f == nil || f.Code != soap.FaultClient {
		t.Errorf("fault = %v", f)
	}
}

func TestEntryInterceptorOrder(t *testing.T) {
	// Configured order is call order, and a replacement threads through to
	// the hooks behind it.
	var order []string
	mk := func(name string) EntryInterceptor {
		return func(entry *xmldom.Element, info *EntryInfo) (*xmldom.Element, *soap.Fault) {
			order = append(order, name+":"+entry.Name.Local)
			if name == "first" {
				repl := entry.Clone()
				repl.Name.Local = "echo"
				return repl, nil
			}
			return nil, nil
		}
	}
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		s.EntryInterceptors = []EntryInterceptor{mk("first"), mk("second"), mk("third")}
	})
	res, err := sys.client.Call("Echo", "renamed", soapenc.F("m", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !soapenc.Equal(res[0].Value, "x") {
		t.Errorf("results = %v", res)
	}
	want := []string{"first:renamed", "second:echo", "third:echo"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestEntryInterceptorReject(t *testing.T) {
	reject := func(entry *xmldom.Element, info *EntryInfo) (*xmldom.Element, *soap.Fault) {
		if entry.Name.Local == "fail" {
			return nil, soap.ClientFault("blocked by policy")
		}
		return nil, nil
	}
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		s.EntryInterceptors = []EntryInterceptor{reject}
	})
	blocked := func(err error) bool {
		var f *soap.Fault
		return errors.As(err, &f) && f.Code == soap.FaultClient && strings.Contains(f.String, "blocked by policy")
	}

	// Single call: the rejection is the message fault, and nothing ran.
	if _, err := sys.client.Call("Echo", "fail"); !blocked(err) {
		t.Errorf("single: err = %v", err)
	}
	if st := sys.server.Stats(); st.Requests != 0 || st.Faults != 1 {
		t.Errorf("single: Requests %d Faults %d, want 0 and 1", st.Requests, st.Faults)
	}

	// Batch: the rejection is that entry's per-item fault; its companion
	// runs, the rejected entry does not.
	batch := sys.client.NewBatch()
	ok := batch.Add("Echo", "echo", soapenc.F("m", "x"))
	bad := batch.Add("Echo", "fail")
	if err := batch.Send(); err != nil {
		t.Fatal(err)
	}
	if res, err := ok.Wait(); err != nil || !soapenc.Equal(res[0].Value, "x") {
		t.Errorf("batch companion = %v %v", res, err)
	}
	if _, err := bad.Wait(); !blocked(err) {
		t.Errorf("batch: err = %v", err)
	}
	if st := sys.server.Stats(); st.Requests != 1 || st.ItemFaults != 1 || st.Faults != 1 {
		t.Errorf("batch: Requests %d ItemFaults %d Faults %d, want 1, 1 and 1", st.Requests, st.ItemFaults, st.Faults)
	}
}

func TestEntryInterceptorInfo(t *testing.T) {
	var mu sync.Mutex
	var saw []EntryInfo
	capture := func(entry *xmldom.Element, info *EntryInfo) (*xmldom.Element, *soap.Fault) {
		mu.Lock()
		saw = append(saw, *info)
		mu.Unlock()
		return nil, nil
	}
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		s.EntryInterceptors = []EntryInterceptor{capture}
	})
	if _, err := sys.client.Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
		t.Fatal(err)
	}
	batch := sys.client.NewBatch()
	batch.Add("Echo", "echo", soapenc.F("m", "a"))
	batch.Add("WeatherService", "GetWeather", soapenc.F("CityName", "Oslo"))
	if err := batch.Send(); err != nil {
		t.Fatal(err)
	}
	want := []EntryInfo{
		{Target: "/services/Echo", DefaultService: "Echo", Version: soap.V11},
		{Target: "/services", Version: soap.V11, Index: 0, Packed: true},
		{Target: "/services", Version: soap.V11, Index: 1, Packed: true},
	}
	if !reflect.DeepEqual(saw, want) {
		t.Errorf("info = %+v\nwant %+v", saw, want)
	}
}

func TestPerOperationStats(t *testing.T) {
	sys := newSystem(t, nil)
	for i := 0; i < 3; i++ {
		if _, err := sys.client.Call("Echo", "echo", soapenc.F("i", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.client.Call("WeatherService", "GetWeather", soapenc.F("CityName", "Beijing")); err != nil {
		t.Fatal(err)
	}
	st := sys.server.Stats()
	if st.Operations == nil {
		t.Fatal("no per-operation stats")
	}
	if got := st.Operations["Echo.echo"].Count; got != 3 {
		t.Errorf("Echo.echo count = %d, want 3", got)
	}
	if got := st.Operations["WeatherService.GetWeather"].Count; got != 1 {
		t.Errorf("GetWeather count = %d, want 1", got)
	}
}

func TestServerStatsCounts(t *testing.T) {
	sys := newSystem(t, nil)
	sys.client.Call("Echo", "echo")
	b := sys.client.NewBatch()
	b.Add("Echo", "echo")
	b.Add("Echo", "echo")
	b.Send()
	st := sys.server.Stats()
	if st.Envelopes != 2 || st.Requests != 3 || st.PackedMessages != 1 {
		t.Errorf("server stats = %+v", st)
	}
	if st.AppStage.Completed < 3 {
		t.Errorf("app stage completed = %d", st.AppStage.Completed)
	}
}

func TestFetchWSDLDefines(t *testing.T) {
	sys := newSystem(t, nil)
	fetch := func(service string) (*wsdl.Description, error) {
		resp, err := sys.client.http.DoCtx(context.Background(), httpx.NewRequest("GET", "/services/"+service+"?wsdl", nil))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("WSDL fetch for %q: HTTP %d", service, resp.StatusCode)
		}
		return wsdl.ParseString(string(resp.Body))
	}
	d, err := fetch("WeatherService")
	if err != nil {
		t.Fatal(err)
	}
	sys.client.Define(d.Service, d.Namespace)
	if d.Service != "WeatherService" || d.Namespace != "urn:spi:WeatherService" {
		t.Errorf("description = %+v", d)
	}
	if len(d.Operations) == 0 || d.Operations[0] != "GetWeather" {
		t.Errorf("operations = %v", d.Operations)
	}
	if ns := sys.client.NamespaceOf("WeatherService"); ns != "urn:spi:WeatherService" {
		t.Errorf("namespace after fetch = %q", ns)
	}
	if _, err := fetch("NoSuchService"); err == nil {
		t.Error("WSDL fetch for missing service succeeded")
	}
}

func TestNamespaceDefineOverride(t *testing.T) {
	sys := newSystem(t, nil)
	if ns := sys.client.NamespaceOf("Echo"); ns != "urn:spi:Echo" {
		t.Errorf("default ns = %q", ns)
	}
	sys.client.Define("Echo", "urn:custom")
	if ns := sys.client.NamespaceOf("Echo"); ns != "urn:custom" {
		t.Errorf("defined ns = %q", ns)
	}
}

func TestTemplateCacheEndToEnd(t *testing.T) {
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		c.TemplateCache = true
	})
	for i := 0; i < 5; i++ {
		res, err := sys.client.Call("Echo", "echo", soapenc.F("data", fmt.Sprintf("msg-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !soapenc.Equal(res[0].Value, fmt.Sprintf("msg-%d", i)) {
			t.Errorf("call %d = %v", i, res)
		}
	}
	if sys.client.templates == nil {
		t.Fatal("TemplateCache on built no template cache")
	}
	// The calls went through the cache: it holds the template they built.
	// A template is keyed by service, operation and parameter shape, not by
	// namespace, so rendering the same call under another namespace is a hit
	// and names the namespace the calls were made in.
	em := xmltext.AcquireEmitter()
	defer xmltext.ReleaseEmitter(em)
	ok, err := sys.client.templates.RenderTo(em, "Echo", "urn:not-the-calls", "echo", []soapenc.Field{soapenc.F("data", "again")})
	if err != nil || !ok {
		t.Fatalf("render after the calls: ok=%v err=%v", ok, err)
	}
	if doc := string(em.Bytes()); !strings.Contains(doc, `xmlns:m="urn:spi:Echo"`) || strings.Contains(doc, "urn:not-the-calls") {
		t.Errorf("render after the calls = %s, want the template the calls built", doc)
	}
	// Uncacheable shapes still work through the normal path.
	res, err := sys.client.Call("Echo", "echo", soapenc.F("arr", soapenc.Array{"a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	if arr, ok := res[0].Value.(soapenc.Array); !ok || len(arr) != 2 {
		t.Errorf("uncacheable call result = %v", res)
	}
}

func TestTemplateCacheDisabledForSOAP12(t *testing.T) {
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		c.TemplateCache = true
		c.SOAP12 = true
	})
	// Calls work, but bypass the 1.1-format template cache.
	if _, err := sys.client.Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
		t.Fatal(err)
	}
	if sys.client.templates != nil {
		t.Error("template cache active under SOAP 1.2")
	}
}

func TestTemplateCacheDisabledStats(t *testing.T) {
	sys := newSystem(t, nil)
	if sys.client.templates != nil {
		t.Error("template cache built with TemplateCache off")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("server without container accepted")
	}
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Error("client without dialer accepted")
	}
}
