package spi_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	spi "repro"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

// startSystem deploys a Greeter service over a simulated link and returns
// a ready client, exercising the whole public facade the way a downstream
// user would.
func startSystem(t *testing.T, cfg spi.LinkConfig) (*spi.Client, *spi.Server, *spi.Link) {
	t.Helper()
	container := spi.NewContainer()
	svc := container.MustAddService("Greeter", "urn:example:Greeter", "says hello")
	svc.MustRegister("Hello", func(ctx *spi.HandlerContext, params []spi.Field) ([]spi.Field, error) {
		name := "world"
		for _, p := range params {
			if p.Name == "name" {
				name, _ = p.Value.(string)
			}
		}
		return []spi.Field{spi.F("greeting", "hello, "+name)}, nil
	}, "greets the caller")
	svc.MustRegister("Boom", func(ctx *spi.HandlerContext, params []spi.Field) ([]spi.Field, error) {
		return nil, errors.New("boom")
	}, "always fails")

	link := spi.NewLink(cfg)
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	server, err := spi.NewServer(spi.ServerConfig{Container: container})
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(lis)
	client, err := spi.NewClient(spi.ClientConfig{Dial: link.Dial, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
		link.Close()
	})
	return client, server, link
}

func TestFacadeCall(t *testing.T) {
	client, _, _ := startSystem(t, spi.LinkConfig{})
	results, err := client.Call("Greeter", "Hello", spi.F("name", "SPI"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !spi.ValueEqual(results[0].Value, "hello, SPI") {
		t.Errorf("results = %v", results)
	}
}

func TestFacadeBatch(t *testing.T) {
	client, server, link := startSystem(t, spi.LinkConfig{})
	batch := client.NewBatch()
	a := batch.Add("Greeter", "Hello", spi.F("name", "a"))
	b := batch.Add("Greeter", "Hello", spi.F("name", "b"))
	bad := batch.Add("Greeter", "Boom")
	if err := batch.Send(); err != nil {
		t.Fatal(err)
	}
	ra, err := a.Wait()
	if err != nil || !spi.ValueEqual(ra[0].Value, "hello, a") {
		t.Errorf("a = %v, %v", ra, err)
	}
	rb, err := b.Wait()
	if err != nil || !spi.ValueEqual(rb[0].Value, "hello, b") {
		t.Errorf("b = %v, %v", rb, err)
	}
	if _, err := bad.Wait(); err == nil {
		t.Error("Boom succeeded")
	} else {
		var f *spi.Fault
		if !errors.As(err, &f) || f.Code != spi.FaultServer {
			t.Errorf("Boom err = %v", err)
		}
	}
	if link.Stats().Dials != 1 {
		t.Errorf("dials = %d, want 1 for a packed batch", link.Stats().Dials)
	}
	if server.Stats().PackedMessages != 1 {
		t.Errorf("packed messages = %d", server.Stats().PackedMessages)
	}
}

func TestFacadeAutoBatcher(t *testing.T) {
	client, _, _ := startSystem(t, spi.LinkConfig{})
	auto := spi.NewAutoBatcher(client, 16)
	defer auto.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := auto.Call("Greeter", "Hello", spi.F("name", "x")); err != nil {
				t.Errorf("auto call: %v", err)
			}
		}()
	}
	wg.Wait()
	if st := client.Stats(); st.Envelopes >= 8 {
		t.Errorf("auto batcher used %d envelopes for 8 calls", st.Envelopes)
	}
}

func TestFacadePlan(t *testing.T) {
	client, _, link := startSystem(t, spi.LinkConfig{})
	plan := client.NewPlan()
	first := plan.Add("Greeter", "Hello", spi.F("name", "plan"))
	second := plan.Add("Greeter", "Hello", spi.F("name", first.Ref("greeting")))
	if err := plan.Send(); err != nil {
		t.Fatal(err)
	}
	res, err := second.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !spi.ValueEqual(res[0].Value, "hello, hello, plan") {
		t.Errorf("chained result = %v", res[0].Value)
	}
	if link.Stats().Dials != 1 {
		t.Errorf("dials = %d, want 1 for a two-step plan", link.Stats().Dials)
	}
}

func TestFacadeValues(t *testing.T) {
	s := spi.NewStruct(spi.F("k", "v"), spi.F("n", int64(2)))
	if n, _ := s.Get("n"); s.GetString("k") != "v" || n != int64(2) {
		t.Errorf("struct accessors broken: %#v", s)
	}
	if !spi.ValueEqual(spi.Array{int64(1)}, spi.Array{int64(1)}) {
		t.Error("ValueEqual broken")
	}
}

func TestFacadeTypedBinding(t *testing.T) {
	type sumReq struct {
		A int64 `soap:"a"`
		B int64 `soap:"b"`
	}
	type sumResp struct {
		Sum int64 `soap:"sum"`
	}
	container := spi.NewContainer()
	svc := container.MustAddService("Calc", "urn:x:Calc", "typed arithmetic")
	svc.MustRegister("Sum", spi.MustTypedHandler(func(ctx *spi.HandlerContext, req sumReq) (sumResp, error) {
		return sumResp{Sum: req.A + req.B}, nil
	}), "adds two numbers")

	link := spi.NewLink(spi.LinkConfig{})
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	server, err := spi.NewServer(spi.ServerConfig{Container: container})
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(lis)
	client, err := spi.NewClient(spi.ClientConfig{Dial: link.Dial, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close(); link.Close() })

	var resp sumResp
	err = spi.CallTyped(func(p ...spi.Field) ([]spi.Field, error) {
		return client.Call("Calc", "Sum", p...)
	}, sumReq{A: 19, B: 23}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sum != 42 {
		t.Errorf("sum = %d", resp.Sum)
	}
}

func TestFacadeWSSecurity(t *testing.T) {
	secret := []byte("s3cret")
	container := spi.NewContainer()
	svc := container.MustAddService("Echo", "urn:x:Echo", "")
	svc.MustRegister("echo", func(ctx *spi.HandlerContext, params []spi.Field) ([]spi.Field, error) {
		return params, nil
	}, "")

	link := spi.NewLink(spi.LinkConfig{})
	lis, _ := link.Listen()
	server, err := spi.NewServer(spi.ServerConfig{
		Container: container,
		HeaderProcessors: []spi.HeaderProcessor{
			&spi.WSSecurityVerifier{Secrets: map[string][]byte{"alice": secret}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(lis)
	defer server.Close()
	defer link.Close()

	client, err := spi.NewClient(spi.ClientConfig{
		Dial:            link.Dial,
		Timeout:         10 * time.Second,
		HeaderProviders: []spi.HeaderProvider{&spi.WSSecuritySigner{Username: "alice", Secret: secret}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Call("Echo", "echo", spi.F("m", "signed")); err != nil {
		t.Fatalf("signed call: %v", err)
	}

	// A client without credentials still passes (header is optional unless
	// mustUnderstand), but a client with bad credentials is rejected.
	evil, err := spi.NewClient(spi.ClientConfig{
		Dial:            link.Dial,
		Timeout:         10 * time.Second,
		HeaderProviders: []spi.HeaderProvider{&spi.WSSecuritySigner{Username: "alice", Secret: []byte("wrong")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	if _, err := evil.Call("Echo", "echo", spi.F("m", "forged")); err == nil {
		t.Error("forged call accepted")
	}
}

func TestFacadeWSDL(t *testing.T) {
	container := spi.NewContainer()
	svc := container.MustAddService("Greeter", "urn:example:Greeter", "docs")
	svc.MustRegister("Hello", func(ctx *spi.HandlerContext, p []spi.Field) ([]spi.Field, error) {
		return p, nil
	}, "")
	doc := spi.DescribeService(svc, "http://h/services/Greeter")
	if !strings.Contains(doc, "wsdl:definitions") {
		t.Fatalf("WSDL = %s", doc)
	}
	d, err := spi.ParseWSDL(doc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Service != "Greeter" || d.Namespace != "urn:example:Greeter" {
		t.Errorf("description = %+v", d)
	}
}

func TestFacadeLAN100(t *testing.T) {
	cfg := spi.LAN100()
	if cfg.Bandwidth != 12_500_000 {
		t.Errorf("LAN100 bandwidth = %d", cfg.Bandwidth)
	}
	client, _, _ := startSystem(t, cfg)
	start := time.Now()
	if _, err := client.Call("Greeter", "Hello"); err != nil {
		t.Fatal(err)
	}
	// A call over the simulated LAN must cost at least the handshake +
	// request/response propagation (~0.75ms).
	if elapsed := time.Since(start); elapsed < 500*time.Microsecond {
		t.Errorf("LAN call took only %v", elapsed)
	}
}

// TestCallTypedBytes pins what spi.CallTyped sends for a request struct
// whose fields carry no omitempty: zero scalars go out as their zero
// values, a nil slice or pointer as xsi:nil, an empty slice as an empty
// array.
func TestCallTypedBytes(t *testing.T) {
	type req struct {
		Name  string   `soap:"name"`
		N     int64    `soap:"n"`
		OK    bool     `soap:"ok"`
		Nil   []string `soap:"nil"`
		Empty []string `soap:"empty"`
		Ptr   *int64   `soap:"ptr"`
		Plain []int64
	}
	var sent []spi.Field
	err := spi.CallTyped(func(p ...spi.Field) ([]spi.Field, error) {
		sent = p
		return nil, nil
	}, req{Empty: []string{}}, &struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(soap.V11, nil)
	em := enc.Emitter()
	em.Start(xmltext.Name{Local: "req"})
	if err := soapenc.EncodeParamsTo(em, sent); err != nil {
		t.Fatal(err)
	}
	em.End()
	doc, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	const want = `<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/" xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema"><s:Body><req>` +
		`<name></name><n xsi:type="xsd:int">0</n><ok xsi:type="xsd:boolean">false</ok><nil xsi:nil="true"/>` +
		`<empty xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType[0]"/><ptr xsi:nil="true"/><Plain xsi:nil="true"/>` +
		`</req></s:Body></s:Envelope>`
	if string(doc) != want {
		t.Errorf("CallTyped sent\n%s\nwant\n%s", doc, want)
	}
}
