package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/trace"
	"repro/internal/wsse"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// The documents this client sends, pinned end to end: every test here reads
// the bytes a Call, a Batch or a Plan put on the wire off the far side of the
// connection, so it holds for whatever writes them. testdata/wire/ has one
// file per document; a header-provider client pins besides the bytes its
// provider was handed to sign.

// sentLog keeps the request documents a recording client posted, in order.
type sentLog struct {
	mu   sync.Mutex
	docs [][]byte
}

func (l *sentLog) add(doc []byte) {
	l.mu.Lock()
	l.docs = append(l.docs, bytes.Clone(doc))
	l.mu.Unlock()
}

// last returns the most recent document; there must be exactly want of them.
func (l *sentLog) last(t *testing.T, want int) []byte {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.docs) != want {
		t.Fatalf("%d documents were posted, want %d", len(l.docs), want)
	}
	return l.docs[want-1]
}

// recordingProvider is a HeaderProvider with nothing random in it: one fixed
// block, and a copy of every body it was asked to sign.
type recordingProvider struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (p *recordingProvider) MakeHeaders(body []byte) ([]*xmldom.Element, error) {
	p.mu.Lock()
	p.bodies = append(p.bodies, bytes.Clone(body))
	p.mu.Unlock()
	h := xmldom.NewElement(xmltext.Name{Prefix: "t", Local: "Token"})
	h.DeclareNamespace("t", "urn:test:token")
	h.SetText("fixed")
	return []*xmldom.Element{h}, nil
}

func (p *recordingProvider) last(t *testing.T, want int) []byte {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bodies) != want {
		t.Fatalf("MakeHeaders ran %d times, want %d", len(p.bodies), want)
	}
	return p.bodies[want-1]
}

// recordingClient returns a client, with the namespaces the request shapes
// lean on defined, whose every POST is logged and answered with a
// whole-message fault: the tests that use it look at what went out, not at
// what came back.
func recordingClient(t *testing.T, v soap.Version, providers ...HeaderProvider) (*Client, *sentLog) {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	log := &sentLog{}
	srv := &httpx.Server{Handler: func(_ context.Context, req *httpx.Request) *httpx.Response {
		log.add(req.Body)
		return GatewayFaultResponse(soap.ServerFault("recorded"), v)
	}}
	go srv.Serve(lis)
	cli, err := NewClient(ClientConfig{Dial: link.Dial, Timeout: 5 * time.Second,
		SOAP12: v == soap.V12, HeaderProviders: providers})
	if err != nil {
		t.Fatal(err)
	}
	cli.Define("WeatherService", "urn:weather:v2")
	cli.Define("EchoA", "urn:shared")
	cli.Define("EchoB", "urn:shared")
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		link.Close()
	})
	return cli, log
}

// wantRecordedFault fails unless err is the recording server's answer: the
// document went out and nothing before the exchange refused it.
func wantRecordedFault(t *testing.T, what string, err error) {
	t.Helper()
	var f *soap.Fault
	if !errors.As(err, &f) || f.String != "recorded" {
		t.Fatalf("%s: %v, want the recording server's fault", what, err)
	}
}

// planShapes are the execution plans whose documents are pinned: references
// along a chain and across a diamond, a dotted reference into a struct
// result, and steps with typed values (strings alone declare neither xsi nor
// xsd on the Envelope; an array asks for SOAP-ENC besides).
var planShapes = []struct {
	name  string
	build func(p *Plan)
}{
	{"plan-chain", func(p *Plan) {
		a := p.Add("Echo", "echo", soapenc.F("msg", "start"))
		b := p.Add("Echo", "echo", soapenc.F("msg", a.Ref("msg")), soapenc.F("tag", "x<y&z\""))
		p.Add("WeatherService", "GetWeather", soapenc.F("CityName", b.Ref("msg")))
	}},
	{"plan-diamond", func(p *Plan) {
		root := p.Add("Echo", "echo", soapenc.F("msg", "root"))
		left := p.Add("Echo", "echo", soapenc.F("l", root.Ref("msg")))
		right := p.Add("Echo", "echo", soapenc.F("r", root.Ref("msg")))
		p.Add("Echo", "echo", soapenc.F("l", left.Ref("l")), soapenc.F("r", right.Ref("r")))
	}},
	{"plan-nested-ref", func(p *Plan) {
		a := p.Add("Math", "Nested")
		p.Add("Math", "Id", soapenc.F("v", a.Ref("offer.price")))
	}},
	{"plan-typed", func(p *Plan) {
		a := p.Add("Math", "Const", soapenc.F("v", int64(5)))
		b := p.Add("Math", "Add", soapenc.F("x", a.Ref("value")), soapenc.F("y", int64(1)<<40))
		p.Add("Math", "Id", soapenc.F("sum", b.Ref("sum")), soapenc.F("ok", true), soapenc.F("none", nil),
			soapenc.F("list", soapenc.Array{0.5, "two"}),
			soapenc.F("who", soapenc.NewStruct(soapenc.F("first", "a"), soapenc.F("age", int32(7)))))
	}},
}

// singleShape is the single call every single-call golden sends.
var singleShape = batchEntry{service: "Echo", op: "echo",
	params: []soapenc.Field{soapenc.F("msg", "x<y&z\""), soapenc.F("n", int64(9))}}

// TestRequestDocumentGoldens pins the request document of every batch shape,
// of the single call and of every plan shape, in both envelope versions, as
// the far side of the connection received it.
func TestRequestDocumentGoldens(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		client, log := recordingClient(t, v)
		sent := 0
		for _, shape := range requestShapes {
			b := client.NewBatch()
			for _, c := range shape.calls() {
				b.Add(c.service, c.op, c.params...)
			}
			wantRecordedFault(t, shape.name, b.Send())
			sent++
			doc := log.last(t, sent)
			if bytes.Contains(doc, []byte("spi:id")) {
				t.Errorf("%v/%s: a Batch wrote a correlation id: %s", v, shape.name, doc)
			}
			if declares := bytes.Contains(doc, []byte(readerEncDecl)); declares != (shape.name == "array") || bytes.HasPrefix(doc, []byte("<?xml")) {
				t.Errorf("%v/%s: declares SOAP-ENC: %v; or leads with an XML declaration: %.80s", v, shape.name, declares, doc)
			}
			testdataGolden(t, "wire", shape.name+"_"+corpusSuffix(v), doc)
		}

		_, err := client.Call(singleShape.service, singleShape.op, singleShape.params...)
		wantRecordedFault(t, "single", err)
		sent++
		testdataGolden(t, "wire", "single_"+corpusSuffix(v), log.last(t, sent))

		for _, shape := range planShapes {
			p := client.NewPlan()
			shape.build(p)
			wantRecordedFault(t, shape.name, p.Send())
			sent++
			testdataGolden(t, "wire", shape.name+"_"+corpusSuffix(v), log.last(t, sent))
		}
	}
}

// TestSignedRequestGoldens pins, for a client with a header provider, the
// document a single call, a batch and a plan send and the bytes the provider
// was handed to sign for each — so a peer built before or after any change to
// how the body is written verifies the other's messages.
func TestSignedRequestGoldens(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		prov := &recordingProvider{}
		client, log := recordingClient(t, v, prov)
		pin := func(name string, n int) {
			t.Helper()
			testdataGolden(t, "wire", name+"_"+corpusSuffix(v), log.last(t, n))
			testdataGolden(t, "wire", name+"-body_"+corpusSuffix(v), prov.last(t, n))
		}

		_, err := client.Call(singleShape.service, singleShape.op, singleShape.params...)
		wantRecordedFault(t, "single", err)
		pin("signed-single", 1)

		b := client.NewBatch()
		for _, shape := range requestShapes {
			if shape.name == "array" || shape.name == "odd-first" {
				for _, c := range shape.calls() {
					b.Add(c.service, c.op, c.params...)
				}
			}
		}
		wantRecordedFault(t, "batch", b.Send())
		pin("signed-batch", 2)

		p := client.NewPlan()
		planShapes[len(planShapes)-1].build(p)
		wantRecordedFault(t, "plan", p.Send())
		pin("signed-plan", 3)
	}
}

// wireBody reads a posted document back the way the server does and returns
// what its header processors would be handed: the verbatim spans of the body
// entries.
func wireBody(t *testing.T, doc []byte) []byte {
	t.Helper()
	arena := xmldom.AcquireArena()
	defer xmldom.ReleaseArena(arena)
	d := soap.AcquireStreamDecoder(doc, arena)
	defer d.Release()
	if err := d.ReadPreamble(); err != nil {
		t.Fatalf("reading back %s: %v", doc, err)
	}
	for {
		el, err := d.NextEntryStart()
		if err != nil {
			t.Fatalf("reading back %s: %v", doc, err)
		}
		if el == nil {
			break
		}
		if err := d.CompleteEntry(el); err != nil {
			t.Fatalf("reading back %s: %v", doc, err)
		}
	}
	if _, err := d.Finish(); err != nil {
		t.Fatalf("reading back %s: %v", doc, err)
	}
	return bytes.Clone(canonicalFromSpans(d.BodySpans()))
}

// TestSignedBodyIsTheWireBody is the property header signatures rest on: the
// bytes a provider is handed are exactly the bytes of the body entries in the
// document that is then posted — what the receiving server cuts out of it and
// hands its processors — for every batch shape as a batch, as single calls
// and as a plan (with a reference step added), in both versions.
func TestSignedBodyIsTheWireBody(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		prov := &recordingProvider{}
		client, log := recordingClient(t, v, prov)
		n := 0
		check := func(what string, err error) {
			t.Helper()
			wantRecordedFault(t, what, err)
			n++
			doc, signed := log.last(t, n), prov.last(t, n)
			if onWire := wireBody(t, doc); !bytes.Equal(signed, onWire) {
				t.Errorf("%v/%s: the provider signed other bytes than were sent\nsigned:  %s\non wire: %s", v, what, signed, onWire)
			}
			if !bytes.Contains(doc, []byte(`<t:Token xmlns:t="urn:test:token">fixed</t:Token>`)) {
				t.Errorf("%v/%s: the provider's block is not in the document: %s", v, what, doc)
			}
		}
		for _, shape := range requestShapes {
			calls := shape.calls()
			b := client.NewBatch()
			for _, c := range calls {
				b.Add(c.service, c.op, c.params...)
			}
			check(shape.name+"/batch", b.Send())

			for i, c := range calls {
				_, err := client.Call(c.service, c.op, c.params...)
				check(fmt.Sprintf("%s/single %d", shape.name, i), err)
			}

			p := client.NewPlan()
			var first *StepHandle
			for _, c := range calls {
				if h := p.Add(c.service, c.op, c.params...); first == nil {
					first = h
				}
			}
			p.Add("Echo", "echo", soapenc.F("again", first.Ref("msg")), soapenc.F("n", int64(1)))
			check(shape.name+"/plan", p.Send())
		}
		for _, shape := range planShapes {
			p := client.NewPlan()
			shape.build(p)
			check(shape.name, p.Send())
		}
	}
}

// resetConn is a connection that takes whatever is written to it and then
// fails the first read: the request went out, the response was lost.
type resetConn struct{ sent *bytes.Buffer }

func (c resetConn) Write(b []byte) (int, error)      { return c.sent.Write(b) }
func (c resetConn) Read([]byte) (int, error)         { return 0, io.ErrUnexpectedEOF }
func (c resetConn) Close() error                     { return nil }
func (c resetConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c resetConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c resetConn) SetDeadline(time.Time) error      { return nil }
func (c resetConn) SetReadDeadline(time.Time) error  { return nil }
func (c resetConn) SetWriteDeadline(time.Time) error { return nil }

// headerAndBody cuts a request document at its Body start tag.
func headerAndBody(t *testing.T, doc []byte) (header, body []byte) {
	t.Helper()
	i := bytes.Index(doc, []byte("<"+soap.PrefixEnvelope+":Body>"))
	if i < 0 {
		t.Fatalf("no Body in %s", doc)
	}
	return doc[:i], doc[i:]
}

// TestSignedRetrySignsEachAttempt loses the response to a signed request's
// first attempt. The retry must run the provider again — a nonce is good for
// one message, and the verifier's replay cache would refuse the first one's —
// over the same body bytes, and the server must accept what the second
// attempt carries.
func TestSignedRetrySignsEachAttempt(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, kind := range retriedKinds {
			t.Run(v.String()+"/"+kind.name, func(t *testing.T) {
				var firstTry bytes.Buffer
				var slept []time.Duration
				tr := trace.New(64)
				signed := &countingSigner{Signer: wsse.Signer{Username: "alice", Secret: paritySecret}}
				sys, log := newRecordedSystem(t, func(s *ServerConfig, c *ClientConfig) {
					s.HeaderProcessors = []HeaderProcessor{&wsse.Verifier{Secrets: map[string][]byte{"alice": paritySecret}}}
					c.HeaderProviders = []HeaderProvider{signed}
					c.SOAP12 = v == soap.V12
					c.Tracer = tr
					c.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: instantSleep(&slept)}
					dial, dials := c.Dial, 0
					c.Dial = func() (net.Conn, error) {
						if dials++; dials == 1 {
							return resetConn{sent: &firstTry}, nil
						}
						return dial()
					}
				})
				sys.client.MarkIdempotent("Echo", "echo")
				kind.send(t, sys.client)

				if got := sys.client.Stats().Resilience.Retries; got != 1 || len(slept) != 1 {
					t.Fatalf("Retries = %d, backoffs = %v, want one of each", got, slept)
				}
				if signed.calls != 2 {
					t.Errorf("MakeHeaders ran %d times over 2 attempts", signed.calls)
				}
				if packs := len(spansByStage(tr.Snapshot())[trace.StageClientPack]); packs != 2 {
					t.Errorf("%d client.pack spans over 2 attempts", packs)
				}
				_, first, ok := bytes.Cut(firstTry.Bytes(), []byte("\r\n\r\n"))
				if !ok {
					t.Fatalf("first attempt wrote no request: %q", firstTry.Bytes())
				}
				second, _ := log.last()
				h1, b1 := headerAndBody(t, first)
				h2, b2 := headerAndBody(t, second)
				if !bytes.Equal(b1, b2) {
					t.Errorf("the attempts carry different bodies:\nfirst:  %s\nsecond: %s", b1, b2)
				}
				if bytes.Equal(h1, h2) || !bytes.Contains(h1, []byte("wsse:Nonce")) {
					t.Errorf("the second attempt re-sent the first one's header blocks:\n%s", h2)
				}
				if st := sys.server.Stats(); st.Faults != 0 || st.Requests == 0 {
					t.Errorf("server stats after the accepted retry: %+v", st)
				}
			})
		}
	}
}

// countingSigner counts the messages a wsse.Signer signed.
type countingSigner struct {
	wsse.Signer
	calls int
}

func (s *countingSigner) MakeHeaders(body []byte) ([]*xmldom.Element, error) {
	s.calls++
	return s.Signer.MakeHeaders(body)
}

// retriedKinds are the sends the retry test loses the first attempt of; each
// must come back with the echo's real result.
var retriedKinds = []struct {
	name string
	send func(t *testing.T, c *Client)
}{
	{"call", func(t *testing.T, c *Client) {
		got, err := c.Call("Echo", "echo", soapenc.F("msg", "again"), soapenc.F("n", int64(2)))
		if err != nil || len(got) != 2 || !soapenc.Equal(got[0].Value, "again") {
			t.Fatalf("Call = %v, %v", got, err)
		}
	}},
	{"batch", func(t *testing.T, c *Client) {
		b := c.NewBatch()
		b.Add("Echo", "echo", soapenc.F("msg", "first"))
		second := b.Add("Echo", "echo", soapenc.F("msg", "again"), soapenc.F("n", int64(2)))
		if err := b.Send(); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if got, err := second.Wait(); err != nil || len(got) != 2 || !soapenc.Equal(got[0].Value, "again") {
			t.Fatalf("second entry = %v, %v", got, err)
		}
	}},
	{"plan", func(t *testing.T, c *Client) {
		p := c.NewPlan()
		first := p.Add("Echo", "echo", soapenc.F("msg", "again"))
		second := p.Add("Echo", "echo", soapenc.F("msg", first.Ref("msg")), soapenc.F("n", int64(2)))
		if err := p.Send(); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if got, err := second.Wait(); err != nil || len(got) != 2 || !soapenc.Equal(got[0].Value, "again") {
			t.Fatalf("second step = %v, %v", got, err)
		}
	}},
}

// unencodable is a value no writer has a spelling for.
type unencodable struct{}

// TestServerEncodeFailure pins what a handler that returns an unencodable
// value gets its caller: a single call the whole-message Server fault
// "encoding response: …" under HTTP 500 in the request's version — a SOAP
// document, never the plain-text 500 and never a cut-off one — and a packed
// entry or a plan step the whole-message fault that names the assembly.
func TestServerEncodeFailure(t *testing.T) {
	sys := newSystem(t, func(s *ServerConfig, _ *ClientConfig) {
		echo, _ := s.Container.Service("Echo")
		echo.MustRegister("bad", func(*registry.Context, []soapenc.Field) ([]soapenc.Field, error) {
			return []soapenc.Field{soapenc.F("fine", "text"), soapenc.F("broken", unencodable{})}, nil
		}, "returns a value with no encoding")
	})
	const entry = `<m:bad xmlns:m="urn:spi:Echo" spi:service="Echo"/>`
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, tc := range []struct{ name, target, body, want string }{
			{"single", "/services/Echo", `<m:bad xmlns:m="urn:spi:Echo"/>`, "encoding response: soapenc: unsupported value type core.unencodable"},
			{"packed", "/services", `<spi:Parallel_Method xmlns:spi="` + NSPack + `"><m:echo xmlns:m="urn:spi:Echo" spi:service="Echo"><msg>fine</msg></m:echo>` + entry + `</spi:Parallel_Method>`,
				"assembling packed response: soapenc: unsupported value type core.unencodable"},
			{"plan", "/services", `<spi:Execution_Plan xmlns:spi="` + NSPack + `">` + entry + `</spi:Execution_Plan>`,
				"assembling plan response: soapenc: unsupported value type core.unencodable"},
		} {
			faults := sys.server.Stats().Faults
			doc := `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `"><SOAP-ENV:Body>` + tc.body + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`
			resp, err := sys.client.http.Post(tc.target, v.ContentType(), []byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 500 || resp.Header.Get("Content-Type") != v.ContentType() {
				t.Errorf("%v/%s: HTTP %d, Content-Type %q: %s", v, tc.name, resp.StatusCode, resp.Header.Get("Content-Type"), resp.Body)
			}
			env, err := soap.Decode(bytes.NewReader(resp.Body))
			if err != nil {
				t.Fatalf("%v/%s: the answer is not a SOAP document: %v\n%s", v, tc.name, err, resp.Body)
			}
			if f := env.Fault(); f == nil || f.Code != soap.FaultServer || f.String != tc.want || env.Version != v {
				t.Errorf("%v/%s: fault %+v in a %v envelope, want Server %q", v, tc.name, f, env.Version, tc.want)
			}
			if strings.Contains(string(resp.Body), "fine") {
				t.Errorf("%v/%s: the answer carries part of the abandoned response: %s", v, tc.name, resp.Body)
			}
			if got := sys.server.Stats().Faults; got != faults+1 {
				t.Errorf("%v/%s: Faults went from %d to %d", v, tc.name, faults, got)
			}
		}
	}
}

// encodeFailures are the sends that must fail before anything is posted: a
// parameter with no encoding, behind one that has.
var encodeFailures = []struct {
	name string
	send func(c *Client) error
}{
	{"call", func(c *Client) error {
		_, err := c.Call("Echo", "echo", soapenc.F("msg", "fine"), soapenc.F("broken", unencodable{}))
		return err
	}},
	{"batch", func(c *Client) error {
		b := c.NewBatch()
		ok := b.Add("Echo", "echo", soapenc.F("msg", "fine"))
		b.Add("Echo", "echo", soapenc.F("broken", unencodable{}))
		err := b.Send()
		if _, werr := ok.Wait(); werr == nil || werr.Error() != err.Error() {
			return fmt.Errorf("the entry beside the broken one resolved with %v, Send returned %v", werr, err)
		}
		return err
	}},
	{"plan", func(c *Client) error {
		p := c.NewPlan()
		a := p.Add("Echo", "echo", soapenc.F("msg", "fine"))
		p.Add("Echo", "echo", soapenc.F("msg", a.Ref("msg")), soapenc.F("broken", unencodable{}))
		err := p.Send()
		if _, werr := a.Wait(); werr == nil || werr.Error() != err.Error() {
			return fmt.Errorf("the step before the broken one resolved with %v, Send returned %v", werr, err)
		}
		return err
	}},
}

// TestClientEncodeFailure: a parameter the writer cannot encode fails the
// Call, the Batch or the Plan with that error before anything is posted, with
// and without header providers, in both versions.
func TestClientEncodeFailure(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, signed := range []bool{false, true} {
			prov := &recordingProvider{}
			var providers []HeaderProvider
			if signed {
				providers = append(providers, prov)
			}
			client, log := recordingClient(t, v, providers...)
			for _, f := range encodeFailures {
				err := f.send(client)
				if err == nil || !strings.Contains(err.Error(), "unsupported value type core.unencodable") {
					t.Errorf("%v/signed=%v/%s: %v, want the encoder's error", v, signed, f.name, err)
				}
			}
			if st := client.Stats(); st.Envelopes != 0 || st.Batches != 0 || len(log.docs) != 0 || len(prov.bodies) != 0 {
				t.Errorf("%v/signed=%v: %d envelopes, %d batches counted, %d documents posted, %d bodies signed after encode failures alone",
					v, signed, st.Envelopes, st.Batches, len(log.docs), len(prov.bodies))
			}
		}
	}
}

// TestClientEncodeFailurePoolRecycling interleaves failed encodes with real
// exchanges from concurrent goroutines, each with its own payload, signed and
// not: an encoder or body fragment abandoned halfway goes back to its pool,
// and must never bleed its bytes into a later document or be handed to two
// requests at once. Run with -race.
func TestClientEncodeFailurePoolRecycling(t *testing.T) {
	for _, signed := range []bool{false, true} {
		sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
			if signed {
				s.HeaderProcessors = []HeaderProcessor{&wsse.Verifier{Secrets: map[string][]byte{"alice": paritySecret}}}
				c.HeaderProviders = []HeaderProvider{&wsse.Signer{Username: "alice", Secret: paritySecret}}
			}
			c.KeepAlive = true
		})
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					tag := fmt.Sprintf("g%d-r%d-%s", g, round, strings.Repeat("x", 40*g))
					f := encodeFailures[(g+round)%len(encodeFailures)]
					if err := f.send(sys.client); err == nil || !strings.Contains(err.Error(), "unsupported value type") {
						t.Errorf("%s: %s: %v, want the encoder's error", tag, f.name, err)
						return
					}
					var got []soapenc.Field
					var err error
					switch round % 3 {
					case 0:
						got, err = sys.client.Call("Echo", "echo", soapenc.F("tag", tag), soapenc.F("n", int64(round)))
					case 1:
						b := sys.client.NewBatch()
						b.Add("Echo", "echo", soapenc.F("other", "entry"))
						call := b.Add("Echo", "echo", soapenc.F("tag", tag), soapenc.F("n", int64(round)))
						if err = b.Send(); err == nil {
							got, err = call.Wait()
						}
					case 2:
						p := sys.client.NewPlan()
						a := p.Add("Echo", "echo", soapenc.F("tag", tag))
						step := p.Add("Echo", "echo", soapenc.F("tag", a.Ref("tag")), soapenc.F("n", int64(round)))
						if err = p.Send(); err == nil {
							got, err = step.Wait()
						}
					}
					if err != nil || len(got) != 2 || !soapenc.Equal(got[0].Value, tag) || !soapenc.Equal(got[1].Value, int64(round)) {
						t.Errorf("%s: echo after a failed encode = %v, %v", tag, got, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
