package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// Transport-tier tests: HTTP/1.1 pipelining through the full SOAP stack.
//
// The differential pin below is the transport analogue of the golden
// suite: a pipelined burst of SOAP exchanges — successes and faults, both
// SOAP versions — must produce byte-for-byte the responses a serial
// keep-alive connection sees, in request order.

// soapRequestBody encodes a single-call request envelope for op on Echo.
func soapRequestBody(t *testing.T, v soap.Version, op string, params ...soapenc.Field) []byte {
	t.Helper()
	env := soap.New()
	env.Version = v
	env.Body = append(env.Body, mustRequestElement(t, "urn:spi:Echo", op, params...))
	var buf bytes.Buffer
	if err := env.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawSOAPRequest frames one POST /services/Echo request for the wire.
func rawSOAPRequest(v soap.Version, body []byte) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "POST /services/Echo HTTP/1.1\r\nContent-Type: %s\r\nSOAPAction: \"\"\r\nContent-Length: %d\r\n\r\n",
		v.ContentType(), len(body))
	buf.Write(body)
	return buf.Bytes()
}

// copyRawResponse copies one Content-Length-framed response verbatim.
func copyRawResponse(br *bufio.Reader, w *bytes.Buffer) error {
	contentLen := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		w.WriteString(line)
		trimmed := strings.TrimRight(line, "\r\n")
		if trimmed == "" {
			break
		}
		if v, ok := strings.CutPrefix(trimmed, "Content-Length: "); ok {
			fmt.Sscanf(v, "%d", &contentLen)
		}
	}
	if contentLen < 0 {
		return fmt.Errorf("response without Content-Length")
	}
	body := make([]byte, contentLen)
	if _, err := io.ReadFull(br, body); err != nil {
		return err
	}
	w.Write(body)
	return nil
}

func newTransportServer(t *testing.T, window int) *netsim.Link {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Container: newEchoContainer(t), AppWorkers: 8, AppQueue: 64,
		PipelineWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close(); link.Close() })
	return link
}

func TestPipelinedSOAPMatchesSerial(t *testing.T) {
	// The exchange mix: successes interleaved with faults (an always-faulting
	// op and an unknown one), in both SOAP versions, so fault ordering under
	// pipelining is pinned too.
	type call struct {
		v  soap.Version
		op string
		ps []soapenc.Field
	}
	calls := []call{
		{soap.V11, "echo", []soapenc.Field{soapenc.F("msg", "one")}},
		{soap.V11, "fail", nil},
		{soap.V12, "echo", []soapenc.Field{soapenc.F("msg", "two")}},
		{soap.V12, "fail", nil},
		{soap.V11, "nosuchop", nil},
		{soap.V12, "echo", []soapenc.Field{soapenc.F("msg", strings.Repeat("x", 1024))}},
		{soap.V12, "nosuchop", nil},
		{soap.V11, "echo", []soapenc.Field{soapenc.F("msg", "last")}},
	}
	var reqs [][]byte
	for _, c := range calls {
		reqs = append(reqs, rawSOAPRequest(c.v, soapRequestBody(t, c.v, c.op, c.ps...)))
	}

	// Serial keep-alive: one exchange at a time.
	serialLink := newTransportServer(t, 0)
	sconn, err := serialLink.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer sconn.Close()
	sbr := bufio.NewReader(sconn)
	var serial bytes.Buffer
	for i, raw := range reqs {
		if _, err := sconn.Write(raw); err != nil {
			t.Fatalf("serial write %d: %v", i, err)
		}
		if err := copyRawResponse(sbr, &serial); err != nil {
			t.Fatalf("serial read %d: %v", i, err)
		}
	}

	// Pipelined: the entire burst up front.
	pipeLink := newTransportServer(t, 4)
	pconn, err := pipeLink.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer pconn.Close()
	var burst bytes.Buffer
	for _, raw := range reqs {
		burst.Write(raw)
	}
	if _, err := pconn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	pbr := bufio.NewReader(pconn)
	var pipelined bytes.Buffer
	for i := range reqs {
		if err := copyRawResponse(pbr, &pipelined); err != nil {
			t.Fatalf("pipelined read %d: %v", i, err)
		}
	}

	if !bytes.Equal(serial.Bytes(), pipelined.Bytes()) {
		t.Fatalf("pipelined SOAP responses diverged from serial keep-alive\nserial:\n%s\npipelined:\n%s",
			serial.Bytes(), pipelined.Bytes())
	}
}

// TestPipelinedClientSOAP: the core client at a pipelining window completes
// concurrent calls against a pipelining server, each reply matched to its
// caller.
func TestPipelinedClientSOAP(t *testing.T) {
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.PipelineWindow = 8
		cc.PipelineWindow = 8
	})
	const n = 32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			msg := fmt.Sprintf("pipelined-%d", i)
			results, err := sys.client.Call("Echo", "echo", soapenc.F("msg", msg))
			if err != nil {
				errs <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if len(results) != 1 || !soapenc.Equal(results[0].Value, msg) {
				errs <- fmt.Errorf("call %d: results = %v, want %q", i, results, msg)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestOperationWatchdogFaultText pins the Server.Timeout fault text produced
// when the operation watchdog expires.
func TestOperationWatchdogFaultText(t *testing.T) {
	sys, _ := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.OperationTimeout = 30 * time.Millisecond
	})
	_, err := sys.client.Call("Echo", "park")
	var f *soap.Fault
	if !IsTimeoutFault(err) || !soapFaultAs(err, &f) {
		t.Fatalf("err = %v, want Server.Timeout fault", err)
	}
	if want := "operation Echo.park exceeded its deadline"; f.String != want {
		t.Fatalf("fault text = %q, want %q (watchdog changed the pinned text)", f.String, want)
	}
}

func soapFaultAs(err error, f **soap.Fault) bool {
	for err != nil {
		if sf, ok := err.(*soap.Fault); ok {
			*f = sf
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestServerRejectsAmbiguousFraming: a request whose length two parsers could
// read differently never reaches the SOAP layer — HTTP 400, connection
// closed, and one "HTTP.400" on the server's fault-code counters per reject.
func TestServerRejectsAmbiguousFraming(t *testing.T) {
	sys := newSystem(t, nil)
	for i, fields := range []string{
		"Content-Length: 4\r\nTransfer-Encoding: chunked\r\n",
		"Content-Length: 2\r\nContent-Length: 3\r\n",
	} {
		conn, err := sys.link.Dial()
		if err != nil {
			t.Fatal(err)
		}
		wire := "POST /services/Echo HTTP/1.1\r\nHost: s\r\nContent-Type: text/xml\r\n" + fields + "\r\n0\r\n\r\n"
		if _, err := conn.Write([]byte(wire)); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		status, err := br.ReadString('\n')
		if err != nil || !strings.HasPrefix(status, "HTTP/1.1 400 ") {
			t.Fatalf("case %d: status line %q, %v", i, status, err)
		}
		rest, err := io.ReadAll(br) // returns only because the server closes
		if err != nil || !strings.Contains(string(rest), "Connection: close\r\n") {
			t.Errorf("case %d: %q, %v; want Connection: close and EOF", i, rest, err)
		}
		conn.Close()
	}
	st := sys.server.Stats()
	if len(st.FaultCodes) != 1 || st.FaultCodes[0].Code != "HTTP.400" || st.FaultCodes[0].Count != 2 {
		t.Errorf("FaultCodes = %+v, want HTTP.400 × 2", st.FaultCodes)
	}
	if st.Envelopes != 0 {
		t.Errorf("%d envelopes reached the SOAP layer", st.Envelopes)
	}
}
