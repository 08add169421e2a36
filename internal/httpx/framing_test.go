package httpx

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
)

// TestBodyFraming feeds raw header blocks to all three message readers. A
// message whose length two parsers could read differently — the shapes
// request smuggling is made of — is a ProtocolError (errors.Is
// fault.Protocol) from each; everything else reads to the same body. The one
// shape the readers tell apart is a Transfer-Encoding whose final coding is
// not chunked (RFC 9112 §6.3): a request like that is refused, while a
// response reads to the end of the connection, as respBody says.
func TestBodyFraming(t *testing.T) {
	const chunked5 = "5\r\nhello\r\n0\r\n\r\n"
	for _, tc := range []struct {
		name, fields, payload string
		body, err             string
		respBody              *string
	}{
		{name: "Content-Length", fields: "Content-Length: 5\r\n", payload: "hello", body: "hello"},
		{name: "chunked", fields: "Transfer-Encoding: chunked\r\n", payload: chunked5, body: "hello"},
		{name: "mixed-case names and token", fields: "transfer-ENCODING: Chunked\r\n", payload: chunked5, body: "hello"},
		{name: "chunked among tokens", fields: "Transfer-Encoding: gzip , chunked\r\n", payload: chunked5, body: "hello"},
		{name: "Content-Length twice, equal", fields: "Content-Length: 5\r\ncontent-length: 5\r\n", payload: "hello", body: "hello"},
		{name: "Content-Length 0", fields: "Content-Length: 0\r\n", payload: "", body: ""},
		{name: "Content-Length and Transfer-Encoding", fields: "Content-Length: 5\r\nTransfer-Encoding: chunked\r\n", payload: chunked5,
			err: "both Transfer-Encoding and Content-Length"},
		{name: "Transfer-Encoding and Content-Length", fields: "Transfer-Encoding: chunked\r\nContent-Length: 16\r\n", payload: chunked5,
			err: "both Transfer-Encoding and Content-Length"},
		{name: "Content-Length and an unknown coding", fields: "Content-Length: 5\r\nTransfer-Encoding: identity\r\n", payload: "hello",
			err: "both Transfer-Encoding and Content-Length"},
		{name: "Content-Length twice, differing", fields: "Content-Length: 5\r\nContent-Length: 6\r\n", payload: "hello!",
			err: "conflicting Content-Length fields: 5 and 6"},
		{name: "signed Content-Length", fields: "Content-Length: +5\r\n", payload: "hello", err: `bad Content-Length "+5"`},
		{name: "negative Content-Length", fields: "Content-Length: -1\r\n", err: `bad Content-Length "-1"`},
		{name: "Content-Length list", fields: "Content-Length: 5, 5\r\n", payload: "hello", err: `bad Content-Length "5, 5"`},
		{name: "empty Content-Length", fields: "Content-Length:\r\n", err: `bad Content-Length ""`},
		{name: "Content-Length overflow", fields: "Content-Length: 99999999999999999999\r\n", err: "bad Content-Length"},
		{name: "gzip", fields: "Transfer-Encoding: gzip\r\n", payload: "hello",
			err: `Transfer-Encoding "gzip" does not end in chunked`, respBody: ptr("hello")},
		{name: "chunked, gzip", fields: "Transfer-Encoding: chunked, gzip\r\n", payload: chunked5,
			err: `Transfer-Encoding "gzip" does not end in chunked`, respBody: ptr(chunked5)},
	} {
		reader := func(wire string) *bufio.Reader { return bufio.NewReader(strings.NewReader(wire)) }
		request := "POST /services/Echo HTTP/1.1\r\nHost: x\r\n" + tc.fields + "\r\n" + tc.payload
		response := "HTTP/1.1 200 OK\r\n" + tc.fields + "\r\n" + tc.payload
		check := func(which string, body []byte, err error) {
			t.Helper()
			want, wantErr := tc.body, tc.err
			if which == "ReadResponse" && tc.respBody != nil {
				want, wantErr = *tc.respBody, ""
			}
			var pe *ProtocolError
			switch {
			case wantErr == "" && (err != nil || string(body) != want):
				t.Errorf("%s/%s: body %q, %v; want %q", tc.name, which, body, err, want)
			case wantErr != "" && (!errors.As(err, &pe) || !strings.Contains(pe.Msg, wantErr) ||
				!errors.Is(err, fault.Protocol) || !errors.Is(err, fault.Defect)):
				t.Errorf("%s/%s: err = %v, want a fault.Protocol ProtocolError with %q", tc.name, which, err, wantErr)
			}
		}
		var body []byte
		req, err := ReadRequest(reader(request), 0)
		if err == nil {
			body = req.Body
		}
		check("ReadRequest", body, err)
		body = nil
		req, release, err := ReadRequestPooled(reader(request), 0)
		if err == nil {
			body = append(body, req.Body...)
		}
		release()
		check("ReadRequestPooled", body, err)
		body = nil
		resp, err := ReadResponse(reader(response), 0)
		if err == nil {
			body = resp.Body
		}
		check("ReadResponse", body, err)
	}
}

// TestServerRejectsAmbiguousFraming: over a socket, every shape is answered
// 400 with the connection closed and the reject counted, on the serial loop
// and behind a pipelined request alike, and the handler never sees them —
// nor the GET smuggled in the body of a request whose final coding is not
// chunked, which a reader taking that request as body-less would run next.
func TestServerRejectsAmbiguousFraming(t *testing.T) {
	var rejects fault.Counters
	var handled, smuggled atomic.Int32
	srv := &Server{MaxPipeline: 4, Rejects: &rejects, Handler: func(_ context.Context, req *Request) *Response {
		handled.Add(1)
		if req.Target == "/admin" {
			smuggled.Add(1)
		}
		return NewResponse(200, req.Body)
	}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	good := "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nok"
	smuggle := "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\nGET /admin HTTP/1.1\r\n\r\n"
	twoLengths := "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nokX"
	gzipped := "POST /x HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\nGET /admin HTTP/1.1\r\nHost: x\r\n\r\n"
	for i, wire := range []string{smuggle, twoLengths, gzipped, good + smuggle, good + twoLengths, good + gzipped} {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(wire)); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if strings.HasPrefix(wire, good) {
			if resp, err := ReadResponse(br, 0); err != nil || resp.StatusCode != 200 || string(resp.Body) != "ok" {
				t.Fatalf("case %d: the request ahead of the reject: %+v, %v", i, resp, err)
			}
		}
		resp, err := ReadResponse(br, 0)
		if err != nil || resp.StatusCode != 400 || !resp.Header.hasToken("Connection", "close") {
			t.Fatalf("case %d: %+v, %v; want 400 and Connection: close", i, resp, err)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("case %d: connection still open after the 400: %v", i, err)
		}
		conn.Close()
		if got := rejects.Snapshot(); len(got) != 1 || got[0].Code != "HTTP.400" || got[0].Count != int64(i+1) {
			t.Errorf("case %d: reject counter = %+v", i, got)
		}
	}
	if n := handled.Load(); n != 3 {
		t.Errorf("handler ran %d times, want 3 (the well-framed requests only)", n)
	}
	if n := smuggled.Load(); n != 0 {
		t.Errorf("the handler ran %d smuggled GET /admin", n)
	}
}

func ptr(s string) *string { return &s }
