package httpx

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
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
// response reads to the end of the connection, as respBody says. The rows
// from "bare LF" on pin the protocol edges a sloppy peer reaches; lf sends
// the whole message with bare-LF line endings.
func TestBodyFraming(t *testing.T) {
	const chunked5 = "5\r\nhello\r\n0\r\n\r\n"
	for _, tc := range []struct {
		name, fields, payload string
		body, err             string
		respBody              *string
		lf                    bool
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
		{name: "bare LF", fields: "Content-Length: 5\r\n", payload: "hello", body: "hello", lf: true},
		// The CRLF after chunk data is the one line ending read as bytes.
		{name: "bare LF after chunk data", fields: "Transfer-Encoding: chunked\r\n", payload: chunked5,
			err: "missing CRLF after chunk", lf: true},
		{name: "chunk extensions and trailers", fields: "Transfer-Encoding: chunked\r\n",
			payload: "5;name=value;flag\r\nhello\r\n0;last\r\nX-Trailer: v\r\nX-Other: w\r\n\r\n", body: "hello"},
		{name: "header block past the 16 KiB read buffer", fields: "X-Pad: " + strings.Repeat("p", 20<<10) + "\r\nContent-Length: 5\r\n",
			payload: "hello", body: "hello"},
		{name: "header block past 64 KiB", fields: "X-Pad: " + strings.Repeat("p", MaxHeaderBytes) + "\r\nContent-Length: 5\r\n",
			payload: "hello", err: "header block exceeds 65536 bytes"},
	} {
		reader := func(wire string) *bufio.Reader {
			if tc.lf {
				wire = strings.ReplaceAll(wire, "\r\n", "\n")
			}
			return bufio.NewReader(strings.NewReader(wire))
		}
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
// 400 with the connection closed and the reject counted, alone and behind
// a pipelined request alike, and the handler never sees them —
// nor the GET smuggled in the body of a request whose final coding is not
// chunked, which a reader taking that request as body-less would run next.
// The rows after the smuggling shapes pin the protocol edges at the server:
// each answers the 200s in ok, then ends as end says — "400" (a 400 and the
// connection closed), "close" (the last 200 closes the connection) or "open"
// (one more request on the connection is answered).
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
	withField := func(field string) string {
		return "POST /x HTTP/1.1\r\nHost: x\r\n" + field + "\r\nContent-Length: 2\r\n\r\nok"
	}
	var want200, want400 int32
	for i, row := range []struct {
		wire string
		ok   int
		end  string
	}{
		{smuggle, 0, "400"},
		{twoLengths, 0, "400"},
		{gzipped, 0, "400"},
		{good + smuggle, 1, "400"},
		{good + twoLengths, 1, "400"},
		{good + gzipped, 1, "400"},
		{good + "GARBAGE\r\n\r\n", 1, "400"},
		{withField("X-Pad: " + strings.Repeat("p", 20<<10)), 1, "open"},
		{withField("X-Pad: " + strings.Repeat("p", MaxHeaderBytes)), 0, "400"},
		{withField("Connection: Close"), 1, "close"},
		{withField("Proxy-Connection: close"), 1, "open"},
		{strings.ReplaceAll(good, "\r\n", "\n"), 1, "open"},
		{"POST /x HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n2;e=1\r\nok\r\n0\r\nX-T: v\r\n\r\n", 1, "open"},
	} {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(row.wire)); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		var resp *Response
		for n := 0; n < row.ok; n++ {
			if resp, err = ReadResponse(br, 0); err != nil || resp.StatusCode != 200 || string(resp.Body) != "ok" {
				t.Fatalf("case %d: answer %d: %+v, %v; want 200 ok", i, n, resp, err)
			}
		}
		want200 += int32(row.ok)
		switch row.end {
		case "400":
			want400++
			resp, err := ReadResponse(br, 0)
			if err != nil || resp.StatusCode != 400 || !resp.Header.hasToken("Connection", "close") {
				t.Fatalf("case %d: %+v, %v; want 400 and Connection: close", i, resp, err)
			}
		case "close":
			if !resp.Header.hasToken("Connection", "close") {
				t.Errorf("case %d: the last 200 does not close the connection: %+v", i, resp.Header)
			}
		case "open":
			want200++
			if _, err := conn.Write([]byte(good)); err != nil {
				t.Fatal(err)
			}
			if resp, err := ReadResponse(br, 0); err != nil || resp.StatusCode != 200 || string(resp.Body) != "ok" {
				t.Fatalf("case %d: the request after: %+v, %v; want 200 ok on the same connection", i, resp, err)
			}
			conn.Close()
		}
		if row.end != "open" {
			// A server that stops reading a head at its budget half-closes
			// and reads the rest before it closes, so the peer sees the end
			// of the stream, not a reset.
			if _, err := br.ReadByte(); err != io.EOF {
				t.Errorf("case %d: connection still open: %v", i, err)
			}
			conn.Close()
		}
		if got := rejects.Snapshot(); want400 > 0 && (len(got) != 1 || got[0].Code != "HTTP.400" || got[0].Count != int64(want400)) {
			t.Errorf("case %d: reject counter = %+v, want HTTP.400 × %d", i, got, want400)
		}
	}
	if n := handled.Load(); n != want200 {
		t.Errorf("handler ran %d times, want %d (the well-framed requests only)", n, want200)
	}
	if n := smuggled.Load(); n != 0 {
		t.Errorf("the handler ran %d smuggled GET /admin", n)
	}
}

func ptr(s string) *string { return &s }

// TestServerRefusesDeclaredBodies sends declaredRows through a live
// Server.Serve: each request declares 200 000 000 bytes of body, sends 11 and
// half-closes. The server must answer 400 having allocated less than 1 MiB,
// and the handler must never run.
func TestServerRefusesDeclaredBodies(t *testing.T) {
	var handled atomic.Int32
	srv := &Server{Handler: func(_ context.Context, req *Request) *Response {
		handled.Add(1)
		return NewResponse(200, nil)
	}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	for _, row := range declaredRows("POST / HTTP/1.1\r\nHost: x\r\n") {
		wire, _ := io.ReadAll(row.wire())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		resp, err := ReadResponse(bufio.NewReader(conn), 0)
		conn.Close()
		runtime.ReadMemStats(&after)
		if err != nil || resp.StatusCode != 400 {
			t.Fatalf("%s: %+v, %v; want a 400", row.name, resp, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: the exchange allocated %d bytes", row.name, n)
		} else {
			t.Logf("%s: %s, after allocating %d bytes", row.name, bytes.TrimSpace(resp.Body), n)
		}
	}
	if n := handled.Load(); n != 0 {
		t.Errorf("the handler ran %d times", n)
	}
}
