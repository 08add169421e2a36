package httpx

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The writers must emit exactly the bytes the framed writers below emit, for
// every message: the ones the stack's SOAP layer produces and the ones that
// carry framing fields of their own. They must also recycle header buffers
// without bleeding bytes between concurrent exchanges.

// writeRequestFramed and writeResponseFramed are the writers a message with
// framing fields of its own went through before one field writer served
// every message: a header clone with Content-Length (and Connection: close)
// set on it, copied through a bufio.Writer. They are kept verbatim as the
// byte oracle of the parity tests; do not edit them to follow the writers.
func writeRequestFramed(w io.Writer, r *Request, closeConn bool, host string) error {
	bw := bufio.NewWriterSize(w, 8<<10)
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	fmt.Fprintf(bw, "%s %s %s\r\n", r.Method, r.Target, proto)
	if host != "" {
		fmt.Fprintf(bw, "Host: %s\r\n", host)
	}
	h := Header{fields: append([]field(nil), r.Header.fields...)}
	h.Set("Content-Length", strconv.Itoa(len(r.Body)))
	if closeConn {
		h.Set("Connection", "close")
	}
	h.Each(func(name, value string) {
		if !strings.EqualFold(name, "Transfer-Encoding") { // the body goes out whole, under Content-Length
			fmt.Fprintf(bw, "%s: %s\r\n", name, value)
		}
	})
	bw.WriteString("\r\n")
	bw.Write(r.Body)
	return bw.Flush()
}

func writeResponseFramed(w io.Writer, r *Response, closeConn bool) error {
	bw := bufio.NewWriterSize(w, 8<<10)
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	status := r.Status
	if status == "" {
		status = reasonPhrase(r.StatusCode)
	}
	fmt.Fprintf(bw, "%s %d %s\r\n", proto, r.StatusCode, status)
	h := Header{fields: append([]field(nil), r.Header.fields...)}
	h.Set("Content-Length", strconv.Itoa(len(r.Body)))
	if closeConn {
		h.Set("Connection", "close")
	}
	h.Each(func(name, value string) {
		if !strings.EqualFold(name, "Transfer-Encoding") { // the body goes out whole, under Content-Length
			fmt.Fprintf(bw, "%s: %s\r\n", name, value)
		}
	})
	bw.WriteString("\r\n")
	bw.Write(r.Body)
	return bw.Flush()
}

// framedBytes serializes r through the framed oracle.
func framedBytes(t *testing.T, r *Response, closeConn bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := writeResponseFramed(&buf, r, closeConn); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fastBytes serializes r through WriteResponse.
func fastBytes(t *testing.T, r *Response, closeConn bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResponse(&buf, r, closeConn); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWriteResponseFastParity(t *testing.T) {
	mk := func(status int, body string, hdr ...string) *Response {
		r := NewResponse(status, []byte(body))
		for i := 0; i+1 < len(hdr); i += 2 {
			r.Header.Set(hdr[i], hdr[i+1])
		}
		return r
	}
	cases := []*Response{
		mk(200, "<Envelope/>", "Content-Type", "text/xml; charset=utf-8"),
		mk(200, ""),
		mk(500, "response encoding failed\n", "Content-Type", "text/plain"),
		mk(404, "gone", "Content-Type", "text/plain", "X-Extra", "a, b"),
		mk(202, strings.Repeat("x", 9000)), // larger than the bufio writer's 8 KiB
	}
	// Unknown status code exercises the derived reason phrase; explicit
	// Status exercises the pass-through.
	odd := NewResponse(299, []byte("?"))
	cases = append(cases, odd)
	withStatus := NewResponse(200, []byte("ok"))
	withStatus.Status = "Fine"
	withStatus.Proto = "HTTP/1.0"
	cases = append(cases, withStatus)
	// Framing fields of the response's own, in any spelling and position.
	cases = append(cases,
		mk(200, "hello", "Content-Length", "99", "Content-Type", "text/plain"),
		mk(200, "hello", "Content-Type", "text/plain", "connection", "keep-alive", "X-After", "1"),
		mk(200, "hello", "Transfer-Encoding", "chunked", "Content-Type", "text/plain"),
		mk(200, "hello", "CONTENT-LENGTH", "5", "Connection", "Upgrade", "TRANSFER-ENCODING", "gzip, chunked"),
	)

	for i, r := range cases {
		for _, closeConn := range []bool{false, true} {
			want := framedBytes(t, r, closeConn)
			got := fastBytes(t, r, closeConn)
			if got != want {
				t.Errorf("case %d closeConn=%v:\nfast:   %q\nframed: %q", i, closeConn, got, want)
			}
		}
	}
}

// TestWriteResponseGate: a response that carries its own framing- or
// connection-related field goes out with one Content-Length, the writer's,
// and as the same single write as any other.
func TestWriteResponseGate(t *testing.T) {
	for _, name := range []string{"Content-Length", "Connection", "Transfer-Encoding"} {
		r := NewResponse(200, []byte("hello"))
		r.Header.Set("Content-Type", "text/plain")
		r.Header.Set(name, "sentinel")
		var buf writeCounter
		if err := WriteResponse(&buf, r, false); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if buf.writes != 1 {
			t.Errorf("%s pre-set: %d writes, want 1", name, buf.writes)
		}
		if strings.Count(out, "Content-Length:") != 1 {
			t.Errorf("%s pre-set: Content-Length appears %d times in %q",
				name, strings.Count(out, "Content-Length:"), out)
		}
		if name == "Content-Length" && strings.Contains(out, "sentinel") {
			t.Errorf("pre-set Content-Length not overridden by framing: %q", out)
		}
	}

	// No framing fields: WriteResponse must match the framed reference.
	r := NewResponse(200, []byte("fast"))
	r.Header.Set("Content-Type", "text/plain")
	var buf bytes.Buffer
	if err := WriteResponse(&buf, r, true); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), framedBytes(t, r, true); got != want {
		t.Errorf("WriteResponse diverges from the framed oracle:\ngot:  %q\nwant: %q", got, want)
	}
}

// TestWriteRequestFastParity pins the request writer to the framed oracle,
// for requests with and without framing fields of their own.
func TestWriteRequestFastParity(t *testing.T) {
	framed := func(r *Request, closeConn bool, host string) string {
		var buf bytes.Buffer
		if r.Header.Has("Host") {
			host = "" // writeRequest's rule: a request that names its host keeps it
		}
		if err := writeRequestFramed(&buf, r, closeConn, host); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cases := []*Request{
		NewRequest("POST", "/services/Echo", []byte("<Envelope/>")),
		NewRequest("GET", "/services/Echo?wsdl", nil),
		NewRequest("POST", "/services", []byte(strings.Repeat("y", 9000))),
	}
	cases[0].Header.Set("Content-Type", "text/xml; charset=utf-8")
	cases[0].Header.Set("SOAPAction", `""`)
	proto10 := NewRequest("POST", "/x", []byte("b"))
	proto10.Proto = "HTTP/1.0"
	ownHost := NewRequest("POST", "/x", []byte("b"))
	ownHost.Header.Set("host", "virtual.example")
	cases = append(cases, proto10, ownHost)
	for _, fields := range [][]string{
		{"Content-Length", "99", "Content-Type", "text/xml"},
		{"Content-Type", "text/xml", "connection", "keep-alive", "SOAPAction", `""`},
		{"Transfer-Encoding", "chunked"},
		{"CONTENT-LENGTH", "1", "Connection", "Upgrade", "TRANSFER-ENCODING", "gzip, chunked"},
	} {
		r := NewRequest("POST", "/services/Echo", []byte("framed"))
		for i := 0; i+1 < len(fields); i += 2 {
			r.Header.Add(fields[i], fields[i+1])
		}
		cases = append(cases, r)
	}

	for i, r := range cases {
		for _, closeConn := range []bool{false, true} {
			for _, host := range []string{"", "127.0.0.1:18080"} {
				var buf bytes.Buffer
				if err := writeRequest(&buf, r, closeConn, host); err != nil {
					t.Fatal(err)
				}
				got := buf.String()
				if want := framed(r, closeConn, host); got != want {
					t.Errorf("case %d closeConn=%v host=%q:\nfast:   %q\nframed: %q", i, closeConn, host, got, want)
				}
				// Exactly one Host whenever one is known, right after the
				// request line when it is the connection's.
				wantHosts := 0
				if host != "" || r == ownHost {
					wantHosts = 1
				}
				if n := strings.Count(strings.ToLower(got), "\r\nhost: "); n != wantHosts {
					t.Errorf("case %d host=%q: %d Host fields in %q", i, host, n, got)
				}
				if line, _, _ := strings.Cut(got, "\r\n"); host != "" && r != ownHost && !strings.HasPrefix(got[len(line):], "\r\nHost: "+host+"\r\n") {
					t.Errorf("case %d: Host does not follow the request line: %q", i, got)
				}
			}
		}
	}

	// A request carrying its own Connection field sends one when closeConn
	// writes Connection: close.
	r := NewRequest("POST", "/x", []byte("b"))
	r.Header.Set("Connection", "keep-alive")
	var buf bytes.Buffer
	if err := WriteRequest(&buf, r, true); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "Connection:") != 1 {
		t.Errorf("pre-set Connection duplicated: %q", buf.String())
	}
}

// TestWriteThenReadRoundTrip: the writers frame a message's whole body with
// Content-Length, so they leave out a caller's Transfer-Encoding, and the
// readers take back what was written. Both fields on one message is the
// RFC 9112 §6.3 smuggling shape the readers refuse.
func TestWriteThenReadRoundTrip(t *testing.T) {
	for _, te := range []string{"chunked", "gzip, chunked"} {
		name := "Transfer-Encoding: " + te
		t.Run("response/"+name, func(t *testing.T) {
			r := NewResponse(200, []byte("hello"))
			r.Header.Set("Content-Type", "text/plain")
			r.Header.Set("Transfer-Encoding", te)
			var buf bytes.Buffer
			if err := WriteResponse(&buf, r, false); err != nil {
				t.Fatal(err)
			}
			got, err := ReadResponse(bufio.NewReader(bytes.NewReader(buf.Bytes())), 0)
			if err != nil {
				t.Fatalf("reading %q: %v", buf.String(), err)
			}
			if string(got.Body) != "hello" || got.Header.Get("Content-Type") != "text/plain" {
				t.Errorf("read back body %q, Content-Type %q from %q", got.Body, got.Header.Get("Content-Type"), buf.String())
			}
		})
		t.Run("request/"+name, func(t *testing.T) {
			r := NewRequest("POST", "/services/Echo", []byte("hello"))
			r.Header.Set("Content-Type", "text/xml")
			r.Header.Set("Transfer-Encoding", te)
			var buf bytes.Buffer
			if err := WriteRequest(&buf, r, false); err != nil {
				t.Fatal(err)
			}
			got, err := ReadRequest(bufio.NewReader(bytes.NewReader(buf.Bytes())), 0)
			if err != nil {
				t.Fatalf("reading %q: %v", buf.String(), err)
			}
			if string(got.Body) != "hello" || got.Target != "/services/Echo" || got.Header.Get("Content-Type") != "text/xml" {
				t.Errorf("read back %s %q, Content-Type %q from %q", got.Target, got.Body, got.Header.Get("Content-Type"), buf.String())
			}
		})
	}
}

func TestResponseReleaseIdempotent(t *testing.T) {
	var calls int
	r := NewResponse(200, nil)
	r.Release() // no hook: must be a no-op
	r.SetRelease(func() { calls++ })
	r.Release()
	r.Release()
	if calls != 1 {
		t.Errorf("release hook ran %d times, want 1", calls)
	}
}

// TestResponseHeaderPoolRecycling drives the pooled header buffers from
// many goroutines with distinct responses; every serialization must carry
// exactly its own status and headers. Run with -race.
func TestResponseHeaderPoolRecycling(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tag := fmt.Sprintf("g%d-i%d", g, i)
				r := NewResponse(200, []byte("body-"+tag))
				r.Header.Set("X-Tag", tag)
				want := framedBytes(t, r, i%2 == 0)
				got := fastBytes(t, r, i%2 == 0)
				if got != want {
					t.Errorf("%s: WriteResponse diverged under concurrency:\ngot:  %q\nwant: %q", tag, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWriteResponseFastOversizedNotPooled exercises the pool cap: a header
// block past maxPooledResponseHeader must still serialize correctly (and
// simply not be recycled).
func TestWriteResponseFastOversizedNotPooled(t *testing.T) {
	r := NewResponse(200, []byte("x"))
	r.Header.Set("X-Big", strings.Repeat("v", maxPooledResponseHeader))
	if got, want := fastBytes(t, r, false), framedBytes(t, r, false); got != want {
		t.Error("oversized header block diverged from framed path")
	}
}

// writeCounter is a connection wrapper as the writers see one: a plain
// io.Writer that net.Buffers cannot writev through.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFastWritesAreSingleWrites: behind a wrapper the writers used to issue
// two Writes per message — header block, then body — i.e. two segments
// under TCP_NODELAY. Both directions must now hand a message that fits a
// poolable block to the connection in one Write, with unchanged bytes, and
// keep the zero-copy second write for a body that does not fit.
func TestFastWritesAreSingleWrites(t *testing.T) {
	for _, tc := range []struct {
		body   int
		writes int
	}{
		{0, 1},
		{417, 1}, // a single-call SOAP envelope
		{maxPooledResponseHeader / 2, 1},
		{maxPooledResponseHeader, 2}, // with its header block, past the pool cap
		{128 << 10, 2},               // 8 x 16 KiB packed
	} {
		body := bytes.Repeat([]byte("x"), tc.body)

		req := NewRequest("POST", "/services/Echo", body)
		req.Header.Set("Content-Type", "text/xml; charset=utf-8")
		req.Header.Set("SOAPAction", `""`)
		var got writeCounter
		if err := WriteRequest(&got, req, false); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := writeRequestFramed(&want, req, false, ""); err != nil {
			t.Fatal(err)
		}
		if got.writes != tc.writes || got.String() != want.String() {
			t.Errorf("request, %d-byte body: %d writes (want %d), bytes equal: %v",
				tc.body, got.writes, tc.writes, got.String() == want.String())
		}

		resp := NewResponse(200, body)
		resp.Header.Set("Content-Type", "text/xml; charset=utf-8")
		got = writeCounter{}
		if err := WriteResponse(&got, resp, false); err != nil {
			t.Fatal(err)
		}
		if got.writes != tc.writes || got.String() != framedBytes(t, resp, false) {
			t.Errorf("response, %d-byte body: %d writes (want %d), bytes equal: %v",
				tc.body, got.writes, tc.writes, got.String() == framedBytes(t, resp, false))
		}
	}
}

// TestFastWriteKeepsWritevOnTCP: a bare TCP connection still gets header
// block and body as net.Buffers (one writev), never a copy of the body.
func TestFastWriteKeepsWritevOnTCP(t *testing.T) {
	var tcp *net.TCPConn
	if !writesBuffers(tcp) || writesBuffers(&writeCounter{}) {
		t.Error("writev capability misjudged")
	}
}

// TestClientSendsHost: every request a Client writes names the peer it was
// dialed to (RFC 9112 §3.2), at a window of one and a pipelined window alike,
// and the server reads it back as one more field.
func TestClientSendsHost(t *testing.T) {
	for _, window := range []int{0, 8} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hosts := make(chan string, 4)
		srv := &Server{MaxPipeline: 4, Handler: func(_ context.Context, req *Request) *Response {
			hosts <- strings.Join(req.Header.Values("Host"), "|")
			return NewResponse(200, nil)
		}}
		go srv.Serve(l)
		addr := l.Addr().String()
		c := &Client{Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }, KeepAlive: true, MaxPerConn: window}
		for i := 0; i < 2; i++ {
			if _, err := c.Post("/x", "text/plain", []byte("b")); err != nil {
				t.Fatal(err)
			}
			if got := <-hosts; got != addr {
				t.Errorf("window=%d: Host = %q, want %q", window, got, addr)
			}
		}
		c.Close()
		srv.Close()
	}
}
