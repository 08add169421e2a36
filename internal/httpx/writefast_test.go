package httpx

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

// The pooled fast write path must emit exactly the bytes the framed path
// emits for every response the stack's SOAP layer produces, fall back when
// a response carries its own framing fields, and recycle header buffers
// without bleeding bytes between concurrent exchanges.

// framedBytes serializes r through the buffered reference path.
func framedBytes(t *testing.T, r *Response, closeConn bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := writeResponseFramed(&buf, r, closeConn); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fastBytes serializes r through the pooled fast path.
func fastBytes(t *testing.T, r *Response, closeConn bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := writeResponseFast(&buf, r, closeConn); err != nil {
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

// TestWriteResponseGate pins the dispatch in WriteResponse: responses that
// carry their own framing- or connection-related fields must take the
// cloning framed path (which overrides Content-Length), not the fast path
// (which would emit the field twice).
func TestWriteResponseGate(t *testing.T) {
	for _, name := range []string{"Content-Length", "Connection", "Transfer-Encoding"} {
		r := NewResponse(200, []byte("hello"))
		r.Header.Set("Content-Type", "text/plain")
		r.Header.Set(name, "sentinel")
		var buf bytes.Buffer
		if err := WriteResponse(&buf, r, false); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
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
		t.Errorf("WriteResponse fast path diverges:\ngot:  %q\nwant: %q", got, want)
	}
}

// TestWriteRequestFastParity pins the request fast path to the framed
// reference, and the gate that keeps self-framed requests off it.
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

	// A request carrying its own Connection field must use the cloning path
	// (the fast path would emit Connection twice when closeConn is set).
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
					t.Errorf("%s: fast path diverged under concurrency:\ngot:  %q\nwant: %q", tag, got, want)
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

// writeCounter is a connection wrapper as the fast paths see one: a plain
// io.Writer that net.Buffers cannot writev through.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFastWritesAreSingleWrites: behind a wrapper the fast paths used to
// issue two Writes per message — header block, then body — i.e. two
// segments under TCP_NODELAY. Both directions must now hand a message that
// fits a poolable block to the connection in one Write, with unchanged
// bytes, and keep the zero-copy second write for a body that does not fit.
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
