package httpx

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHeaderBasics(t *testing.T) {
	var h Header
	h.Add("Content-Type", "text/xml")
	h.Add("X-Multi", "1")
	h.Add("X-Multi", "2")
	if h.Get("content-type") != "text/xml" {
		t.Error("case-insensitive Get failed")
	}
	if vs := h.Values("x-multi"); len(vs) != 2 || vs[0] != "1" || vs[1] != "2" {
		t.Errorf("Values = %v", vs)
	}
	h.Set("X-Multi", "3")
	if vs := h.Values("X-Multi"); len(vs) != 1 || vs[0] != "3" {
		t.Errorf("after Set, Values = %v", vs)
	}
	if len(h.fields) != 2 {
		t.Errorf("fields = %d", len(h.fields))
	}
}

func TestHeaderTokens(t *testing.T) {
	var h Header
	h.Set("Connection", "keep-alive, Close")
	if !h.hasToken("Connection", "close") {
		t.Error("token close not found")
	}
	if h.hasToken("Connection", "upgrade") {
		t.Error("bogus token found")
	}
}

func TestParseRequest(t *testing.T) {
	raw := "POST /services/Echo HTTP/1.1\r\nHost: test\r\nContent-Type: text/xml\r\nContent-Length: 5\r\n\r\nhello"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || req.Target != "/services/Echo" || req.Proto != "HTTP/1.1" {
		t.Errorf("request line = %s %s %s", req.Method, req.Target, req.Proto)
	}
	if string(req.Body) != "hello" {
		t.Errorf("body = %q", req.Body)
	}
}

func TestParseRequestChunked(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
	b.WriteString("7\r\nhello c\r\n7\r\nhunked \r\n5\r\nworld\r\n0\r\n\r\n")
	req, err := ReadRequest(bufio.NewReader(&b), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "hello chunked world" {
		t.Errorf("body = %q", req.Body)
	}
}

func TestChunkedWithExtensionsAndTrailers(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "hello" {
		t.Errorf("body = %q", req.Body)
	}
}

// errorRow is a message every reader must refuse with a ProtocolError.
type errorRow struct {
	name string
	wire func() io.Reader
}

// wireOf is a row's message held whole.
func wireOf(s string) func() io.Reader { return func() io.Reader { return strings.NewReader(s) } }

// fill is an endless run of one byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// longWire is head, then n bytes of 'x', then tail, produced as it is read,
// so that a 32 MiB line costs the test nothing to hold.
func longWire(head string, n int, tail string) func() io.Reader {
	return func() io.Reader {
		return io.MultiReader(strings.NewReader(head), io.LimitReader(fill('x'), int64(n)), strings.NewReader(tail))
	}
}

// hostileRows are the messages, after the start line start, that once
// crashed a reader or made it allocate by the line or by the declaration: a
// chunk size that overflows the body length read so far (makeslice: len out
// of range); a header line, a chunk-size line and a trailer of 32 MiB each,
// which are well formed and refused for their size; and a Content-Length and
// a chunk size of 200 000 000 bytes, each followed by 11 of them, which a
// reader must not allocate before they arrive (declaredRows).
func hostileRows(start string) []errorRow {
	const huge = 32 << 20
	const chunked = "Transfer-Encoding: chunked\r\n\r\n"
	return append([]errorRow{
		{"chunk size overflowing the body", wireOf(start + chunked + "1\r\na\r\n7fffffffffffffff\r\nb\r\n0\r\n\r\n")},
		{"32 MiB header line", longWire(start+"X-Huge: ", huge, "\r\nContent-Length: 0\r\n\r\n")},
		{"32 MiB chunk-size line", longWire(start+chunked+"1;", huge, "\r\na\r\n0\r\n\r\n")},
		{"32 MiB trailer", longWire(start+chunked+"1\r\na\r\n0\r\nX-Trailer: ", huge, "\r\n\r\n")},
	}, declaredRows(start)...)
}

// declaredRows are the messages, after the start line start, that declare a
// body of 200 000 000 bytes and send 11: by Content-Length (57 bytes after a
// 17-byte start line) and as one chunk (67 bytes).
func declaredRows(start string) []errorRow {
	return []errorRow{
		{"declared length of 200000000", wireOf(start + "Content-Length: 200000000\r\n\r\nhello world")},
		{"declared chunk of 200000000", wireOf(start + "Transfer-Encoding: chunked\r\n\r\nbebc200\r\nhello world")},
	}
}

// checkRefused reads row with read and fails t unless the reader ends in a
// ProtocolError, without a panic, having allocated less than 1 MiB.
func checkRefused(t *testing.T, reader string, row errorRow, read func(*bufio.Reader) error) {
	t.Helper()
	var before, after runtime.MemStats
	br := bufio.NewReader(row.wire())
	runtime.ReadMemStats(&before)
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return read(br)
	}()
	runtime.ReadMemStats(&after)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Errorf("%s/%s: %v, want a ProtocolError", reader, row.name, err)
	}
	n := after.TotalAlloc - before.TotalAlloc
	if n >= 1<<20 {
		t.Errorf("%s/%s: allocated %d bytes before failing", reader, row.name, n)
	}
	t.Logf("%s/%s: %v, after allocating %d bytes", reader, row.name, err, n)
}

func TestParseRequestErrors(t *testing.T) {
	rows := hostileRows("POST / HTTP/1.1\r\n")
	for _, raw := range []string{
		"GARBAGE\r\n\r\n",
		"GET / HTTP/2.0\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
		"POST / HTTP/1.1\r\nBad Header\r\n\r\n",
		"POST / HTTP/1.1\r\nName : v\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
	} {
		rows = append(rows, errorRow{fmt.Sprintf("%q", raw), wireOf(raw)})
	}
	for _, row := range rows {
		checkRefused(t, "ReadRequest", row, func(br *bufio.Reader) error {
			_, err := ReadRequest(br, 0)
			return err
		})
		checkRefused(t, "ReadRequestPooled", row, func(br *bufio.Reader) error {
			_, release, err := ReadRequestPooled(br, 0)
			release()
			return err
		})
	}
}

// TestParseResponseErrors is TestParseRequestErrors for the reader a client
// and the gateway use on a backend's reply.
func TestParseResponseErrors(t *testing.T) {
	rows := hostileRows("HTTP/1.1 200 OK\r\n")
	for _, raw := range []string{
		"GARBAGE\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBad Header\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
	} {
		rows = append(rows, errorRow{fmt.Sprintf("%q", raw), wireOf(raw)})
	}
	for _, row := range rows {
		checkRefused(t, "ReadResponse", row, func(br *bufio.Reader) error {
			_, err := ReadResponse(br, 0)
			return err
		})
	}
}

func TestBodyLimit(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + strings.Repeat("x", 100)
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)), 10); err == nil {
		t.Error("oversized body accepted")
	}
}

func TestParseResponse(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "ok" {
		t.Errorf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestParseResponseCloseDelimited(t *testing.T) {
	raw := "HTTP/1.0 200 OK\r\n\r\neverything until eof"
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "everything until eof" {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestWriteReadRequestRoundTrip(t *testing.T) {
	req := NewRequest("POST", "/x", []byte("payload"))
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	req.Header.Set("SOAPAction", `""`)
	var b bytes.Buffer
	if err := WriteRequest(&b, req, true); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&b), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Get("SOAPAction") != `""` || string(got.Body) != "payload" {
		t.Errorf("round trip = %+v", got)
	}
	if got.Header.Get("Connection") != "close" {
		t.Error("Connection: close not set")
	}
}

// startServer starts a Server with the given handler on a loopback listener
// and returns its address plus a cleanup function.
func startServer(t *testing.T, h Handler) (string, *Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: h}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv
}

func tcpClient(addr string, keepAlive bool) *Client {
	return &Client{
		Dial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
		KeepAlive: keepAlive,
		Timeout:   5 * time.Second,
	}
}

func echoHandler(_ context.Context, req *Request) *Response {
	resp := NewResponse(200, req.Body)
	resp.Header.Set("Content-Type", req.Header.Get("Content-Type"))
	return resp
}

func TestServerClientEcho(t *testing.T) {
	addr, _ := startServer(t, echoHandler)
	c := tcpClient(addr, false)
	defer c.Close()
	resp, err := c.Post("/echo", "text/plain", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "ping" {
		t.Errorf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestServerKeepAliveReuse(t *testing.T) {
	var conns int32
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: echoHandler}
	go srv.Serve(l)
	defer srv.Close()

	c := &Client{
		Dial: func() (net.Conn, error) {
			atomic.AddInt32(&conns, 1)
			return net.Dial("tcp", l.Addr().String())
		},
		KeepAlive: true,
		Timeout:   5 * time.Second,
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		resp, err := c.Post("/", "text/plain", []byte(fmt.Sprintf("req-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != fmt.Sprintf("req-%d", i) {
			t.Errorf("resp %d = %q", i, resp.Body)
		}
	}
	if n := atomic.LoadInt32(&conns); n != 1 {
		t.Errorf("dialed %d connections with keep-alive, want 1", n)
	}
}

func TestClientNoKeepAliveDialsPerRequest(t *testing.T) {
	var conns int32
	addr, _ := startServer(t, echoHandler)
	c := &Client{
		Dial: func() (net.Conn, error) {
			atomic.AddInt32(&conns, 1)
			return net.Dial("tcp", addr)
		},
		KeepAlive: false,
		Timeout:   5 * time.Second,
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Post("/", "text/plain", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := atomic.LoadInt32(&conns); n != 3 {
		t.Errorf("dialed %d connections without keep-alive, want 3", n)
	}
}

func TestServerHandlesConcurrentConnections(t *testing.T) {
	addr, _ := startServer(t, func(_ context.Context, req *Request) *Response {
		time.Sleep(10 * time.Millisecond)
		return NewResponse(200, req.Body)
	})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := tcpClient(addr, false)
			defer c.Close()
			resp, err := c.Post("/", "text/plain", []byte(fmt.Sprintf("%d", i)))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if string(resp.Body) != fmt.Sprintf("%d", i) {
				t.Errorf("request %d got %q", i, resp.Body)
			}
		}(i)
	}
	wg.Wait()
	// 16 concurrent 10ms handlers should take far less than 16*10ms.
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Errorf("concurrent requests took %v, expected parallel handling", elapsed)
	}
}

func TestServerPanicBecomes500(t *testing.T) {
	addr, _ := startServer(t, func(_ context.Context, req *Request) *Response {
		panic("boom")
	})
	c := tcpClient(addr, false)
	defer c.Close()
	resp, err := c.Post("/", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
}

func TestServerBadRequestGets400(t *testing.T) {
	addr, _ := startServer(t, echoHandler)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "TOTAL GARBAGE\r\n\r\n")
	resp, err := ReadResponse(bufio.NewReader(conn), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestServerClose(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: echoHandler}
	done := make(chan error, 1)
	accepting := make(chan struct{})
	go func() { done <- srv.Serve(acceptNotifyListener{l, accepting}) }()
	<-accepting
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// acceptNotifyListener closes accepting when Serve first calls Accept.
type acceptNotifyListener struct {
	net.Listener
	accepting chan struct{}
}

func (l acceptNotifyListener) Accept() (net.Conn, error) {
	select {
	case <-l.accepting:
	default:
		close(l.accepting)
	}
	return l.Listener.Accept()
}

func TestClientRetryOnStaleConnection(t *testing.T) {
	// Server that closes every connection after one response, while the
	// client believes keep-alive is in effect.
	addr, _ := startServer(t, func(_ context.Context, req *Request) *Response {
		resp := NewResponse(200, []byte("ok"))
		resp.Header.Set("Connection", "close")
		return resp
	})
	c := tcpClient(addr, true)
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Post("/", "text/plain", nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if string(resp.Body) != "ok" {
			t.Errorf("request %d body = %q", i, resp.Body)
		}
	}
}

func TestHTTP10DefaultsToClose(t *testing.T) {
	var h Header
	if !wantsClose("HTTP/1.0", &h) {
		t.Error("HTTP/1.0 without keep-alive should close")
	}
	h.Set("Connection", "keep-alive")
	if wantsClose("HTTP/1.0", &h) {
		t.Error("HTTP/1.0 with keep-alive should not close")
	}
	var h11 Header
	if wantsClose("HTTP/1.1", &h11) {
		t.Error("HTTP/1.1 default should not close")
	}
}

func TestClientClosed(t *testing.T) {
	addr, _ := startServer(t, echoHandler)
	c := tcpClient(addr, true)
	c.Close()
	if _, err := c.Post("/", "text/plain", nil); err == nil {
		t.Error("Do after Close succeeded")
	}
}

// TestGracefulShutdownDrains: Shutdown waits for the exchanges in flight,
// and every request whose handler ran is answered before the connection
// closes.
func TestGracefulShutdownDrains(t *testing.T) {
	for _, tc := range []struct {
		name          string
		window, burst int
	}{
		{"serial", 0, 1},
		{"pipelined", 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			release := make(chan struct{})
			started := make(chan struct{}, tc.burst)
			srv := &Server{MaxPipeline: tc.window, Handler: func(_ context.Context, req *Request) *Response {
				started <- struct{}{}
				<-release
				return NewResponse(200, []byte("drained"))
			}}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(l) }()

			// Start the burst's requests in flight.
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, strings.Repeat(rawRequest("/", "x"), tc.burst)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.burst; i++ {
				<-started
			}

			// Shutdown must wait for them. Serve returns once Shutdown has
			// closed the listener and is draining.
			shutDone := make(chan error, 1)
			go func() { shutDone <- srv.Shutdown(5 * time.Second) }()
			serveErr := <-done
			select {
			case <-shutDone:
				t.Fatal("Shutdown returned while a request was in flight")
			default:
			}
			close(release)
			br := bufio.NewReader(conn)
			for i := 0; i < tc.burst; i++ {
				resp, err := ReadResponse(br, 0)
				if err != nil {
					t.Fatalf("in-flight request %d of %d: %v", i, tc.burst, err)
				}
				if got := string(resp.Body); got != "drained" {
					t.Errorf("in-flight request %d got %q", i, got)
				}
			}
			if _, err := br.ReadByte(); err != io.EOF {
				t.Errorf("connection still open after the drain: %v", err)
			}
			if err := <-shutDone; err != nil {
				t.Fatal(err)
			}
			if serveErr != ErrServerClosed {
				t.Errorf("Serve returned %v", serveErr)
			}
		})
	}
}

// TestShutdownClosesIdleKeepAlive: Shutdown closes a keep-alive connection
// with no exchange on it at once, while another connection's exchange holds
// the drain open. A request sent on the idle connection after the drain has
// begun is not served.
func TestShutdownClosesIdleKeepAlive(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan string, 4)
	srv := &Server{Handler: func(_ context.Context, req *Request) *Response {
		started <- string(req.Body)
		if string(req.Body) == "held" {
			<-release
		}
		return NewResponse(200, req.Body)
	}}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// One connection is left idle after an exchange; another holds the
	// drain open with an exchange in flight.
	idle, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idleBR := bufio.NewReader(idle)
	if _, err := io.WriteString(idle, rawRequest("/", "first")); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadResponse(idleBR, 0); err != nil || string(resp.Body) != "first" {
		t.Fatalf("exchange on the keep-alive connection = %v, %v", resp, err)
	}
	<-started
	busy, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if _, err := io.WriteString(busy, rawRequest("/", "held")); err != nil {
		t.Fatal(err)
	}
	<-started

	shutDone := make(chan error, 1)
	go func() { shutDone <- srv.Shutdown(5 * time.Second) }()
	<-done // the drain has begun

	io.WriteString(idle, rawRequest("/", "late"))
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if resp, err := ReadResponse(idleBR, 0); err == nil {
		t.Fatalf("a request on an idle connection was served during the drain: %d %q", resp.StatusCode, resp.Body)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the idle connection is still open during the drain")
	}
	select {
	case body := <-started:
		t.Fatalf("the handler ran for %q during the drain", body)
	default:
	}

	close(release)
	if resp, err := ReadResponse(bufio.NewReader(busy), 0); err != nil || string(resp.Body) != "held" {
		t.Fatalf("the exchange in flight = %v, %v; want it answered", resp, err)
	}
	if err := <-shutDone; err != nil {
		t.Fatal(err)
	}
}

func TestShutdownTimeoutForcesClose(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hang := make(chan struct{})
	started := make(chan struct{}, 1)
	srv := &Server{Handler: func(_ context.Context, req *Request) *Response {
		started <- struct{}{}
		<-hang
		return NewResponse(200, nil)
	}}
	go srv.Serve(l)
	go func() {
		c := tcpClient(l.Addr().String(), false)
		defer c.Close()
		c.Post("/", "text/plain", nil)
	}()
	<-started
	start := time.Now()
	shutErr := make(chan error, 1)
	go func() { shutErr <- srv.Shutdown(50 * time.Millisecond) }()
	close(hang) // let the handler finish so Close's wg.Wait can complete
	if err := <-shutErr; err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("shutdown took %v despite 50ms timeout", elapsed)
	}
}

func TestHTTPPipelining(t *testing.T) {
	// Two requests written back-to-back before any response is read: the
	// serve loop must answer both, in order.
	addr, _ := startServer(t, echoHandler)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 2; i++ {
		req := NewRequest("POST", "/", []byte(fmt.Sprintf("pipelined-%d", i)))
		if err := WriteRequest(conn, req, false); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		resp, err := ReadResponse(br, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if want := fmt.Sprintf("pipelined-%d", i); string(resp.Body) != want {
			t.Errorf("response %d = %q, want %q", i, resp.Body, want)
		}
	}
}

func TestLargeHeaderRejected(t *testing.T) {
	addr, _ := startServer(t, echoHandler)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST / HTTP/1.1\r\nX-Huge: %s\r\n\r\n", strings.Repeat("x", MaxHeaderBytes+10))
	resp, err := ReadResponse(bufio.NewReader(conn), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestProtocolErrorMessage(t *testing.T) {
	err := protoErrf("bad thing %d", 7)
	if err.Error() != "httpx: bad thing 7" {
		t.Errorf("Error() = %q", err.Error())
	}
}

func TestReasonPhrases(t *testing.T) {
	for _, code := range []int{100, 200, 202, 400, 404, 405, 408, 411, 413, 500, 503, 599} {
		if reasonPhrase(code) == "" {
			t.Errorf("no reason phrase for %d", code)
		}
	}
}
