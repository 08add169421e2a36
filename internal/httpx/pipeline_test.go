package httpx

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startPipelinedServer starts a Server with pipelining enabled.
func startPipelinedServer(t *testing.T, window int, h Handler) (string, *Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: h, MaxPipeline: window}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv
}

func rawRequest(target, body string) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s",
		target, len(body), body)
}

// TestServerPipelinedInOrder: a burst of pipelined requests whose handlers
// finish out of order (earlier requests are slower) must still produce
// responses in request order.
func TestServerPipelinedInOrder(t *testing.T) {
	const n = 6
	addr, _ := startPipelinedServer(t, n, func(_ context.Context, req *Request) *Response {
		// Request i sleeps (n-i) ms: request 0 finishes last.
		var i int
		fmt.Sscanf(string(req.Body), "req-%d", &i)
		time.Sleep(time.Duration(n-i) * 5 * time.Millisecond)
		return NewResponse(200, []byte(fmt.Sprintf("resp-%d", i)))
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var burst bytes.Buffer
	for i := 0; i < n; i++ {
		burst.WriteString(rawRequest("/x", fmt.Sprintf("req-%d", i)))
	}
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		resp, err := ReadResponse(br, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if want := fmt.Sprintf("resp-%d", i); string(resp.Body) != want {
			t.Fatalf("response %d body = %q, want %q (out of order)", i, resp.Body, want)
		}
	}
}

// TestServerPipelineWindowBounds: the in-flight window must bound handler
// concurrency even when the client floods far more requests than the window.
func TestServerPipelineWindowBounds(t *testing.T) {
	const window = 3
	const n = 24
	var cur, max atomic.Int32
	addr, _ := startPipelinedServer(t, window, func(_ context.Context, req *Request) *Response {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return NewResponse(200, req.Body)
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var burst bytes.Buffer
	for i := 0; i < n; i++ {
		burst.WriteString(rawRequest("/x", fmt.Sprintf("%02d", i)))
	}
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		if _, err := ReadResponse(br, 0); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	// The reader may hold one parsed request beyond the queue while submit
	// blocks, so allow window+1.
	if m := max.Load(); m > window+1 {
		t.Fatalf("handler concurrency reached %d, want <= %d", m, window+1)
	}
}

// TestServerPipelinedProtocolError: accepted requests answer first, then
// the malformed one draws a 400 and the connection closes — the 400 never
// jumps the queue.
func TestServerPipelinedProtocolError(t *testing.T) {
	addr, _ := startPipelinedServer(t, 8, func(_ context.Context, req *Request) *Response {
		time.Sleep(5 * time.Millisecond) // let the reader hit the garbage first
		return NewResponse(200, req.Body)
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := rawRequest("/x", "one") + rawRequest("/x", "two") + "GARBAGE\r\n\r\n"
	if _, err := conn.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i, want := range []string{"one", "two"} {
		resp, err := ReadResponse(br, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.StatusCode != 200 || string(resp.Body) != want {
			t.Fatalf("response %d = %d %q, want 200 %q", i, resp.StatusCode, resp.Body, want)
		}
	}
	resp, err := ReadResponse(br, 0)
	if err != nil {
		t.Fatalf("expected a 400 response, got %v", err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after 400: %v", err)
	}
}

// TestServerPipelinedConnectionClose: a Connection: close request in a
// pipelined burst is the final exchange; its response carries the close.
func TestServerPipelinedConnectionClose(t *testing.T) {
	addr, _ := startPipelinedServer(t, 8, echoHandler)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	closing := fmt.Sprintf("POST /x HTTP/1.1\r\nConnection: close\r\nContent-Length: 4\r\n\r\nlast")
	if _, err := conn.Write([]byte(rawRequest("/x", "one") + closing)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	r1, err := ReadResponse(br, 0)
	if err != nil || string(r1.Body) != "one" {
		t.Fatalf("response 1 = %v, %v", r1, err)
	}
	r2, err := ReadResponse(br, 0)
	if err != nil || string(r2.Body) != "last" {
		t.Fatalf("response 2 = %v, %v", r2, err)
	}
	if !wantsClose(r2.Proto, &r2.Header) {
		t.Fatal("final response does not carry Connection: close")
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open: %v", err)
	}
}

// TestPipelinedMatchesSerialBytes: the differential pin — a pipelined burst
// must produce byte-for-byte the responses a serial keep-alive client sees.
func TestPipelinedMatchesSerialBytes(t *testing.T) {
	handler := func(_ context.Context, req *Request) *Response {
		if string(req.Body) == "fault" {
			resp := NewResponse(500, []byte("<fault>boom</fault>"))
			resp.Header.Set("Content-Type", "text/xml; charset=utf-8")
			return resp
		}
		resp := NewResponse(200, req.Body)
		resp.Header.Set("Content-Type", req.Header.Get("Content-Type"))
		return resp
	}
	bodies := []string{"alpha", "fault", "gamma", strings.Repeat("d", 2048), "fault", "zeta"}

	// Serial keep-alive: one request at a time on one connection.
	serialAddr, _ := startServer(t, handler)
	sconn, err := net.Dial("tcp", serialAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sconn.Close()
	sbr := bufio.NewReader(sconn)
	var serial bytes.Buffer
	for _, b := range bodies {
		if _, err := sconn.Write([]byte(rawRequest("/x", b))); err != nil {
			t.Fatal(err)
		}
		if err := readRawResponse(sbr, &serial); err != nil {
			t.Fatal(err)
		}
	}

	// Pipelined: the whole burst at once.
	pipeAddr, _ := startPipelinedServer(t, 4, handler)
	pconn, err := net.Dial("tcp", pipeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pconn.Close()
	var burst bytes.Buffer
	for _, b := range bodies {
		burst.WriteString(rawRequest("/x", b))
	}
	if _, err := pconn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	pbr := bufio.NewReader(pconn)
	var pipelined bytes.Buffer
	for range bodies {
		if err := readRawResponse(pbr, &pipelined); err != nil {
			t.Fatal(err)
		}
	}

	if !bytes.Equal(serial.Bytes(), pipelined.Bytes()) {
		t.Fatalf("pipelined response bytes differ from serial:\nserial:\n%q\npipelined:\n%q",
			serial.Bytes(), pipelined.Bytes())
	}
}

// readRawResponse copies one Content-Length-framed response verbatim into w.
func readRawResponse(br *bufio.Reader, w *bytes.Buffer) error {
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

// TestClientPipelineSharesConn: once warm, a pipelined client multiplexes
// concurrent exchanges over a single connection instead of dialing per
// concurrent call.
func TestClientPipelineSharesConn(t *testing.T) {
	gate := make(chan struct{})
	arrived := make(chan string, 16)
	addr := startFIFOServer(t, arrived, func(body string) {
		if body != "warm" {
			<-gate
		}
	})
	var dials atomic.Int32
	c := &Client{
		Dial: func() (net.Conn, error) {
			dials.Add(1)
			return net.Dial("tcp", addr)
		},
		KeepAlive:  true,
		MaxPerConn: 8,
		Timeout:    5 * time.Second,
	}
	defer c.Close()

	// Warm up one connection so the burst has something to share.
	if _, err := c.Post("/x", "text/plain", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	<-arrived

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf("call-%d", i)
			resp, err := c.Post("/x", "text/plain", []byte(body))
			if err != nil {
				errs[i] = err
				return
			}
			if string(resp.Body) != body {
				errs[i] = fmt.Errorf("body = %q, want %q (FIFO mismatch)", resp.Body, body)
			}
		}(i)
	}
	for i := 0; i < n; i++ { // all 8 are on the wire of the shared conn
		<-arrived
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("dialed %d connections for 8 concurrent calls at window 8, want 1", d)
	}
}

// TestClientPipelineSurvivesConnDrop: a server that closes the connection
// after every response must not surface errors — the stale-connection
// retry (or a fresh dial) absorbs each drop.
func TestClientPipelineSurvivesConnDrop(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				req, err := ReadRequest(br, 0)
				if err != nil {
					return
				}
				WriteResponse(conn, NewResponse(200, req.Body), false)
				// Silently drop the connection: the next exchange on it
				// fails and must be retried elsewhere.
			}(conn)
		}
	}()

	c := &Client{
		Dial:       func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
		KeepAlive:  true,
		MaxPerConn: 8,
		Timeout:    5 * time.Second,
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf("drop-%d", i)
		resp, err := c.Post("/x", "text/plain", []byte(body))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(resp.Body) != body {
			t.Fatalf("call %d body = %q, want %q", i, resp.Body, body)
		}
	}
}

// TestClientPipelineCancelAbandonsSlot: a cancelled caller abandons its
// FIFO slot; the connection stays healthy for later exchanges.
func TestClientPipelineCancelAbandonsSlot(t *testing.T) {
	release := make(chan struct{})
	arrived := make(chan struct{})
	addr, _ := startPipelinedServer(t, 8, func(_ context.Context, req *Request) *Response {
		if string(req.Body) == "block" {
			close(arrived)
			<-release
		}
		return NewResponse(200, req.Body)
	})
	c := &Client{
		Dial:       func() (net.Conn, error) { return net.Dial("tcp", addr) },
		KeepAlive:  true,
		MaxPerConn: 8,
		Timeout:    5 * time.Second,
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		req := NewRequest("POST", "/x", []byte("block"))
		req.Header.Set("Content-Type", "text/plain")
		_, err := c.DoCtx(ctx, req)
		errCh <- err
	}()
	<-arrived // the request is on the wire
	cancel()
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "exchange aborted") {
		t.Fatalf("cancelled call error = %v, want exchange aborted", err)
	}
	close(release) // let the server answer the abandoned slot

	resp, err := c.Post("/x", "text/plain", []byte("after"))
	if err != nil {
		t.Fatalf("call after cancel: %v", err)
	}
	if string(resp.Body) != "after" {
		t.Fatalf("body = %q, want %q (FIFO misaligned after abandon)", resp.Body, "after")
	}
}

// TestClientPipelineTimeoutKillsConn: the Timeout alarm fails the whole
// connection when an exchange overruns Client.Timeout.
func TestClientPipelineTimeoutKillsConn(t *testing.T) {
	addr, _ := startPipelinedServer(t, 8, func(_ context.Context, req *Request) *Response {
		time.Sleep(time.Second)
		return NewResponse(200, req.Body)
	})
	c := &Client{
		Dial:       func() (net.Conn, error) { return net.Dial("tcp", addr) },
		KeepAlive:  true,
		MaxPerConn: 8,
		Timeout:    50 * time.Millisecond,
	}
	defer c.Close()
	_, err := c.Post("/x", "text/plain", []byte("slow"))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want pipelined exchange timeout", err)
	}
	st := c.PoolStats()
	if st.Idle != 0 {
		t.Fatalf("timed-out connection still pooled: %+v", st)
	}
}
