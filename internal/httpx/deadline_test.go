package httpx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// The server's per-exchange deadlines, seen from the peer: a connection that
// stalls past ReadTimeout or WriteTimeout is closed, with one exchange in
// flight or behind a pipelined burst.

const (
	testReadTimeout = 150 * time.Millisecond
	// deadlineSlack bounds how late a closed connection may be noticed.
	deadlineSlack = 2 * time.Second
)

// startDeadlineServer starts srv on a loopback listener and returns its
// address.
func startDeadlineServer(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// awaitClosed reads from br until the server closes the connection, and
// fails the test unless that happens between min and max after start.
// Whatever bytes still arrive are discarded.
func awaitClosed(t *testing.T, conn net.Conn, br *bufio.Reader, start time.Time, min, max time.Duration) {
	t.Helper()
	conn.SetReadDeadline(start.Add(max))
	_, err := io.Copy(io.Discard, br)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after the stall", elapsed)
	}
	if elapsed < min {
		t.Fatalf("connection closed after %v, before the %v timeout", elapsed, min)
	}
}

// TestReadTimeoutDropsStalledHead: a peer that sends half a request head and
// stalls is disconnected once ReadTimeout passes, with no response.
func TestReadTimeoutDropsStalledHead(t *testing.T) {
	t.Parallel()
	addr := startDeadlineServer(t, &Server{Handler: echoHandler, ReadTimeout: testReadTimeout})
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /x HTTP/1.1\r\nContent-Le"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	awaitClosed(t, conn, br, start, testReadTimeout, testReadTimeout+deadlineSlack)
}

// TestReadTimeoutDropsStalledPipelinedHead: the same behind a pipelined
// burst — two requests in one write, then a partial third.
// Both owed responses arrive, then the connection closes.
func TestReadTimeoutDropsStalledPipelinedHead(t *testing.T) {
	t.Parallel()
	addr := startDeadlineServer(t, &Server{Handler: echoHandler, ReadTimeout: testReadTimeout, MaxPipeline: 4})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := rawRequest("/x", "one") + rawRequest("/x", "two") + "POST /x HTTP/1.1\r\nContent-Le"
	start := time.Now()
	if _, err := io.WriteString(conn, burst); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(deadlineSlack))
	br := bufio.NewReader(conn)
	for _, want := range []string{"one", "two"} {
		resp, err := ReadResponse(br, 0)
		if err != nil {
			t.Fatalf("owed response %q: %v", want, err)
		}
		if string(resp.Body) != want {
			t.Fatalf("response body = %q, want %q", resp.Body, want)
		}
	}
	awaitClosed(t, conn, br, start, testReadTimeout/2, testReadTimeout+deadlineSlack)
}

// TestReadTimeoutClosesIdleKeepAlive: ReadTimeout also bounds the wait for
// the next request, so an idle keep-alive connection is closed.
func TestReadTimeoutClosesIdleKeepAlive(t *testing.T) {
	t.Parallel()
	addr := startDeadlineServer(t, &Server{Handler: echoHandler, ReadTimeout: testReadTimeout})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, rawRequest("/x", "ping")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := ReadResponse(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "ping" {
		t.Fatalf("response body = %q, want %q", resp.Body, "ping")
	}
	start := time.Now()
	awaitClosed(t, conn, br, start, testReadTimeout/2, testReadTimeout+deadlineSlack)
}

// TestReadTimeoutExcludesHandlerTime: ReadTimeout bounds the wait for a
// request only while no response is owed, at every window. The peer
// pipelines two requests whose handlers outlast ReadTimeout, reads both
// responses and sends a third at once; the third is answered.
func TestReadTimeoutExcludesHandlerTime(t *testing.T) {
	t.Parallel()
	for _, window := range []int{0, 4} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			t.Parallel()
			addr := startDeadlineServer(t, &Server{
				Handler: func(ctx context.Context, req *Request) *Response {
					time.Sleep(testReadTimeout * 3 / 2)
					return echoHandler(ctx, req)
				},
				ReadTimeout: testReadTimeout,
				MaxPipeline: window,
			})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(deadlineSlack))
			if _, err := io.WriteString(conn, rawRequest("/x", "one")+rawRequest("/x", "two")); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			for _, want := range []string{"one", "two", "three"} {
				if want == "three" {
					if _, err := io.WriteString(conn, rawRequest("/x", want)); err != nil {
						t.Fatal(err)
					}
				}
				resp, err := ReadResponse(br, 0)
				if err != nil {
					t.Fatalf("response %q: %v", want, err)
				}
				if string(resp.Body) != want {
					t.Fatalf("response body = %q, want %q", resp.Body, want)
				}
			}
		})
	}
}

// closeNotifyListener hands out connections that close closed when the
// server closes them, so a test can see the server give up on a peer that
// is not reading.
type closeNotifyListener struct {
	net.Listener
	closed chan struct{}
}

func (l closeNotifyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &closeNotifyConn{Conn: c, closed: l.closed}, nil
}

type closeNotifyConn struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *closeNotifyConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestWriteTimeoutDropsStalledReader: a peer that stops reading a response
// larger than the socket buffers is disconnected once WriteTimeout passes,
// so only part of the response ever reaches it.
func TestWriteTimeoutDropsStalledReader(t *testing.T) {
	t.Parallel()
	const writeTimeout = 150 * time.Millisecond
	body := make([]byte, 8<<20)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	srv := &Server{
		Handler:      func(context.Context, *Request) *Response { return NewResponse(200, body) },
		WriteTimeout: writeTimeout,
	}
	go srv.Serve(closeNotifyListener{Listener: l, closed: closed})
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, rawRequest("/x", "big")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(writeTimeout + deadlineSlack):
		t.Fatal("server still holds the connection of a peer that stopped reading")
	}
	if elapsed := time.Since(start); elapsed < writeTimeout {
		t.Fatalf("connection closed after %v, before the %v timeout", elapsed, writeTimeout)
	}
	conn.SetReadDeadline(time.Now().Add(deadlineSlack))
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after the server closed it (%d bytes read)", n)
	}
	if n >= int64(len(body)) {
		t.Fatalf("read %d bytes: the whole %d-byte body arrived despite the stalled reader", n, len(body))
	}
}

// TestShutdownStopsDrainAlarm: Shutdown's drain alarm only bounds the wait
// for in-flight exchanges. An idle server shuts down at once whatever the
// timeout.
func TestShutdownStopsDrainAlarm(t *testing.T) {
	t.Parallel()
	srv := &Server{Handler: echoHandler}
	startDeadlineServer(t, srv)
	start := time.Now()
	if err := srv.Shutdown(time.Hour); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > deadlineSlack {
		t.Fatalf("Shutdown(time.Hour) of an idle server took %v", elapsed)
	}
}

// TestShutdownTimeoutClosesStuckConn: with a handler that only returns once
// the server cancels its context, Shutdown waits out its timeout, then closes
// the connection.
func TestShutdownTimeoutClosesStuckConn(t *testing.T) {
	t.Parallel()
	const timeout = 150 * time.Millisecond
	started := make(chan struct{})
	srv := &Server{Handler: func(ctx context.Context, _ *Request) *Response {
		close(started)
		<-ctx.Done()
		return NewResponse(200, []byte("late"))
	}}
	addr := startDeadlineServer(t, srv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, rawRequest("/x", "stuck")); err != nil {
		t.Fatal(err)
	}
	<-started
	start := time.Now()
	if err := srv.Shutdown(timeout); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed < timeout || elapsed > timeout+deadlineSlack {
		t.Fatalf("Shutdown(%v) with a stuck handler returned after %v", timeout, elapsed)
	}
	conn.SetReadDeadline(time.Now().Add(deadlineSlack))
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open after Shutdown returned")
	}
	if n != 0 {
		t.Fatalf("read %d bytes: the stuck exchange was answered", n)
	}
}

// TestClientWriteDeadline: the client bounds its request write as it bounds
// the response read — by Timeout or by the context's deadline — at a window
// of one and at a pipelined window alike. The peer accepts and never reads,
// so a 64 MiB body fills the socket buffers and the write blocks.
func TestClientWriteDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
	})
	body := make([]byte, 64<<20)
	for _, tc := range []struct {
		name        string
		window      int
		timeout     time.Duration
		ctxDeadline time.Duration
		want        error
	}{
		{"window1/Timeout", 1, 200 * time.Millisecond, 0, os.ErrDeadlineExceeded},
		{"window1/ctx", 1, 0, 300 * time.Millisecond, context.DeadlineExceeded},
		{"window8/Timeout", 8, 200 * time.Millisecond, 0, os.ErrDeadlineExceeded},
		{"window8/ctx", 8, 0, 300 * time.Millisecond, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Client{
				Dial:       func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
				KeepAlive:  true,
				MaxPerConn: tc.window,
				Timeout:    tc.timeout,
			}
			defer c.Close()
			ctx := context.Background()
			if tc.ctxDeadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.ctxDeadline)
				defer cancel()
			}
			start := time.Now()
			errCh := make(chan error, 1)
			go func() {
				_, err := c.PostCtx(ctx, "/x", "application/octet-stream", body)
				errCh <- err
			}()
			select {
			case err := <-errCh:
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				if elapsed := time.Since(start); elapsed > time.Second {
					t.Fatalf("write to a stalled peer returned after %v", elapsed)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("write to a stalled peer still blocked after 3s")
			}
		})
	}
}
