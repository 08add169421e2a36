package httpx

import (
	"bufio"
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The client's connection contract, pinned at the two windows the pool
// runs: one exchange per connection, and a pipelined window of eight.

// countingClient is a keep-alive client that counts its dials.
func countingClient(addr string, window int, dials *atomic.Int32) *Client {
	return &Client{
		Dial: func() (net.Conn, error) {
			dials.Add(1)
			return net.Dial("tcp", addr)
		},
		KeepAlive:  true,
		MaxPerConn: window,
		Timeout:    5 * time.Second,
	}
}

// arrivals is a handler that reports each request body as it arrives and
// answers it with the body once release[body] is closed (or at once when the
// body has no gate).
func arrivals(arrived chan<- string, gates map[string]chan struct{}) Handler {
	return func(ctx context.Context, req *Request) *Response {
		body := string(req.Body)
		arrived <- body
		if g, ok := gates[body]; ok {
			select {
			case <-g:
			case <-ctx.Done():
			}
		}
		return NewResponse(200, req.Body)
	}
}

// startFIFOServer serves raw connections the way a pipelining peer does from
// its first request on: every request is read as soon as it arrives and
// reported on arrived, and responses go out in request order, each one once
// hold returns for its body.
func startFIFOServer(t *testing.T, arrived chan<- string, hold func(body string)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			queue := make(chan string, 64)
			go func() {
				defer close(queue)
				br := bufio.NewReader(conn)
				for {
					req, err := ReadRequest(br, 0)
					if err != nil {
						return
					}
					queue <- string(req.Body)
					arrived <- string(req.Body)
				}
			}()
			go func() {
				defer conn.Close()
				for body := range queue {
					hold(body)
					if WriteResponse(conn, NewResponse(200, []byte(body)), false) != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// TestClientAbandonedSlotBehindHead: at window 8, A is held at the head, B
// gives up behind it and C follows. A and C each get their own body over the
// one connection; B's response is discarded, not handed to C.
func TestClientAbandonedSlotBehindHead(t *testing.T) {
	arrived := make(chan string, 8)
	releaseA := make(chan struct{})
	addr := startFIFOServer(t, arrived, func(body string) {
		if body == "A" {
			<-releaseA
		}
	})
	var dials atomic.Int32
	c := countingClient(addr, 8, &dials)
	defer c.Close()

	type result struct {
		body string
		err  error
	}
	post := func(ctx context.Context, body string) <-chan result {
		ch := make(chan result, 1)
		go func() {
			req := NewRequest("POST", "/x", []byte(body))
			resp, err := c.DoCtx(ctx, req)
			if err != nil {
				ch <- result{err: err}
				return
			}
			ch <- result{body: string(resp.Body)}
		}()
		return ch
	}

	a := post(context.Background(), "A")
	if got := <-arrived; got != "A" {
		t.Fatalf("arrival = %q, want A", got)
	}
	bctx, cancelB := context.WithCancel(context.Background())
	b := post(bctx, "B")
	if got := <-arrived; got != "B" {
		t.Fatalf("arrival = %q, want B", got)
	}
	cancelB()
	if r := <-b; r.err == nil || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled B = %q, %v; want exchange aborted", r.body, r.err)
	}
	cr := post(context.Background(), "C")
	if got := <-arrived; got != "C" {
		t.Fatalf("arrival = %q, want C", got)
	}
	close(releaseA)
	for name, ch := range map[string]<-chan result{"A": a, "C": cr} {
		r := <-ch
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		if r.body != name {
			t.Fatalf("%s got body %q (FIFO misaligned by the abandoned slot)", name, r.body)
		}
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("dialed %d connections, want 1", d)
	}
}

// TestClientCancelDropsWindowOneConn: a window-1 exchange cancelled in
// flight takes its connection with it — nothing is left idle, and the next
// call dials a second connection.
func TestClientCancelDropsWindowOneConn(t *testing.T) {
	arrived := make(chan string, 4)
	park := make(chan struct{})
	defer close(park)
	addr, _ := startServer(t, arrivals(arrived, map[string]chan struct{}{"park": park}))
	var dials atomic.Int32
	c := countingClient(addr, 1, &dials)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.PostCtx(ctx, "/x", "text/plain", []byte("park"))
		errCh <- err
	}()
	<-arrived
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exchange err = %v, want context.Canceled", err)
	}
	if st := c.PoolStats(); st.Idle != 0 || st.InFlight != 0 {
		t.Fatalf("after cancel: %+v, want nothing idle or in flight", st)
	}
	resp, err := c.Post("/x", "text/plain", []byte("next"))
	<-arrived
	if err != nil || string(resp.Body) != "next" {
		t.Fatalf("next call = %v, %v", resp, err)
	}
	if d := dials.Load(); d != 2 {
		t.Fatalf("dialed %d connections, want 2", d)
	}
}

// TestClientTimeoutIsDeadlineExceeded: a window-1 exchange that outlives
// Client.Timeout fails with an error that is os.ErrDeadlineExceeded.
func TestClientTimeoutIsDeadlineExceeded(t *testing.T) {
	arrived := make(chan string, 1)
	park := make(chan struct{})
	defer close(park)
	addr, _ := startServer(t, arrivals(arrived, map[string]chan struct{}{"slow": park}))
	var dials atomic.Int32
	c := countingClient(addr, 1, &dials)
	c.Timeout = 50 * time.Millisecond
	defer c.Close()
	_, err := c.Post("/x", "text/plain", []byte("slow"))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want os.ErrDeadlineExceeded", err)
	}
	if st := c.PoolStats(); st.Idle != 0 {
		t.Fatalf("timed-out connection still pooled: %+v", st)
	}
}

// TestClientCloseLetsExchangeFinish: Close during a window-1 exchange lets
// that exchange complete; only later calls are refused.
func TestClientCloseLetsExchangeFinish(t *testing.T) {
	arrived := make(chan string, 1)
	hold := make(chan struct{})
	addr, _ := startServer(t, arrivals(arrived, map[string]chan struct{}{"held": hold}))
	var dials atomic.Int32
	c := countingClient(addr, 1, &dials)
	type result struct {
		resp *Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.Post("/x", "text/plain", []byte("held"))
		done <- result{resp, err}
	}()
	<-arrived
	c.Close()
	close(hold)
	r := <-done
	if r.err != nil || string(r.resp.Body) != "held" {
		t.Fatalf("exchange in flight at Close = %v, %v; want it to finish", r.resp, r.err)
	}
	if _, err := c.Post("/x", "text/plain", []byte("later")); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("call after Close err = %v, want client closed", err)
	}
}

// TestClientNoResendOfReadRequest: at window 8, B is pipelined behind A on
// one connection, and the server reads both and then closes the connection.
// B was read, so it is not sent again on a fresh connection: only an
// exchange that joined an idle connection is re-sent, and B's error goes to
// its caller, whose retry policy knows whether B may run twice.
func TestClientNoResendOfReadRequest(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	arrived := make(chan string, 8)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// A and B are read on one connection, which then closes; a
			// request on any other connection is answered.
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					req, err := ReadRequest(br, 0)
					if err != nil {
						return
					}
					arrived <- string(req.Body)
					switch string(req.Body) {
					case "A":
						continue
					case "B":
						return
					}
					if WriteResponse(conn, NewResponse(200, req.Body), false) != nil {
						return
					}
				}
			}()
		}
	}()
	var dials atomic.Int32
	c := countingClient(l.Addr().String(), 8, &dials)
	defer c.Close()

	errs := make(chan error, 2)
	post := func(body string) {
		go func() {
			_, err := c.Post("/x", "text/plain", []byte(body))
			errs <- err
		}()
	}
	post("A")
	if got := <-arrived; got != "A" {
		t.Fatalf("arrival = %q, want A", got)
	}
	post("B")
	if got := <-arrived; got != "B" {
		t.Fatalf("arrival = %q, want B", got)
	}
	for range 2 {
		if err := <-errs; err == nil {
			t.Fatal("an exchange on the closed connection succeeded")
		}
	}
	select {
	case got := <-arrived:
		t.Fatalf("%q arrived again after the server had read it", got)
	default:
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("dialed %d connections, want 1", d)
	}
}
