package httpx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

func TestDoCtxRejectsDoneContext(t *testing.T) {
	addr, _ := startServer(t, echoHandler)
	c := tcpClient(addr, false)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.PostCtx(ctx, "/echo", "text/plain", []byte("x"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCancelAbortsInFlightExchange(t *testing.T) {
	// The handler parks until its context dies; cancelling the client
	// context must abort the blocked read promptly by closing the conn.
	addr, _ := startServer(t, func(ctx context.Context, req *Request) *Response {
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
		return NewResponse(200, nil)
	})
	c := tcpClient(addr, false)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.PostCtx(ctx, "/park", "text/plain", []byte("x"))
	if err == nil {
		t.Fatal("want error from cancelled exchange")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancel took %v to unblock", elapsed)
	}
}

func TestDeadlineBoundsExchange(t *testing.T) {
	addr, _ := startServer(t, func(ctx context.Context, req *Request) *Response {
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
		return NewResponse(200, nil)
	})
	c := tcpClient(addr, false)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.PostCtx(ctx, "/park", "text/plain", []byte("x"))
	if err == nil {
		t.Fatal("want error from expired exchange")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v to unblock", elapsed)
	}
}

func TestHandlerCtxCancelledOnClientDisconnect(t *testing.T) {
	// On a Connection: close exchange, the server watches the socket and
	// cancels the handler's context when the peer goes away — also when
	// that exchange closes a pipelined burst.
	closing := "POST /park HTTP/1.1\r\nConnection: close\r\nContent-Length: 4\r\n\r\npark"
	for _, window := range []int{0, 4} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			parked := make(chan struct{})
			sawCancel := make(chan struct{})
			addr, _ := startPipelinedServer(t, window, func(ctx context.Context, req *Request) *Response {
				if string(req.Body) == "park" {
					close(parked)
					select {
					case <-ctx.Done():
						close(sawCancel)
					case <-time.After(5 * time.Second):
					}
				}
				return NewResponse(200, req.Body)
			})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, rawRequest("/x", "one")+closing); err != nil {
				t.Fatal(err)
			}
			if resp, err := ReadResponse(bufio.NewReader(conn), 0); err != nil || string(resp.Body) != "one" {
				t.Fatalf("response to the request ahead = %v, %v", resp, err)
			}
			<-parked
			conn.Close() // the peer leaves mid-exchange
			select {
			case <-sawCancel:
			case <-time.After(2 * time.Second):
				t.Fatal("handler context never cancelled after client disconnect")
			}
		})
	}
}

func TestHandlerCtxCancelledOnServerClose(t *testing.T) {
	// Close cancels the base context, releasing parked handlers.
	started := make(chan struct{})
	released := make(chan struct{})
	addr, srv := startServer(t, func(ctx context.Context, req *Request) *Response {
		close(started)
		select {
		case <-ctx.Done():
			close(released)
		case <-time.After(5 * time.Second):
		}
		return NewResponse(200, nil)
	})
	c := tcpClient(addr, false)
	defer c.Close()
	go c.Post("/park", "text/plain", []byte("x"))
	<-started
	srv.Close()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("handler not released by server close")
	}
}

func TestKeepAliveExchangeStillWorksWithCtx(t *testing.T) {
	// Keep-alive connections skip the peer-disconnect watcher (it would
	// steal the next request's bytes); plain ctx-carrying exchanges must
	// still work and reuse the connection.
	addr, _ := startServer(t, echoHandler)
	c := tcpClient(addr, true)
	defer c.Close()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, err := c.PostCtx(ctx, "/echo", "text/plain", []byte("ka"))
		cancel()
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if string(resp.Body) != "ka" {
			t.Fatalf("exchange %d body = %q", i, resp.Body)
		}
	}
}
