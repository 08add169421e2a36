package httpx

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestDialCtxHungDialCancelledAtDeadline pins the satellite fix: a dial
// that never completes must not outlive the request deadline.
func TestDialCtxHungDialCancelledAtDeadline(t *testing.T) {
	c := &Client{
		DialCtx: func(ctx context.Context) (net.Conn, error) {
			<-ctx.Done() // a hung dial: only the context ends it
			return nil, ctx.Err()
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.DoCtx(ctx, NewRequest("POST", "/", []byte("x")))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected error from hung dial")
	}
	var de *DialError
	if !errors.As(err, &de) {
		t.Fatalf("expected DialError, got %T: %v", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline expiry through DialError, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("dial not interrupted at deadline: took %v", elapsed)
	}
}

// TestDialCtxPreferredOverDial checks the context-aware dialer wins when
// both are set.
func TestDialCtxPreferredOverDial(t *testing.T) {
	link := netsim.NewLink(netsim.Fast())
	defer link.Close()
	l, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	legacyUsed := false
	c := &Client{
		Dial: func() (net.Conn, error) {
			legacyUsed = true
			return link.Dial()
		},
		DialCtx: func(ctx context.Context) (net.Conn, error) { return link.Dial() },
	}
	// The server closes immediately, so the exchange fails — only the
	// dial routing matters here.
	_, _ = c.DoCtx(context.Background(), NewRequest("POST", "/", nil))
	if legacyUsed {
		t.Fatal("legacy Dial used although DialCtx was set")
	}
}

// TestMaxActiveBoundsConcurrency verifies the bounded pool: with
// MaxActive=2, a third exchange waits for a slot and its wait honors the
// context.
func TestMaxActiveBoundsConcurrency(t *testing.T) {
	link := netsim.NewLink(netsim.Fast())
	defer link.Close()
	l, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}

	// A server that parks requests until released, so exchanges stay
	// in flight as long as the test wants.
	release := make(chan struct{})
	arrived := make(chan struct{}, 2)
	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				buf := make([]byte, 4096)
				if _, err := conn.Read(buf); err != nil {
					return
				}
				arrived <- struct{}{}
				<-release
				_, _ = conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"))
			}(conn)
		}
	}()

	c := &Client{Dial: link.Dial, MaxActive: 2}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.DoCtx(context.Background(), NewRequest("POST", "/", []byte("x")))
			errs <- err
		}()
	}
	// Wait until both exchanges occupy their slots: their requests have
	// arrived.
	timeout := time.After(2 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-timeout:
			t.Fatalf("exchanges did not start: %+v", c.PoolStats())
		}
	}
	if st := c.PoolStats(); st.InFlight != 2 {
		t.Fatalf("exchanges did not start: %+v", st)
	}

	// Third exchange: no slot free, must fail with the context error.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = c.DoCtx(ctx, NewRequest("POST", "/", []byte("x")))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected slot wait to expire, got %v", err)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("parked exchange failed: %v", err)
		}
	}
	if got := c.PoolStats().InFlight; got != 0 {
		t.Fatalf("in-flight count leaked: %d", got)
	}
	wg.Wait()
}
