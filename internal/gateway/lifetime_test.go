package gateway

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/soap"
)

// The request body a handler reads is a pooled buffer the transport reuses
// for the connection's next request as soon as the handler returns. What the
// gateway sends a backend after that must not be read from it. These tests
// give the body back — overwrite it — while a sub-batch is still on its way,
// and check the backend gets the original bytes.

// gatedConn is a backend connection that holds the first write until the test
// opens its gate, records everything written, and answers nothing: a read
// hands the recorded request to the test and then waits for Close. A client
// that gave up while its write was held closes the connection instead of
// reading, so a write and a Close, in either order, hand the request over
// too.
type gatedConn struct {
	gate    chan struct{} // closed by the test
	started chan struct{} // closed when the first write arrives
	written chan []byte   // the request as written, at the first read or once written and closed
	closed  chan struct{}

	startOnce, readOnce, closeOnce sync.Once
	mu                             sync.Mutex
	buf                            []byte
}

func newGatedConn(open bool) *gatedConn {
	c := &gatedConn{
		gate:    make(chan struct{}),
		started: make(chan struct{}),
		written: make(chan []byte, 1),
		closed:  make(chan struct{}),
	}
	if open {
		close(c.gate)
	}
	return c
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.startOnce.Do(func() { close(c.started) })
	<-c.gate
	c.mu.Lock()
	c.buf = append(c.buf, p...)
	c.mu.Unlock()
	select {
	case <-c.closed:
		c.deliver()
	default:
	}
	return len(p), nil
}

func (c *gatedConn) Read([]byte) (int, error) {
	c.deliver()
	<-c.closed
	return 0, net.ErrClosed
}

func (c *gatedConn) deliver() {
	c.readOnce.Do(func() {
		c.mu.Lock()
		c.written <- bytes.Clone(c.buf)
		c.mu.Unlock()
	})
}

func (c *gatedConn) Close() error {
	c.mu.Lock()
	wrote := len(c.buf) > 0
	c.mu.Unlock()
	if wrote {
		c.deliver()
	}
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *gatedConn) LocalAddr() net.Addr  { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 2} }
func (c *gatedConn) RemoteAddr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1} }

// Deadlines are ignored, so a write the gate held still goes out after the
// exchange's deadline has passed.
func (c *gatedConn) SetDeadline(time.Time) error      { return nil }
func (c *gatedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *gatedConn) SetWriteDeadline(time.Time) error { return nil }

// gatedGateway is a gateway whose one backend is conn.
func gatedGateway(t *testing.T, conn *gatedConn, mutate func(*Config)) *Gateway {
	t.Helper()
	cfg := Config{
		Backends: []BackendConfig{{Name: "gated", DialCtx: func(context.Context) (net.Conn, error) { return conn, nil }}},
		Registry: testContainer(t),
		Retry:    &core.RetryPolicy{MaxAttempts: 1},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// handleAsync runs g.Handle on req under ctx and delivers the reply's status.
func handleAsync(g *Gateway, ctx context.Context, req *httpx.Request) <-chan int {
	done := make(chan int, 1)
	go func() {
		resp := g.Handle(ctx, req)
		done <- resp.StatusCode
		resp.Release()
	}()
	return done
}

// overwrite gives a request body back, as the transport does when it reads the
// connection's next request into the same buffer.
func overwrite(body []byte) {
	for i := range body {
		body[i] = 'x'
	}
}

// TestSubBatchOutlivesRequestBody: the one backend holds the sub-batch's write
// while the caller gives up and every slot degrades; Handle returns and the
// body is overwritten; then the write goes out, and it is the sub-batch of the
// original request.
func TestSubBatchOutlivesRequestBody(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc := packedDocWith(v, ` xmlns:m="urn:spi:Echo" spi:service="Echo"`, []string{
			`<m:echo><p0>first &amp; one</p0></m:echo>`,
			`<m:echo spi:id="7"><p0><![CDATA[<second/>]]></p0></m:echo>`,
			`<m:empty/>`,
		})
		sr, fault := core.ParseScatterRequest(bytes.Clone(doc), "")
		if fault != nil {
			t.Fatal(fault)
		}
		want, err := core.BuildSubBatch(sr.Version, sr.Headers, sr.Entries)
		if err != nil {
			t.Fatal(err)
		}

		conn := newGatedConn(false)
		g := gatedGateway(t, conn, nil)
		req := httpx.NewRequest("POST", "/services", doc)
		req.Header.Set("Content-Type", v.ContentType())
		ctx, cancel := context.WithCancel(context.Background())
		done := handleAsync(g, ctx, req)
		<-conn.started
		cancel()
		if status := <-done; status != 200 {
			t.Fatalf("%v: degraded reply answered HTTP %d", v, status)
		}
		overwrite(req.Body)
		close(conn.gate)
		if got := <-conn.written; !bytes.HasSuffix(got, want) {
			t.Errorf("%v: the backend got\n%s\nwant a request whose body is\n%s", v, got, want)
		}
		g.Close()
	}
}

// TestParkedCallOutlivesRequestBody: a coalesced single call parks, its caller
// gives up, and its body is overwritten; a second call then fills the batch,
// which goes out carrying the first call's original entry.
func TestParkedCallOutlivesRequestBody(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		first := singleCallDoc(v, `<m:echo xmlns:m="urn:spi:Echo"><msg>parked &amp; gone</msg></m:echo>`)
		second := singleCallDoc(v, `<m:echo xmlns:m="urn:spi:Echo"><msg>second</msg></m:echo>`)
		var entries []*core.ScatterEntry
		for i, doc := range [][]byte{first, second} {
			sr, _ := core.ParseCoalescible(bytes.Clone(doc), "Echo", nil)
			if sr == nil || sr.Single == nil {
				t.Fatalf("%v: call %d is not coalescible", v, i)
			}
			sr.Single.SealID(i)
			entries = append(entries, sr.Single)
		}
		want, err := core.BuildSubBatch(v, nil, entries)
		if err != nil {
			t.Fatal(err)
		}

		conn := newGatedConn(true)
		holdBatches(t) // only the cap seals the batch
		g := gatedGateway(t, conn, func(cfg *Config) {
			cfg.Coalesce = CoalesceConfig{Enabled: true, MaxBatch: 2}
		})
		post := func(ctx context.Context, doc []byte) (*httpx.Request, <-chan int) {
			req := httpx.NewRequest("POST", "/services/Echo", doc)
			req.Header.Set("Content-Type", v.ContentType())
			return req, handleAsync(g, ctx, req)
		}
		ctx1, cancel1 := context.WithCancel(context.Background())
		req1, done1 := post(ctx1, first)
		for deadline := time.Now().Add(5 * time.Second); g.Stats().Coalesced < 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%v: the first call never parked: %+v", v, g.Stats())
			}
		}
		cancel1()
		if status := <-done1; status != 500 {
			t.Fatalf("%v: the abandoned call answered HTTP %d, want its 500 fault", v, status)
		}
		overwrite(req1.Body)

		ctx2, cancel2 := context.WithCancel(context.Background())
		_, done2 := post(ctx2, second)
		if got := <-conn.written; !bytes.HasSuffix(got, want) {
			t.Errorf("%v: the backend got\n%s\nwant a request whose body is\n%s", v, got, want)
		}
		cancel2()
		<-done2
		g.Close()
	}
}
