package httpx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/trace"
)

// Dialer opens a new connection to the server. It abstracts over real TCP
// and the simulated link of package netsim.
type Dialer func() (net.Conn, error)

// DialerCtx is a context-aware Dialer: the context's deadline and
// cancellation bound connection establishment itself, not just the
// exchange that follows. net.Dialer.DialContext satisfies it directly;
// netsim links wrap their Dial in one line.
type DialerCtx func(ctx context.Context) (net.Conn, error)

// DialError wraps a connection-establishment failure. Because the request
// was never written when dialing failed, a DialError is always safe to
// retry regardless of the operation's idempotency — the distinction the
// client retry policy keys on.
type DialError struct {
	// Err is the underlying dial failure.
	Err error
}

// Error implements the error interface.
func (e *DialError) Error() string { return "httpx: dial: " + e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *DialError) Unwrap() error { return e.Err }

// Client issues HTTP requests over connections produced by Dial.
//
// Connection reuse is the experimental variable in the paper's baselines, so
// it is explicit here: with KeepAlive false every request dials a fresh
// connection and sends "Connection: close" (the behaviour of the paper's
// per-message SOAP clients); with KeepAlive true idle connections are pooled
// and reused.
type Client struct {
	// Dial is required unless DialCtx is set.
	Dial Dialer
	// DialCtx, when set, is preferred over Dial: connection establishment
	// is cancelled when the request's context expires, so deadline
	// propagation covers the dial, not just the exchange.
	DialCtx DialerCtx
	// KeepAlive selects connection reuse.
	KeepAlive bool
	// MaxIdle caps the number of pooled idle connections (default 16).
	MaxIdle int
	// MaxActive bounds concurrent exchanges (a health-check-friendly
	// backpressure seam for pool consumers like the gateway). Zero means
	// unbounded. Waiting for a slot honors the request context.
	MaxActive int
	// Timeout bounds one full request-response exchange; zero means none.
	Timeout time.Duration
	// Pipeline enables HTTP/1.1 pipelining on keep-alive connections: up
	// to MaxPerConn exchanges share one connection, responses matched
	// FIFO. Ignored unless KeepAlive is set. A transport error fails every
	// exchange in flight on that connection; the usual retry-once-on-stale
	// logic applies per caller. See pipeclient.go.
	Pipeline bool
	// MaxPerConn caps in-flight exchanges per pipelined connection
	// (default 8). Only meaningful with Pipeline.
	MaxPerConn int
	// MaxBodyBytes caps response bodies; zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Tracer, when enabled, records one client.send span per exchange
	// covering dial/reuse, request write and response read. Nil disables
	// tracing at the cost of one branch per exchange.
	Tracer *trace.Tracer

	mu       sync.Mutex
	idle     []*persistConn
	pipes    []*pipeConn // live pipelined connections (Pipeline mode)
	closed   bool
	sem      chan struct{} // lazily sized to MaxActive
	inflight int
}

// PoolStats is a point-in-time view of the client's connection pool.
type PoolStats struct {
	// Idle is the number of pooled keep-alive connections.
	Idle int
	// InFlight is the number of exchanges currently running.
	InFlight int
}

// PoolStats reports the pool's current occupancy. Pipelined connections
// with no exchange in flight count as idle.
func (c *Client) PoolStats() PoolStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	idle := len(c.idle)
	for _, pc := range c.pipes {
		if pc.inflight.Load() == 0 {
			idle++
		}
	}
	return PoolStats{Idle: idle, InFlight: c.inflight}
}

// acquire claims an exchange slot (when MaxActive bounds the pool) and
// counts the exchange in flight. The returned release must be called once
// the exchange ends.
func (c *Client) acquire(ctx context.Context) (func(), error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	if c.MaxActive > 0 && c.sem == nil {
		c.sem = make(chan struct{}, c.MaxActive)
	}
	sem := c.sem
	c.mu.Unlock()
	if sem != nil {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("httpx: waiting for exchange slot: %w", ctx.Err())
		}
	}
	c.mu.Lock()
	c.inflight++
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		c.inflight--
		c.mu.Unlock()
		if sem != nil {
			<-sem
		}
	}, nil
}

type persistConn struct {
	conn net.Conn
	br   *bufio.Reader
	host string // peerHost(conn), formatted once per connection
}

// errClientClosed is returned by DoCtx after Close.
var errClientClosed = errors.New("httpx: client closed")

// DoCtx sends the request and returns the response. It retries once on a
// stale pooled connection (the server may have closed it between requests).
// The context's deadline bounds the exchange
// (combined with Timeout, whichever is sooner) and cancelling it closes
// the in-flight connection, unblocking the exchange immediately. With
// DialCtx set the dial itself is cancellable too; the legacy Dialer runs
// uninterrupted (its signature predates contexts), which only matters for
// dials that can hang — simulated and loopback dials complete in
// microseconds.
func (c *Client) DoCtx(ctx context.Context, req *Request) (*Response, error) {
	if !c.Tracer.Enabled() {
		return c.doCtx(ctx, req)
	}
	start := time.Now()
	resp, err := c.doCtx(ctx, req)
	c.Tracer.Record(trace.Span{
		Trace:   trace.FromContext(ctx),
		Stage:   trace.StageClientSend,
		ID:      -1,
		Op:      req.Method + " " + req.Target,
		Start:   start,
		Service: time.Since(start),
	})
	return resp, err
}

// doCtx performs the exchange (see DoCtx).
func (c *Client) doCtx(ctx context.Context, req *Request) (*Response, error) {
	if c.Dial == nil && c.DialCtx == nil {
		return nil, errors.New("httpx: client has no Dial")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("httpx: %w", err)
	}
	if c.Pipeline && c.KeepAlive {
		return c.doPipelined(ctx, req)
	}
	release, err := c.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	reused := false
	pc, err := c.getConn(ctx, &reused)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, pc, req)
	if err != nil && reused && ctx.Err() == nil {
		// Stale keep-alive connection: retry once on a fresh one.
		pc.conn.Close()
		reused = false
		pc, err = c.getConn(ctx, &reused)
		if err != nil {
			return nil, err
		}
		resp, err = c.roundTrip(ctx, pc, req)
	}
	if err != nil {
		pc.conn.Close()
		// The raw conn error after a cancel/expiry is incidental; report
		// the context's own error so callers classify it correctly.
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("httpx: exchange aborted: %w", cerr)
		}
		return nil, err
	}

	if c.KeepAlive && !wantsClose(resp.Proto, &resp.Header) {
		c.putConn(pc)
	} else {
		pc.conn.Close()
	}
	return resp, nil
}

func (c *Client) roundTrip(ctx context.Context, pc *persistConn, req *Request) (*Response, error) {
	deadline := time.Time{}
	if c.Timeout > 0 {
		deadline = time.Now().Add(c.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		_ = pc.conn.SetDeadline(deadline)
	}
	if ctx.Done() != nil {
		// Cancellation watcher: closing the connection is the only way to
		// unblock a Write/Read already in progress.
		stop := make(chan struct{})
		watcherDone := make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-ctx.Done():
				pc.conn.Close()
			case <-stop:
			}
		}()
		defer func() {
			close(stop)
			<-watcherDone
		}()
	}
	if err := writeRequest(pc.conn, req, !c.KeepAlive, pc.host); err != nil {
		return nil, fmt.Errorf("httpx: write request: %w", err)
	}
	resp, err := ReadResponse(pc.br, c.MaxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("httpx: read response: %w", err)
	}
	return resp, nil
}

func (c *Client) getConn(ctx context.Context, reused *bool) (*persistConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	if c.KeepAlive && len(c.idle) > 0 {
		pc := c.idle[len(c.idle)-1]
		c.idle = c.idle[:len(c.idle)-1]
		c.mu.Unlock()
		*reused = true
		return pc, nil
	}
	c.mu.Unlock()
	var conn net.Conn
	var err error
	if c.DialCtx != nil {
		conn, err = c.DialCtx(ctx)
	} else {
		conn, err = c.Dial()
	}
	if err != nil {
		return nil, &DialError{Err: err}
	}
	return &persistConn{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), host: peerHost(conn)}, nil
}

func (c *Client) putConn(pc *persistConn) {
	maxIdle := c.MaxIdle
	if maxIdle <= 0 {
		maxIdle = 16
	}
	_ = pc.conn.SetDeadline(time.Time{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= maxIdle {
		pc.conn.Close()
		return
	}
	c.idle = append(c.idle, pc)
}

// CloseIdle drops the pooled idle connections without closing the client:
// in-flight exchanges are unaffected and new requests still dial. This is
// the keep-alive teardown a drained-but-resumable backend needs — Close is
// terminal (subsequent requests fail), so a gateway draining a backend it
// may later resume must use CloseIdle instead.
func (c *Client) CloseIdle() {
	c.mu.Lock()
	for _, pc := range c.idle {
		pc.conn.Close()
	}
	c.idle = nil
	var idlePipes []*pipeConn
	for _, pc := range c.pipes {
		if pc.inflight.Load() == 0 {
			idlePipes = append(idlePipes, pc)
		}
	}
	c.mu.Unlock()
	// fail re-locks c.mu (removePipeConn), so it runs outside the lock.
	for _, pc := range idlePipes {
		pc.fail(errClientClosed)
	}
}

// Close drops all pooled connections; in-flight exchanges are unaffected
// (pipelined in-flight exchanges fail — their connection is shared state
// the client owns).
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	for _, pc := range c.idle {
		pc.conn.Close()
	}
	c.idle = nil
	pipes := c.pipes
	c.pipes = nil
	c.mu.Unlock()
	for _, pc := range pipes {
		pc.fail(errClientClosed)
	}
}

// Post is a convenience for POSTing a body with a content type, the only
// verb SOAP uses.
func (c *Client) Post(target, contentType string, body []byte, extra ...string) (*Response, error) {
	return c.PostCtx(context.Background(), target, contentType, body, extra...)
}

// PostCtx is Post under a context (see DoCtx for its semantics).
func (c *Client) PostCtx(ctx context.Context, target, contentType string, body []byte, extra ...string) (*Response, error) {
	if len(extra)%2 != 0 {
		return nil, errors.New("httpx: Post extra headers must be name/value pairs")
	}
	req := NewRequest("POST", target, body)
	req.Header.Set("Content-Type", contentType)
	for i := 0; i+1 < len(extra); i += 2 {
		req.Header.Set(extra[i], extra[i+1])
	}
	return c.DoCtx(ctx, req)
}
