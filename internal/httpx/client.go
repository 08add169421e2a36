package httpx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
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
// per-message SOAP clients); with KeepAlive true connections are pooled and
// reused, and a MaxPerConn above 1 pipelines them.
//
// There is one kind of connection and no read loop: an exchange writes its
// request, waits for the read turn (its response is next on the wire) and
// reads that response on its caller's goroutine. At a window of one the turn
// is always free, so an exchange is a write and then a read.
type Client struct {
	// Dial is required unless DialCtx is set.
	Dial Dialer
	// DialCtx, when set, is preferred over Dial: the request's context
	// ends the connection attempt itself, where a Dial it outlasts is left
	// to finish on a goroutine of its own.
	DialCtx DialerCtx
	// KeepAlive selects connection reuse.
	KeepAlive bool
	// MaxIdle caps the pooled connections with no exchange in flight
	// (default 16).
	MaxIdle int
	// MaxActive bounds concurrent exchanges (a health-check-friendly
	// backpressure seam for pool consumers like the gateway). Zero means
	// unbounded. Waiting for a slot honors the request context.
	MaxActive int
	// Timeout bounds an exchange's request write and its response read;
	// zero means none. An exchange that outlives it fails its connection.
	Timeout time.Duration
	// MaxPerConn is the pipelining window of a keep-alive connection: how
	// many requests it carries written and unanswered, responses matched
	// FIFO. 0 or 1: one exchange per connection.
	MaxPerConn int
	// MaxBodyBytes caps response bodies; zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Tracer, when enabled, records one client.send span per exchange
	// covering dial/reuse, request write and response read. Nil disables
	// tracing at the cost of one branch per exchange.
	Tracer *trace.Tracer

	mu       sync.Mutex
	conns    []*conn // pooled connections, busy and idle
	idle     int     // pooled connections with no exchange on them
	closed   bool
	sem      chan struct{} // lazily sized to MaxActive
	inflight int
}

// conn is one client connection; responses come back in request (seq) order.
type conn struct {
	nc     net.Conn
	br     *bufio.Reader
	host   string        // peerHost(nc), formatted once per connection
	window int           // requests it may carry written and unanswered
	wsem   chan struct{} // holds a token while a request is written; nil at window 1

	// Guarded by Client.mu.
	turn   sync.Cond // broadcast when the read turn may have moved
	pooled bool
	users  int      // exchanges on the connection that have not returned
	gone   []uint64 // seqs whose exchange gave up before its response began
	sent   uint64   // requests written: the next writer's seq
	head   uint64   // responses read: the seq of the next one on the wire
	writer uint64   // seq+1 of the request being written; 0 when none
	reader uint64   // seq+1 of the exchange holding the read turn; 0 when none
	err    error    // why the connection failed; set once
}

var (
	// errClientClosed is returned by DoCtx after Close.
	errClientClosed = errors.New("httpx: client closed")
	errConnClosed   = errors.New("httpx: connection closed")
	errServerClosed = errors.New("httpx: server closed the connection")
	errAbandoned    = errors.New("httpx: connection dropped: an exchange on it gave up mid-message")
)

// PoolStats is a point-in-time view of the client's connection pool.
type PoolStats struct {
	// Idle is the number of pooled connections with no exchange in flight.
	Idle int
	// InFlight is the number of exchanges currently running.
	InFlight int
}

// PoolStats reports the pool's current occupancy.
func (c *Client) PoolStats() PoolStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PoolStats{Idle: c.idle, InFlight: c.inflight}
}

// enter claims an exchange slot (when MaxActive bounds the pool) and counts
// the exchange in flight; exit undoes it.
func (c *Client) enter(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClientClosed
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
			return fmt.Errorf("httpx: waiting for exchange slot: %w", ctx.Err())
		}
	}
	c.mu.Lock()
	c.inflight++
	c.mu.Unlock()
	return nil
}

func (c *Client) exit() {
	c.mu.Lock()
	c.inflight--
	sem := c.sem
	c.mu.Unlock()
	if sem != nil {
		<-sem
	}
}

// DoCtx sends the request and returns the response. A reused connection
// that fails before any byte of the response arrives is retried once on a
// fresh one (the server may have closed it between requests). The context
// bounds the exchange as Timeout does, whichever ends first: an exchange
// whose context ends before its response begins leaves its place to the
// exchanges behind it, and a connection left with none on it closes. The
// context bounds the dial too (see dial).
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
	if err := c.enter(ctx); err != nil {
		return nil, err
	}
	defer c.exit()
	cn, reused, err := c.getConn(ctx, false)
	if err != nil {
		return nil, err
	}
	resp, unanswered, err := c.exchange(ctx, cn, req)
	if err != nil && reused && unanswered && ctx.Err() == nil {
		// Stale keep-alive connection: retry once on a fresh one.
		if cn, _, err = c.getConn(ctx, true); err != nil {
			return nil, err
		}
		resp, _, err = c.exchange(ctx, cn, req)
	}
	if err != nil {
		// The raw conn error after a cancel/expiry is incidental; report
		// the context's own error so callers classify it correctly.
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("httpx: exchange aborted: %w", cerr)
		}
		return nil, err
	}
	return resp, nil
}

// getConn joins the least-loaded pooled connection with room, or dials a new
// one (always, when fresh).
func (c *Client) getConn(ctx context.Context, fresh bool) (cn *conn, reused bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, errClientClosed
	}
	for i := len(c.conns) - 1; i >= 0 && !fresh; i-- {
		p := c.conns[i]
		if n := p.users + len(p.gone); n < p.window && (cn == nil || n < cn.users+len(cn.gone)) {
			cn = p
		}
	}
	if cn != nil {
		if cn.users == 0 {
			c.idle--
		}
		cn.users++
		c.mu.Unlock()
		return cn, true, nil
	}
	c.mu.Unlock()
	nc, err := c.dial(ctx)
	if err != nil {
		return nil, false, &DialError{Err: err}
	}
	cn = &conn{nc: nc, br: bufio.NewReaderSize(nc, 16<<10), host: peerHost(nc), window: 1, users: 1}
	cn.turn.L = &c.mu
	if c.KeepAlive && c.MaxPerConn > 1 {
		cn.window = c.MaxPerConn
		cn.wsem = make(chan struct{}, 1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		nc.Close()
		return nil, false, errClientClosed
	}
	if c.KeepAlive {
		cn.pooled = true
		c.conns = append(c.conns, cn)
	}
	return cn, false, nil
}

// dial opens a connection that ctx bounds: through DialCtx, or through Dial
// on a goroutine of its own that the caller leaves when ctx ends first (the
// connection, if one comes later, is closed).
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	if c.DialCtx != nil {
		return c.DialCtx(ctx)
	}
	if ctx.Done() == nil {
		return c.Dial()
	}
	type dialed struct {
		nc  net.Conn
		err error
	}
	done := make(chan dialed, 1)
	go func() {
		nc, err := c.Dial()
		done <- dialed{nc, err}
	}()
	select {
	case d := <-done:
		return d.nc, d.err
	case <-ctx.Done():
		go func() {
			if d := <-done; d.nc != nil {
				d.nc.Close()
			}
		}()
		return nil, ctx.Err()
	}
}

// exchange sends req on cn, which the caller has joined, and reads its
// response. unanswered reports that no byte of the response arrived, so the
// request may go again on another connection.
func (c *Client) exchange(ctx context.Context, cn *conn, req *Request) (resp *Response, unanswered bool, err error) {
	// interrupt watches the context, so only Timeout is a connection
	// deadline: when one passes, the connection has timed out. Setting one
	// fails only on a closed connection, whose next read or write says so.
	var deadline time.Time
	if c.Timeout > 0 {
		deadline = time.Now().Add(c.Timeout)
	}
	if cn.wsem != nil {
		select {
		case cn.wsem <- struct{}{}:
		case <-ctx.Done():
			c.mu.Lock()
			c.releaseLocked(cn)
			c.mu.Unlock()
			return nil, true, ctx.Err()
		}
	}
	c.mu.Lock()
	if err := cn.err; err != nil {
		c.mu.Unlock()
		if cn.wsem != nil {
			<-cn.wsem
		}
		return nil, true, err
	}
	seq := cn.sent
	cn.sent++
	cn.writer = seq + 1
	_ = cn.nc.SetWriteDeadline(deadline)
	c.mu.Unlock()
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() { c.interrupt(cn, seq) })()
	}
	werr := writeRequest(cn.nc, req, !c.KeepAlive, cn.host)
	c.mu.Lock()
	if cn.writer = 0; cn.wsem != nil {
		<-cn.wsem // under c.mu, so the next writer sets cn.writer after this
	}
	if werr != nil {
		defer c.mu.Unlock()
		return nil, true, c.failIOLocked(ctx, cn, "write request", werr)
	}
	for cn.err == nil && ctx.Err() == nil && !cn.readyLocked(seq) {
		cn.turn.Wait()
	}
	if err := cn.err; err != nil {
		c.mu.Unlock()
		return nil, true, err
	}
	if ctx.Err() != nil {
		c.leaveLocked(cn, seq)
		c.mu.Unlock()
		return nil, false, ctx.Err()
	}
	cn.reader = seq + 1
	_ = cn.nc.SetReadDeadline(deadline)
	skip := seq - cn.head
	c.mu.Unlock()

	// Read past the responses of exchanges that gave up, then this one's.
	for ; skip > 0 && err == nil; skip-- {
		if resp, err = ReadResponse(cn.br, c.MaxBodyBytes); err == nil && wantsClose(resp.Proto, &resp.Header) {
			err = errServerClosed
		}
	}
	if err != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		return nil, true, c.failIOLocked(ctx, cn, "read response", err)
	}
	_, perr := cn.br.Peek(1)
	if perr == nil {
		resp, err = ReadResponse(cn.br, c.MaxBodyBytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cn.head = seq
	cn.gone = slices.DeleteFunc(cn.gone, func(s uint64) bool { return s < seq })
	switch {
	case perr != nil && cn.err == nil && ctx.Err() != nil && errors.Is(perr, os.ErrDeadlineExceeded):
		// Gave up before the response began: the connection is still
		// whole for the exchanges behind this one.
		c.leaveLocked(cn, seq)
		return nil, false, ctx.Err()
	case perr != nil:
		return nil, true, c.failIOLocked(ctx, cn, "read response", perr)
	case err != nil:
		return nil, false, c.failIOLocked(ctx, cn, "read response", err)
	}
	cn.head++
	cn.reader = 0
	cn.turn.Broadcast()
	if cn.pooled && wantsClose(resp.Proto, &resp.Header) {
		c.failLocked(cn, errServerClosed)
	}
	c.releaseLocked(cn) // closes a connection that is not pooled
	return resp, false, nil
}

// readyLocked reports whether seq may take the read turn: nobody holds it,
// and every response ahead of seq is one an exchange gave up.
func (cn *conn) readyLocked(seq uint64) bool {
	if cn.reader != 0 {
		return false
	}
	for s := cn.head; s < seq; s++ {
		if !slices.Contains(cn.gone, s) {
			return false
		}
	}
	return true
}

// leaveLocked gives up seq's exchange before its response began: the next
// reader reads past that response, and a connection left with no exchange
// on it closes.
func (c *Client) leaveLocked(cn *conn, seq uint64) {
	cn.gone = append(cn.gone, seq)
	if cn.reader == seq+1 {
		cn.reader = 0
	}
	if cn.users--; cn.users == 0 {
		c.failLocked(cn, errAbandoned)
	}
	cn.turn.Broadcast()
}

// releaseLocked ends the caller's use of cn. A pooled connection left with
// nothing in flight turns idle, unless the client is closed or MaxIdle
// connections are idle already.
func (c *Client) releaseLocked(cn *conn) {
	if cn.users--; cn.users > 0 || cn.err != nil {
		return
	}
	maxIdle := c.MaxIdle
	if maxIdle <= 0 {
		maxIdle = 16
	}
	if !cn.pooled || c.closed || c.idle >= maxIdle || len(cn.gone) > 0 {
		c.failLocked(cn, errConnClosed)
		return
	}
	c.idle++
}

// failLocked closes cn for good: it leaves the pool, and every exchange
// waiting on it gets err.
func (c *Client) failLocked(cn *conn, err error) {
	if cn.err != nil {
		return
	}
	cn.err = err
	cn.nc.Close()
	if cn.pooled {
		c.conns = slices.DeleteFunc(c.conns, func(p *conn) bool { return p == cn })
	}
	cn.turn.Broadcast()
}

// failIOLocked fails cn after an exchange's write or read did, and returns
// what that exchange reports: the connection's first failure, whoever
// caused it.
func (c *Client) failIOLocked(ctx context.Context, cn *conn, op string, err error) error {
	switch {
	case ctx.Err() != nil:
		err = errAbandoned
	case errors.Is(err, os.ErrDeadlineExceeded):
		err = fmt.Errorf("httpx: %s: exchange timed out: %w", op, err)
	default:
		err = fmt.Errorf("httpx: %s: %w", op, err)
	}
	c.failLocked(cn, err)
	return cn.err
}

// interrupt ends seq's blocked write or read once its context has ended. A
// deadline in the past ends the I/O: a write it cuts short fails the
// connection, and a read that had not begun leaves the connection whole for
// the exchanges behind it. A read no other exchange waits behind closes the
// connection instead. An exchange waiting for its turn is woken to see its
// context.
func (c *Client) interrupt(cn *conn, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case cn.writer == seq+1:
		_ = cn.nc.SetWriteDeadline(time.Unix(1, 0))
	case cn.reader == seq+1 && cn.users == 1:
		c.failLocked(cn, errAbandoned)
	case cn.reader == seq+1:
		_ = cn.nc.SetReadDeadline(time.Unix(1, 0))
	default:
		cn.turn.Broadcast()
	}
}

// CloseIdle drops the pooled idle connections without closing the client:
// in-flight exchanges are unaffected and new requests still dial. This is
// the keep-alive teardown a drained-but-resumable backend needs — Close is
// terminal (subsequent requests fail), so a gateway draining a backend it
// may later resume must use CloseIdle instead.
func (c *Client) CloseIdle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeIdleLocked()
}

// Close drops the idle connections and refuses new exchanges; exchanges in
// flight finish, and their connections close after them.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.closeIdleLocked()
}

func (c *Client) closeIdleLocked() {
	for i := len(c.conns) - 1; i >= 0; i-- {
		if cn := c.conns[i]; cn.users == 0 {
			c.failLocked(cn, errConnClosed)
			c.idle--
		}
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
