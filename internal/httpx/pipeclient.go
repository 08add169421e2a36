package httpx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client-side HTTP/1.1 pipelining.
//
// With Client.Pipeline set, keep-alive connections carry up to MaxPerConn
// exchanges at once: requests are written back-to-back and responses are
// matched to callers strictly FIFO by a per-connection read loop. A pool
// that needed one connection per concurrent exchange needs one per
// MaxPerConn — the gateway's backend pools shrink accordingly, and a
// request no longer waits for a free connection behind an unrelated
// exchange's round trip.
//
// Failure semantics are the classic pipelining trade: any transport error
// fails every exchange in flight on that connection (callers retry through
// the same stale-connection logic the serial path uses), and a caller that
// cancels abandons its response slot — the read loop still consumes the
// response to keep the FIFO aligned, the connection stays healthy.

// pipeConn is one pipelined connection.
type pipeConn struct {
	owner *Client
	conn  net.Conn
	br    *bufio.Reader
	host  string // peerHost(conn)

	// wmu serializes request writes; the FIFO append happens under it so
	// queue order always matches wire order.
	wmu sync.Mutex

	mu    sync.Mutex
	queue []*pipeCall // in-flight, wire order

	// selection hints readable without mu (getPipeConn holds Client.mu).
	inflight atomic.Int64
	broken   atomic.Bool

	failErr error // first transport error; guarded by mu
}

// pipeCall is one caller's slot in the FIFO.
type pipeCall struct {
	ch        chan pipeResult // buffered(1): delivery never blocks the read loop
	abandoned atomic.Bool     // caller gave up (ctx cancelled); drop the response
}

type pipeResult struct {
	resp *Response
	err  error
}

// doPipelined is doCtx for pipelined keep-alive clients: same slot
// accounting, same retry-once-on-stale-connection contract.
func (c *Client) doPipelined(ctx context.Context, req *Request) (*Response, error) {
	release, err := c.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	reused := false
	pc, err := c.getPipeConn(ctx, &reused)
	if err != nil {
		return nil, err
	}
	resp, err := c.pipeRoundTrip(ctx, pc, req)
	if err != nil && reused && ctx.Err() == nil {
		// Stale pipelined connection (the failer removed it from the
		// pool): retry once on another.
		pc, err = c.getPipeConn(ctx, &reused)
		if err != nil {
			return nil, err
		}
		resp, err = c.pipeRoundTrip(ctx, pc, req)
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("httpx: exchange aborted: %w", cerr)
		}
		return nil, err
	}
	return resp, nil
}

// getPipeConn returns the least-loaded healthy pipelined connection, or
// dials a new one when all are at their window (up to MaxIdle connections
// — beyond that the least-loaded one absorbs the overflow).
func (c *Client) getPipeConn(ctx context.Context, reused *bool) (*pipeConn, error) {
	maxPer := int64(c.MaxPerConn)
	if maxPer <= 0 {
		maxPer = 8
	}
	maxConns := c.MaxIdle
	if maxConns <= 0 {
		maxConns = 16
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	var best *pipeConn
	bestN := int64(0)
	for _, pc := range c.pipes {
		if pc.broken.Load() {
			continue
		}
		if n := pc.inflight.Load(); best == nil || n < bestN {
			best, bestN = pc, n
		}
	}
	nconns := len(c.pipes)
	c.mu.Unlock()
	if best != nil && (bestN < maxPer || nconns >= maxConns) {
		*reused = true
		return best, nil
	}

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
	pc := &pipeConn{owner: c, conn: conn, br: bufio.NewReaderSize(conn, 16<<10), host: peerHost(conn)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, errClientClosed
	}
	c.pipes = append(c.pipes, pc)
	c.mu.Unlock()
	go pc.readLoop(c.MaxBodyBytes)
	*reused = false
	return pc, nil
}

// removePipeConn forgets a dead connection so selection never sees it again.
func (c *Client) removePipeConn(pc *pipeConn) {
	c.mu.Lock()
	for i, p := range c.pipes {
		if p == pc {
			c.pipes = append(c.pipes[:i], c.pipes[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// pipeRoundTrip writes the request, takes a FIFO slot and waits for its
// response. The overall Timeout is a runtime timer that kills the
// connection (per-exchange conn deadlines are impossible on a shared
// connection); a cancelled context abandons only this caller's slot.
func (c *Client) pipeRoundTrip(ctx context.Context, pc *pipeConn, req *Request) (*Response, error) {
	call := &pipeCall{ch: make(chan pipeResult, 1)}

	pc.wmu.Lock()
	pc.mu.Lock()
	if pc.failErr != nil {
		err := pc.failErr
		pc.mu.Unlock()
		pc.wmu.Unlock()
		return nil, err
	}
	pc.queue = append(pc.queue, call)
	pc.inflight.Add(1)
	pc.mu.Unlock()
	werr := writeRequest(pc.conn, req, false, pc.host)
	pc.wmu.Unlock()
	if werr != nil {
		pc.fail(fmt.Errorf("httpx: write request: %w", werr))
		// fall through: fail just delivered the error to our slot
	}

	var alarm *time.Timer
	if c.Timeout > 0 {
		alarm = time.AfterFunc(c.Timeout, func() {
			pc.fail(fmt.Errorf("httpx: pipelined exchange timed out after %v", c.Timeout))
		})
	}
	select {
	case r := <-call.ch:
		if alarm != nil {
			alarm.Stop()
		}
		return r.resp, r.err
	case <-ctx.Done():
		if alarm != nil {
			alarm.Stop()
		}
		call.abandoned.Store(true)
		return nil, fmt.Errorf("httpx: exchange aborted: %w", ctx.Err())
	}
}

// readLoop consumes responses and delivers them FIFO. Any read error (or a
// server Connection: close) fails the connection and everything queued on
// it.
func (pc *pipeConn) readLoop(maxBody int64) {
	for {
		resp, err := ReadResponse(pc.br, maxBody)
		if err != nil {
			pc.fail(fmt.Errorf("httpx: read response: %w", err))
			return
		}
		pc.mu.Lock()
		var call *pipeCall
		if len(pc.queue) > 0 {
			call = pc.queue[0]
			pc.queue = pc.queue[1:]
			pc.inflight.Add(-1)
		}
		pc.mu.Unlock()
		if call == nil {
			pc.fail(errors.New("httpx: unsolicited response on pipelined connection"))
			return
		}
		if !call.abandoned.Load() {
			call.ch <- pipeResult{resp: resp}
		}
		if wantsClose(resp.Proto, &resp.Header) {
			pc.fail(errors.New("httpx: server closed pipelined connection"))
			return
		}
	}
}

// fail breaks the connection exactly once: marks it, removes it from the
// pool, closes the socket and delivers err to every queued caller.
func (pc *pipeConn) fail(err error) {
	pc.mu.Lock()
	if pc.failErr != nil {
		pc.mu.Unlock()
		return
	}
	pc.failErr = err
	pc.broken.Store(true)
	calls := pc.queue
	pc.queue = nil
	pc.inflight.Add(int64(-len(calls)))
	pc.mu.Unlock()
	pc.conn.Close()
	pc.owner.removePipeConn(pc)
	for _, call := range calls {
		call.ch <- pipeResult{err: err} // buffered; abandoned slots just hold it for GC
	}
}
