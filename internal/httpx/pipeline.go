package httpx

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
)

// Server-side HTTP/1.1 pipelining.
//
// A connection enters this mode when the serial loop observes buffered
// bytes of the next request while holding a freshly-parsed one — the
// client is pipelining, so one-exchange-at-a-time would serialize its
// round trips. From then on the connection runs two goroutines:
//
//	reader  — parses request N+1 while N executes, feeding each exchange
//	          to a per-request handler goroutine; blocked whenever the
//	          in-flight window (Server.MaxPipeline) is full.
//	writer  — drains exchanges in arrival order, waits for each handler
//	          to finish, and emits the response through the same
//	          writev path the serial loop uses. Responses are
//	          therefore emitted strictly in request order regardless of
//	          handler completion order: HTTP/1.1 pipelining carries no
//	          correlation id, unlike a packed response's entries.
//
// Handler semantics match the keep-alive serial loop: the context only
// reflects server shutdown (peer disconnection is unobservable without
// stealing the next request's bytes), req.Body must not be retained past
// return, and a handler may park its goroutine (each exchange owns one).

// pipeExchange carries one in-flight exchange from reader to writer.
type pipeExchange struct {
	req     *Request
	release func()
	done    chan struct{} // closed by the handler goroutine
	resp    *Response

	closeAfter bool           // Connection: close requested: final exchange
	protoErr   *ProtocolError // malformed request: emit a 400 after the queue drains
}

// servePipelined owns the connection until it closes. first (and its
// release) is a request the serial loop already parsed but not yet
// dispatched or counted.
func (s *Server) servePipelined(conn net.Conn, br *bufio.Reader, first *Request, firstRelease func()) {
	window := s.MaxPipeline
	queue := make(chan *pipeExchange, window)
	writerDone := make(chan struct{})
	var connBroken atomic.Bool // writer saw a write error or wrote a closing response
	go func() {
		defer close(writerDone)
		s.pipeWriter(conn, queue, &connBroken)
	}()

	submit := func(req *Request, release func(), closeAfter bool) {
		ex := &pipeExchange{
			req: req, release: release,
			done: make(chan struct{}), closeAfter: closeAfter,
		}
		s.mu.Lock()
		s.active++
		baseCtx := s.baseCtx
		s.mu.Unlock()
		if baseCtx == nil {
			baseCtx = context.Background()
		}
		queue <- ex // blocks while the window is full: the in-flight bound
		go func() {
			resp := s.callHandler(baseCtx, ex.req)
			if resp == nil {
				resp = NewResponse(500, []byte("nil response\n"))
			}
			ex.resp = resp
			close(ex.done)
		}()
	}

	submit(first, firstRelease, false)
	for !connBroken.Load() {
		s.armRead(conn)
		req, release, err := ReadRequestPooled(br, s.MaxBodyBytes)
		if err != nil {
			var pe *ProtocolError
			if err != io.EOF && errors.As(err, &pe) {
				// The 400 must not jump the queue: enqueue it like an
				// exchange so every accepted request answers first.
				s.Rejects.NoteReject()
				ex := &pipeExchange{protoErr: pe, done: make(chan struct{})}
				close(ex.done)
				queue <- ex
			}
			break
		}
		closeAfter := wantsClose(req.Proto, &req.Header)
		submit(req, release, closeAfter)
		if closeAfter {
			break // no request follows a Connection: close
		}
	}
	close(queue)
	<-writerDone
}

// pipeWriter emits responses in queue order. After a write error or a
// closing response it keeps draining the queue — releasing resources and
// settling the active count — without touching the connection, so a
// blocked reader (and any submit stuck on a full window) always unblocks.
func (s *Server) pipeWriter(conn net.Conn, queue chan *pipeExchange, connBroken *atomic.Bool) {
	broken := false
	markBroken := func() {
		if !broken {
			broken = true
			connBroken.Store(true)
			conn.Close() // unblock a reader mid-parse
		}
	}
	for ex := range queue {
		if ex.protoErr != nil {
			if !broken {
				resp := NewResponse(400, []byte(ex.protoErr.Msg+"\n"))
				resp.Header.Set("Content-Type", "text/plain")
				s.armWrite(conn)
				_ = WriteResponse(conn, resp, true)
				markBroken()
			}
			continue
		}
		<-ex.done
		resp := ex.resp
		if broken {
			s.settleExchange(ex, resp)
			continue
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		closeAfter := ex.closeAfter || draining
		s.armWrite(conn)
		werr := WriteResponse(conn, resp, closeAfter)
		s.settleExchange(ex, resp)
		if werr != nil || closeAfter {
			markBroken()
		}
	}
}

// settleExchange finishes one pipelined exchange's bookkeeping: active
// count, pooled-buffer recycling.
func (s *Server) settleExchange(ex *pipeExchange, resp *Response) {
	s.mu.Lock()
	s.active--
	if s.idleCond != nil {
		s.idleCond.Broadcast()
	}
	s.mu.Unlock()
	ex.release()
	resp.Release()
}
