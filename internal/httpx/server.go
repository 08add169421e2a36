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
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Handler processes one request and returns the response to send. A
// handler runs on the goroutine that read its request — the paper's
// "protocol processing thread" — so a handler that fans work out to other
// goroutines (as the SPI server does) blocks here until the response is
// assembled, exactly mirroring the sleep/wake protocol-thread behaviour of
// §3.3. On a connection that does not pipeline, that is the connection's
// one goroutine.
//
// ctx is cancelled when the server shuts down, and — when the connection
// will close after this exchange (Connection: close, the paper's
// dial-per-message mode, alone or at the end of a pipelined burst) — when
// the peer disconnects mid-exchange, so a handler fanning work out can stop
// early once nobody is left to read the response. On keep-alive connections
// peer disconnection cannot be observed without stealing bytes from the
// next request, so there ctx only reflects server shutdown.
//
// Because each in-flight exchange owns a goroutine, a handler may also
// park — block awaiting an event produced by a different connection's
// exchange — without stalling any read loop; there is none shared between
// connections. The gateway's cross-client coalescer relies on this: single
// calls park in a forming batch while companion calls arrive on other
// connections' goroutines.
//
// req.Body is served from a recycled buffer pool: a handler must not retain
// req.Body or sub-slices of it past its return — copy out anything that
// must survive the exchange.
type Handler func(ctx context.Context, req *Request) *Response

// Server serves HTTP/1.1 connections from a listener.
type Server struct {
	// Handler is required.
	Handler Handler
	// ReadTimeout bounds reading one full request; zero means no timeout.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one full response; zero means no timeout.
	WriteTimeout time.Duration
	// MaxBodyBytes caps request bodies; zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxPipeline is a connection's pipelining window: how many requests
	// it may have read and not yet answered. When request N+1's bytes are
	// already buffered as N is read, N+1 is read and handled while N runs;
	// responses go out strictly in request order. 0 or 1: one exchange at
	// a time. A client that never pipelines costs one buffered-byte check
	// per exchange either way.
	MaxPipeline int
	// Rejects, if set, counts every request refused with a 400 before it
	// reached the Handler (a ProtocolError: malformed or ambiguously framed).
	Rejects *fault.Counters

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	active   int // exchanges currently being handled
	idleCond *sync.Cond
	closed   bool
	draining atomic.Bool
	wg       sync.WaitGroup
	baseCtx  context.Context // cancelled on Close; parent of handler contexts
	baseStop context.CancelFunc
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("httpx: server closed")

// Serve accepts connections until the listener fails or Close is called.
func (s *Server) Serve(l net.Listener) error {
	if s.Handler == nil {
		return errors.New("httpx: Serve with nil Handler")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	if s.baseCtx == nil {
		s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	}
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed || s.draining.Load()
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown drains gracefully: it stops the listener, lets in-flight
// exchanges finish (up to the timeout), then closes remaining connections.
// Idle keep-alive connections are closed immediately.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining.Store(true)
	l := s.listener
	if s.idleCond == nil {
		s.idleCond = sync.NewCond(&s.mu)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}

	// The timeout alarm only exists to wake the drain wait below; stop it
	// the moment the wait ends (drain done or deadline hit) rather than
	// leaving it armed through Close's own wait.
	deadline := time.Now().Add(timeout)
	alarm := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		if s.idleCond != nil {
			s.idleCond.Broadcast()
		}
		s.mu.Unlock()
	})

	s.mu.Lock()
	for s.active > 0 && time.Now().Before(deadline) {
		s.idleCond.Wait()
	}
	s.mu.Unlock()
	alarm.Stop()
	return s.Close()
}

// Close stops the listener, closes all active connections and waits for
// connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	l := s.listener
	stop := s.baseStop
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
	var err error
	if l != nil {
		err = l.Close()
		if errors.Is(err, net.ErrClosed) {
			// Shutdown already closed the listener.
			err = nil
		}
	}
	s.wg.Wait()
	return err
}

func (s *Server) removeConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// serveConn serves one connection: its goroutine is the connection's first
// exchange, and runs serverConn.serve.
func (s *Server) serveConn(nc net.Conn) {
	acquireServerConn(s, nc).serve()
}

// serverConn is one connection, shared by the goroutines of the exchanges
// on it. The goroutine holding the read turn reads a request. It hands the
// turn to a new goroutine only while the window (Server.MaxPipeline) has room
// and the next request's bytes are already buffered — the peer pipelines.
// Every exchange runs its handler on the goroutine that read it, waits for
// its write turn (request order) and writes its own response; one that kept
// the read turn then reads the next request. At a window of 0 or 1, or when
// the peer does not pipeline, that is one goroutine running one exchange at
// a time.
type serverConn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader

	mu      sync.Mutex
	turn    sync.Cond // broadcast when the write turn moves or closing is set
	read    uint64    // requests read: the seq of the next one
	written uint64    // responses written: the seq whose write turn it is
	reading bool      // the read-turn holder is waiting for a request
	closing bool      // no response goes out any more; a request read after is dropped
	live    int       // goroutines serving the connection
}

// serve runs exchanges until the connection ends or this goroutine has
// handed the read turn on and written its response.
func (c *serverConn) serve() {
	defer c.exit()
	for {
		req, release, seq, owed, err := c.readRequest()
		if err != nil {
			var pe *ProtocolError
			if errors.As(err, &pe) {
				// The 400 goes out after every response already owed.
				c.s.Rejects.NoteReject()
				resp := NewResponse(400, []byte(pe.Msg+"\n"))
				resp.Header.Set("Content-Type", "text/plain")
				c.respond(seq, resp, true)
			}
			return // io.EOF: the peer closed between requests
		}
		willClose := wantsClose(req.Proto, &req.Header)
		keepTurn := willClose || owed >= c.s.MaxPipeline || c.br.Buffered() == 0
		if !keepTurn {
			c.mu.Lock()
			c.live++
			c.mu.Unlock()
			c.s.wg.Add(1)
			go c.serve()
		}
		if !c.exchange(seq, req, release, willClose) || !keepTurn {
			return
		}
	}
}

// readRequest reads the next request as the read-turn holder. It returns
// the request's seq — also on a malformed request, whose 400 takes that
// place in the response order — and how many responses are owed with it
// counted.
func (c *serverConn) readRequest() (req *Request, release func(), seq uint64, owed int, err error) {
	c.mu.Lock()
	c.reading = true
	c.armRead()
	c.mu.Unlock()
	req, release, err = ReadRequestPooled(c.br, c.s.MaxBodyBytes)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reading = false
	if err == nil && c.closing { // the connection ended under the read
		release()
		err = io.EOF
	}
	if err != nil {
		return nil, nil, c.read, 0, err
	}
	c.read++
	return req, release, c.read - 1, int(c.read - c.written), nil
}

// armRead sets the read deadline of the read-turn holder. ReadTimeout bounds
// only the wait for a request with no response owed: a reader behind owed
// responses has none until the last of them is written. The error is
// dropped: SetReadDeadline fails only on a closed connection, and the read
// fails then too. c.mu is held.
func (c *serverConn) armRead() {
	if t := c.s.ReadTimeout; t > 0 {
		var deadline time.Time
		if c.read == c.written {
			deadline = time.Now().Add(t)
		}
		_ = c.nc.SetReadDeadline(deadline)
	}
}

// exchange runs one request's handler, waits for the write turn and writes
// the response. It reports whether the connection stays open.
func (c *serverConn) exchange(seq uint64, req *Request, release func(), willClose bool) bool {
	s := c.s
	s.mu.Lock()
	s.active++
	baseCtx := s.baseCtx
	s.mu.Unlock()
	if baseCtx == nil {
		baseCtx = context.Background()
	}

	// On a connection that closes after this exchange no further request
	// bytes are expected, so a background read can detect the peer
	// abandoning the exchange and cancel the handler's context — "the
	// client gave up" propagated into the dispatcher.
	reqCtx := baseCtx
	var cancelReq context.CancelFunc
	var watcherDone chan struct{}
	if willClose {
		if s.ReadTimeout > 0 {
			_ = c.nc.SetReadDeadline(time.Time{}) // the watcher waits as long as the exchange
		}
		reqCtx, cancelReq = context.WithCancel(baseCtx)
		watcherDone = make(chan struct{})
		go func(cancel context.CancelFunc) {
			// Peek blocks until the peer sends (unexpected) data,
			// disconnects, or the connection is closed after the
			// response is written; only a disconnect-style error
			// cancels. The exchange joins on watcherDone before the
			// connection's reader can be recycled.
			defer close(watcherDone)
			if _, err := c.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
				cancel()
			}
		}(cancelReq)
	}

	resp := s.callHandler(reqCtx, req)
	if resp == nil {
		resp = NewResponse(500, []byte("nil response\n"))
	}

	open := c.respond(seq, resp, willClose)

	s.mu.Lock()
	s.active--
	if s.idleCond != nil {
		s.idleCond.Broadcast()
	}
	s.mu.Unlock()
	// The exchange is fully over (response written): recycle the request
	// body buffer and any pooled storage backing the response.
	release()
	resp.Release()
	if cancelReq != nil {
		cancelReq()
	}
	if !open {
		c.nc.Close() // unblock a read in progress: the next request's or the watcher's
		if watcherDone != nil {
			<-watcherDone
		}
	}
	return open
}

// respond waits for the write turn of request seq and writes resp, unless
// the connection has ended. The connection closes after resp when
// closeAfter is set, or while the server drains and seq is the last request
// read — so every request whose handler ran is answered first. It reports
// whether the connection stays open.
func (c *serverConn) respond(seq uint64, resp *Response, closeAfter bool) bool {
	c.mu.Lock()
	for c.written != seq && !c.closing {
		c.turn.Wait()
	}
	skip := c.closing
	closeAfter = closeAfter || c.s.draining.Load() && seq+1 == c.read
	c.closing = skip || closeAfter
	c.mu.Unlock()
	var werr error
	if !skip {
		c.s.armWrite(c.nc)
		werr = WriteResponse(c.nc, resp, closeAfter)
	}
	c.mu.Lock()
	c.written++
	c.closing = c.closing || werr != nil
	if c.reading && !c.closing {
		c.armRead()
	}
	open := !c.closing
	c.turn.Broadcast()
	c.mu.Unlock()
	return open
}

// exit ends one goroutine's service of the connection; the last one closes
// it and recycles its state.
func (c *serverConn) exit() {
	s := c.s
	c.mu.Lock()
	c.live--
	last := c.live == 0
	c.mu.Unlock()
	if last {
		c.nc.Close()
		s.removeConn(c.nc)
		releaseServerConn(c)
	}
	s.wg.Done()
}

// armWrite starts the WriteTimeout clock for writing one response, the 400
// for a malformed request included: an earlier response's deadline must not
// cut it short.
func (s *Server) armWrite(conn net.Conn) {
	if s.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
}

// callHandler invokes the handler, converting a panic into a 500 so one bad
// request cannot take the connection goroutine (and with it the server) down.
func (s *Server) callHandler(ctx context.Context, req *Request) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = NewResponse(500, []byte(fmt.Sprintf("handler panic: %v\n", r)))
			resp.Header.Set("Content-Type", "text/plain")
		}
	}()
	return s.Handler(ctx, req)
}
