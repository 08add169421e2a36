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
	// a time. A client that never pipelines costs two buffered-byte checks
	// per exchange either way.
	MaxPipeline int
	// Rejects, if set, counts every request refused with a 400 before it
	// reached the Handler (a ProtocolError: malformed or ambiguously framed).
	Rejects *fault.Counters

	mu       sync.Mutex
	listener net.Listener
	conns    map[*serverConn]struct{}
	closed   bool
	draining bool
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
		s.conns = make(map[*serverConn]struct{})
	}
	if s.baseCtx == nil {
		s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	}
	s.mu.Unlock()

	for {
		nc, err := l.Accept()
		s.mu.Lock()
		ended := s.closed || s.draining
		if err != nil || ended {
			s.mu.Unlock()
			if err == nil {
				nc.Close()
			}
			if ended {
				return ErrServerClosed
			}
			return err
		}
		c := acquireServerConn(s, nc)
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown drains gracefully: it stops the listener, lets in-flight
// exchanges finish (up to the timeout), then closes remaining connections.
// Idle keep-alive connections are closed immediately, and any other after
// the last response owed on it.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	l := s.listener
	for c := range s.conns {
		c.on((*turns).shutdown)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	alarm := time.NewTimer(timeout)
	select {
	case <-drained:
	case <-alarm.C:
	}
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
		c.on((*turns).close)
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

// serverConn is one connection, shared by the goroutines of the exchanges
// on it, and the interpreter of its turns. Every exchange runs its handler
// on the goroutine that read it and writes its own response in request
// order; one that kept the read turn then reads the next request. At a
// window of 0 or 1, or when the peer does not pipeline, that is one
// goroutine running one exchange at a time.
type serverConn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader

	mu   sync.Mutex
	turn sync.Cond // broadcast when the write turn moves or the connection closes
	t    turns
}

// serve runs exchanges until the connection ends or this goroutine has
// handed the read turn on and written its response.
func (c *serverConn) serve() {
	defer c.exit()
	for {
		buffered := c.br.Buffered() > 0
		if c.on(func(t *turns) act { return t.readBegun(buffered) })&aClose != 0 {
			return
		}
		req, release, err := ReadRequestPooled(c.br, c.s.MaxBodyBytes)
		var seq uint64
		if err != nil {
			var pe *ProtocolError
			if !errors.As(err, &pe) { // io.EOF: the peer closed between requests
				c.on(func(t *turns) act { t.peerGone(); return 0 })
				return
			}
			// The 400 goes out after every response already owed.
			c.on(func(t *turns) act { seq = t.malformed(); return 0 })
			c.s.Rejects.NoteReject()
			resp := NewResponse(400, []byte(pe.Msg+"\n"))
			resp.Header.Set("Content-Type", "text/plain")
			c.respond(seq, resp, true)
			c.linger()
			return
		}
		shut, buffered := wantsClose(req.Proto, &req.Header), c.br.Buffered() > 0
		a := c.on(func(t *turns) (a act) { seq, a = t.requestRead(shut, buffered); return a })
		if a&aClose != 0 { // the connection ended under the read
			release()
			return
		}
		if a&aSpawn != 0 {
			c.s.wg.Add(1)
			go c.serve()
		}
		if !c.exchange(seq, req, release, a&aWatch != 0) || a&aSpawn != 0 {
			return
		}
	}
}

// on carries out event e and the acts it returns: the read deadline —
// ReadTimeout from now, or none — under the lock, so that deadlines are set
// in the order the events ask for them; a close, unless a write comes first;
// and the wake-up. Setting a deadline fails only on a closed connection,
// and the read fails then too.
func (c *serverConn) on(e func(*turns) act) act {
	c.mu.Lock()
	a := e(&c.t)
	if t := c.s.ReadTimeout; t > 0 && a&(aSetRead|aClearRead) != 0 {
		var deadline time.Time
		if a&aSetRead != 0 {
			deadline = time.Now().Add(t)
		}
		_ = c.nc.SetReadDeadline(deadline)
	}
	c.mu.Unlock()
	if a&(aClose|aWrite) == aClose {
		c.nc.Close()
	}
	if a&aWake != 0 {
		c.turn.Broadcast()
	}
	return a
}

// exchange runs one request's handler, waits for the write turn and writes
// the response. It reports whether the connection stays open. watch: the
// request closes the connection, so no further request bytes are expected,
// and a background read can detect the peer abandoning the exchange and
// cancel the handler's context — "the client gave up" propagated into the
// dispatcher.
func (c *serverConn) exchange(seq uint64, req *Request, release func(), watch bool) bool {
	reqCtx := c.s.baseCtx
	var cancelReq context.CancelFunc
	var watcherDone chan struct{}
	if watch {
		reqCtx, cancelReq = context.WithCancel(reqCtx)
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

	resp := c.s.callHandler(reqCtx, req)
	if resp == nil {
		resp = NewResponse(500, []byte("nil response\n"))
	}
	open := c.respond(seq, resp, watch)
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
// the connection closes first; shut: resp closes the connection. It reports
// whether the connection stays open.
func (c *serverConn) respond(seq uint64, resp *Response, shut bool) bool {
	c.mu.Lock()
	a := c.t.writeWanted(seq, shut)
	for ; a == 0; a = c.t.writeWanted(seq, shut) {
		c.turn.Wait()
	}
	c.mu.Unlock()
	if a&aWrite == 0 {
		return false
	}
	if t := c.s.WriteTimeout; t > 0 && a&aSetWrite != 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(t))
	}
	werr := WriteResponse(c.nc, resp, a&aClose != 0)
	return (a|c.on(func(t *turns) act { return t.written(werr == nil) }))&aClose == 0
}

// Bounds on reading past a refused request (linger), before its connection
// closes.
const (
	lingerTime  = 250 * time.Millisecond
	lingerBytes = 256 << 10
)

// linger ends a connection whose request was refused with a 400, none after
// it read: it closes the write side, so the peer reads the 400 and then the
// end of the stream, and reads and discards what the peer still sends, for at
// most lingerTime and lingerBytes, before exit closes it. Closing with bytes
// unread would have the kernel reset the connection, which can discard the
// 400 before the peer reads it. A connection already closed, or one that
// cannot half-close, closes at once.
func (c *serverConn) linger() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		_ = c.nc.SetReadDeadline(time.Now().Add(lingerTime))
		_, _ = io.CopyN(io.Discard, c.br, lingerBytes)
	}
}

// exit ends one goroutine's service of the connection; the last one closes
// it and recycles its state.
func (c *serverConn) exit() {
	s := c.s
	if c.on(func(t *turns) act { return t.release(false) })&aClose != 0 {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		releaseServerConn(c)
	}
	s.wg.Done()
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
