package httpx

import (
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

// Handler processes one request and returns the response to send. Handlers
// run on the connection's protocol goroutine — the paper's "protocol
// processing thread" — so a handler that fans work out to other goroutines
// (as the SPI server does) blocks here until the response is assembled,
// exactly mirroring the sleep/wake protocol-thread behaviour of §3.3.
//
// ctx is cancelled when the server shuts down, and — on connections that
// will close after this exchange (Connection: close, the paper's
// dial-per-message mode) — when the peer disconnects mid-exchange, so a
// handler fanning work out can stop early once nobody is left to read the
// response. On keep-alive connections peer disconnection cannot be
// observed without stealing bytes from the next request, so there ctx only
// reflects server shutdown.
//
// Because each in-flight exchange owns its connection's goroutine, a
// handler may also park — block awaiting an event produced by a different
// connection's exchange — without stalling any read loop; there is none
// shared between connections. The gateway's cross-client coalescer relies
// on this: single calls park in a forming batch while companion calls
// arrive on other connections' goroutines.
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
	// MaxPipeline, when > 1, enables HTTP/1.1 pipelining: if a keep-alive
	// client sends request N+1 before the response to N is written, the
	// connection switches to a pipelined loop that decodes ahead and runs
	// up to MaxPipeline handlers concurrently, emitting responses strictly
	// in request order. 0 or 1 keeps the serial one-exchange-per-conn
	// loop. Clients that never pipeline stay on the serial fast path
	// either way, so enabling this costs them one buffered-byte check per
	// exchange.
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
			closed := s.closed || s.draining
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
	s.draining = true
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
	// leaving it armed through Close's own wait — short-lived servers in
	// tests shut down thousands of times and must not accumulate pending
	// timers. Scheduled on the shared wheel so tests can assert exactly
	// that via Wheel.Pending.
	deadline := time.Now().Add(timeout)
	alarm := DefaultWheel().Schedule(timeout, func() {
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

// serveConn runs the read-dispatch-write loop for one connection.
//
// It starts in the serial one-exchange-at-a-time mode every connection has
// always had; when pipelining is enabled and the client is observed to
// pipeline (bytes of request N+1 already buffered when N was parsed), the
// connection hands off to servePipelined for the rest of its life.
//
// Per-request read/write deadlines are watchdogs on the shared timing
// wheel that close the connection on expiry, replacing the two
// SetDeadline syscalls-worth of runtime timer traffic per exchange the
// serial loop used to pay.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.removeConn(conn)
	defer conn.Close()

	br := acquireConnReader(conn)
	defer releaseConnReader(br)

	for {
		var readAlarm *WheelTimer
		if s.ReadTimeout > 0 {
			readAlarm = DefaultWheel().Schedule(s.ReadTimeout, func() { conn.Close() })
		}
		req, release, err := ReadRequestPooled(br, s.MaxBodyBytes)
		if readAlarm != nil {
			readAlarm.Stop()
		}
		if err != nil {
			if err == io.EOF {
				return // peer closed between requests: normal keep-alive end
			}
			var pe *ProtocolError
			if errors.As(err, &pe) {
				s.Rejects.NoteReject()
				resp := NewResponse(400, []byte(pe.Msg+"\n"))
				resp.Header.Set("Content-Type", "text/plain")
				_ = WriteResponse(conn, resp, true)
			}
			return
		}

		willClose := wantsClose(req.Proto, &req.Header)

		if !willClose && s.MaxPipeline > 1 && br.Buffered() > 0 {
			// The peer pipelines: request N+1's bytes arrived before
			// request N was dispatched. Hand the connection to the
			// pipelined loop, which owns it until it closes.
			s.servePipelined(conn, br, req, release)
			return
		}

		s.mu.Lock()
		s.active++
		baseCtx := s.baseCtx
		s.mu.Unlock()
		if baseCtx == nil {
			baseCtx = context.Background()
		}

		// On a connection that closes after this exchange no further
		// request bytes are expected, so a background read can detect the
		// peer abandoning the exchange and cancel the handler's context —
		// "the client gave up" propagated into the dispatcher.
		reqCtx := baseCtx
		var cancelReq context.CancelFunc
		var watcherDone chan struct{}
		if willClose {
			reqCtx, cancelReq = context.WithCancel(baseCtx)
			watcherDone = make(chan struct{})
			go func(cancel context.CancelFunc) {
				// Peek blocks until the peer sends (unexpected) data,
				// disconnects, or the connection is closed after the
				// response is written; only a disconnect-style error
				// cancels. serveConn joins on watcherDone before its exit
				// recycles br — the pool must never receive a reader
				// another goroutine is still blocked in.
				defer close(watcherDone)
				if _, err := br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
					cancel()
				}
			}(cancelReq)
		}

		resp := s.callHandler(reqCtx, req)
		if resp == nil {
			resp = NewResponse(500, []byte("nil response\n"))
		}

		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		closeAfter := willClose || draining
		var writeAlarm *WheelTimer
		if s.WriteTimeout > 0 {
			writeAlarm = DefaultWheel().Schedule(s.WriteTimeout, func() { conn.Close() })
		}
		werr := WriteResponse(conn, resp, closeAfter)
		if writeAlarm != nil {
			writeAlarm.Stop()
		}

		s.mu.Lock()
		s.active--
		if s.idleCond != nil {
			s.idleCond.Broadcast()
		}
		s.mu.Unlock()
		// The exchange is fully over (response written):
		// recycle the request body buffer and any pooled storage backing
		// the response.
		release()
		resp.Release()
		if cancelReq != nil {
			cancelReq()
		}
		if werr != nil || closeAfter {
			if watcherDone != nil {
				conn.Close() // unblock the watcher's Peek
				<-watcherDone
			}
			return
		}
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
