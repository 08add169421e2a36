package httpx

import (
	"bufio"
	"io"
	"net"
	"strings"
	"sync"
)

// Request-body buffer pooling for the server read path.
//
// Every POST used to allocate a fresh body buffer sized to Content-Length
// and leave it for the collector after the exchange. SOAP traffic is a
// steady stream of similar-sized documents, so the server instead recycles
// body buffers through a sync.Pool: the serve loop acquires the buffer with
// the request and releases it once the response has been written and logged.
//
// The Handler contract this relies on: a handler must not retain
// req.Body (or sub-slices of it) past its return. Every consumer in this
// stack parses the body into independently-allocated structures before
// returning. Oversized bodies bypass the pool entirely — one huge request
// must not pin a huge buffer in the pool forever.

// maxPooledBody is the largest body served from the pool. Larger bodies
// fall back to a one-shot allocation.
const maxPooledBody = 1 << 20

// bodyPool holds recycled body buffers (as *[]byte to avoid an allocation
// per Put). Buffers keep their grown capacity across uses.
var bodyPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 16<<10)
		return &b
	},
}

// bodyPage is the unit a body buffer grows in.
const bodyPage = 4 << 10

// acquireBody returns a length-n buffer backed by the pool. A buffer too
// small for n is replaced by one of n bytes rounded up to a bodyPage: a
// pooled buffer is as large as the largest body it served, and growing it
// further would leave that much more of the heap idle between requests.
func acquireBody(n int) *[]byte {
	bp := bodyPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n, (n+bodyPage-1)&^(bodyPage-1))
	}
	*bp = (*bp)[:n]
	return bp
}

// releaseBody returns a buffer to the pool.
func releaseBody(bp *[]byte) {
	*bp = (*bp)[:0]
	bodyPool.Put(bp)
}

// serverConnPool recycles a server connection's state across connections,
// with the 16 KiB bufio.Reader it owns: that reader is the single largest
// allocation a short-lived connection makes, and under the C10k+ regime
// churned connections would otherwise hammer the allocator with them.
// Serve acquires on accept and the connection's last goroutine releases
// on close; Reset drops the old conn reference so pooled readers never pin
// dead connections.
var serverConnPool = sync.Pool{
	New: func() any {
		c := &serverConn{br: bufio.NewReaderSize(nil, 16<<10)}
		c.turn.L = &c.mu
		return c
	},
}

// acquireServerConn returns pooled connection state for nc, served by one
// goroutine.
func acquireServerConn(s *Server, nc net.Conn) *serverConn {
	c := serverConnPool.Get().(*serverConn)
	c.s, c.nc, c.t = s, nc, turns{window: s.MaxPipeline, users: 1}
	c.br.Reset(nc)
	return c
}

// releaseServerConn recycles the connection state. Every goroutine that
// served the connection must be done with it.
func releaseServerConn(c *serverConn) {
	c.br.Reset(nil)
	c.s, c.nc = nil, nil
	serverConnPool.Put(c)
}

// ReadRequestPooled parses one request like ReadRequest, drawing the body
// buffer from the process pool when the body is Content-Length framed and
// at most maxPooledBody bytes. The returned release func recycles the
// buffer; after calling it req.Body must not be touched. release is never
// nil and is safe to call exactly once.
func ReadRequestPooled(br *bufio.Reader, maxBody int64) (*Request, func(), error) {
	noop := func() {}
	budget := MaxHeaderBytes
	line, err := readLine(br, &budget)
	if err != nil {
		return nil, noop, err // io.EOF here means a cleanly closed keep-alive conn
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 {
		return nil, noop, protoErrf("malformed request line %q", line)
	}
	method, target, proto := parts[0], parts[1], parts[2]
	if proto != "HTTP/1.1" && proto != "HTTP/1.0" {
		return nil, noop, protoErrf("unsupported protocol %q", proto)
	}
	h, err := readHeader(br, &budget)
	if err != nil {
		return nil, noop, err
	}
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	req := &Request{Method: method, Target: target, Proto: proto, Header: h}

	chunked, n, err := bodyFraming(&h, true)
	if err != nil {
		return nil, noop, err
	}
	// Pooled fast path: Content-Length framing within the pooling cap.
	if !chunked && n >= 0 && n <= maxPooledBody && n <= maxBody {
		bp := acquireBody(int(n))
		if _, err := io.ReadFull(br, *bp); err != nil {
			releaseBody(bp)
			return nil, noop, protoErrf("short body: %v", err)
		}
		req.Body = *bp
		released := false
		return req, func() {
			if !released {
				released = true
				req.Body = nil
				releaseBody(bp)
			}
		}, nil
	}
	// Chunked, oversized or absent body: the regular unpooled path.
	body, err := readBody(br, chunked, n, maxBody, false)
	if err != nil {
		return nil, noop, err
	}
	req.Body = body
	return req, noop, nil
}
