package httpx

import (
	"bufio"
	"net"
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

// bodyPage is the unit a pooled body buffer grows in: a pooled buffer is as
// large as the largest body it served, rounded up to a bodyPage, since growing
// it further would leave that much more of the heap idle between requests.
const bodyPage = 4 << 10

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

// ReadRequestPooled parses one request like ReadRequest, reading a body of
// at most maxPooledBody bytes into a buffer from the process pool. The
// returned release func recycles the buffer; after calling it req.Body must
// not be touched. release is never nil and is safe to call exactly once.
func ReadRequestPooled(br *bufio.Reader, maxBody int64) (*Request, func(), error) {
	req, bp, err := readRequest(br, maxBody, true)
	if bp == nil {
		return req, func() {}, err
	}
	released := false
	return req, func() {
		if !released {
			released = true
			req.Body = nil
			releaseBody(bp)
		}
	}, nil
}
