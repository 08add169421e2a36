package httpx

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
)

// Limits protecting the parser from hostile or broken peers.
const (
	// MaxHeaderBytes caps the total size of the request/status line plus
	// all header fields, of each chunk-size line, and of a chunked body's
	// trailer section.
	MaxHeaderBytes = 64 << 10
	// DefaultMaxBodyBytes caps message bodies unless overridden. The
	// largest legitimate experiment message is 128 packed 100 KB payloads
	// (~13 MB of payload plus base64/XML expansion), so 256 MB is ample.
	DefaultMaxBodyBytes = 256 << 20
)

// Request is an HTTP request with a fully-buffered body. SOAP messages are
// bounded documents that must be parsed in full before dispatch, so there
// is nothing to gain from a streaming body at this layer.
type Request struct {
	Method string
	// Target is the request target, e.g. "/services/Echo".
	Target string
	Proto  string // "HTTP/1.1" or "HTTP/1.0"
	Header Header
	Body   []byte
}

// NewRequest returns a request with sensible defaults for this stack.
func NewRequest(method, target string, body []byte) *Request {
	r := &Request{Method: method, Target: target, Proto: "HTTP/1.1", Body: body}
	return r
}

// wantsClose reports whether the message asks for the connection to be
// closed after the exchange.
func wantsClose(proto string, h *Header) bool {
	if h.hasToken("Connection", "close") {
		return true
	}
	// HTTP/1.0 defaults to close unless keep-alive is requested.
	if proto == "HTTP/1.0" && !h.hasToken("Connection", "keep-alive") {
		return true
	}
	return false
}

// Response is an HTTP response with a fully-buffered body.
type Response struct {
	StatusCode int
	Status     string // reason phrase; derived from StatusCode if empty
	Proto      string
	Header     Header
	Body       []byte

	// release, when set, recycles pooled storage that Body aliases.
	release func()
}

// NewResponse returns a response with the given status and body.
func NewResponse(status int, body []byte) *Response {
	return &Response{StatusCode: status, Proto: "HTTP/1.1", Body: body}
}

// SetRelease registers a hook that recycles pooled storage backing the
// response (typically the encode buffer Body aliases). The server
// transport calls Release exactly once per exchange, after the response
// bytes have been written and every observer has run; Body must not be
// read after that.
func (r *Response) SetRelease(fn func()) { r.release = fn }

// Release runs the registered release hook, if any. Idempotent and safe
// on responses without one.
func (r *Response) Release() {
	if r.release != nil {
		fn := r.release
		r.release = nil
		fn()
	}
}

// reasonPhrase maps the status codes this stack produces.
func reasonPhrase(code int) string {
	switch code {
	case 100:
		return "Continue"
	case 200:
		return "OK"
	case 202:
		return "Accepted"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 408:
		return "Request Timeout"
	case 411:
		return "Length Required"
	case 413:
		return "Payload Too Large"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// ProtocolError describes a malformed HTTP message.
type ProtocolError struct {
	Msg string
}

// Error implements the error interface.
func (e *ProtocolError) Error() string { return "httpx: " + e.Msg }

// Is files a malformed message under the error core's taxonomy: a protocol
// reject, of the Defect class (errors.Is(err, fault.Protocol)).
func (e *ProtocolError) Is(target error) bool {
	return target == fault.Protocol || target == fault.Defect
}

func protoErrf(format string, args ...any) error {
	return &ProtocolError{Msg: fmt.Sprintf(format, args...)}
}

// lineReader reads the lines around a message's body under a budget of
// bytes: MaxHeaderBytes for the start line and header fields together, for
// each chunk-size line, and for the trailer section. It reads with ReadSlice
// and fails as soon as a line reaches the budget, so a peer that never ends a
// line costs the budget, not the line.
type lineReader struct {
	br     *bufio.Reader
	what   string // what the budget bounds, for its error
	budget int
	long   []byte // a line longer than br's buffer, gathered across fills
}

// next returns the next line without its line ending, CRLF or bare LF; it is
// valid until the next read from br. io.EOF means the input ended before the
// line began, io.ErrUnexpectedEOF inside it.
func (lr *lineReader) next() ([]byte, error) {
	lr.long = lr.long[:0]
	for {
		frag, err := lr.br.ReadSlice('\n')
		if len(frag) > lr.budget {
			return nil, protoErrf("%s exceeds %d bytes", lr.what, MaxHeaderBytes)
		}
		lr.budget -= len(frag)
		line := frag
		if err == bufio.ErrBufferFull || len(lr.long) > 0 {
			lr.long = append(lr.long, frag...)
			line = lr.long
		}
		switch {
		case err == nil:
			return bytes.TrimRight(line, "\r\n"), nil
		case err == bufio.ErrBufferFull: // the line goes on past the buffer
		case err == io.EOF && len(line) == 0:
			return nil, io.EOF
		case err == io.EOF:
			return nil, io.ErrUnexpectedEOF
		default:
			return nil, err
		}
	}
}

// readHead reads a message's start line and header fields, under one
// MaxHeaderBytes budget. io.EOF means the input ended before the message
// began.
func readHead(br *bufio.Reader) (start string, h Header, err error) {
	lr := lineReader{br: br, what: "header block", budget: MaxHeaderBytes}
	line, err := lr.next()
	if err != nil {
		return "", h, err
	}
	start = string(line)
	for {
		line, err := lr.next()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return "", h, err
		}
		if len(line) == 0 {
			return start, h, nil
		}
		field := string(line)
		colon := strings.IndexByte(field, ':')
		if colon <= 0 {
			return "", h, protoErrf("malformed header field %q", field)
		}
		name := field[:colon]
		if strings.TrimSpace(name) != name {
			return "", h, protoErrf("whitespace around field name %q", name)
		}
		h.Add(name, strings.TrimSpace(field[colon+1:]))
	}
}

// bodyFraming decides how a message's body is delimited: chunked, or by a
// Content-Length (-1 when there is none). It refuses what two parsers could
// frame differently — the request-smuggling shapes of RFC 9112 §6.3, which
// matter here because the gateway relays bytes to a backend that parses them
// again: Transfer-Encoding together with Content-Length, Content-Length
// fields that disagree, a Content-Length that is not plain digits ("+5" is a
// number to strconv.ParseInt, not to the next hop), and a request whose final
// transfer coding is not chunked, whose length no reader can tell. A response
// of that last shape has neither framing, so it is read to the end of the
// connection, as the RFC says.
func bodyFraming(h *Header, request bool) (chunked bool, length int64, err error) {
	length = -1
	coded, final := false, ""
	for _, f := range h.fields {
		switch {
		case strings.EqualFold(f.name, "Transfer-Encoding"):
			coded = true
			// The codings of every field form one list, in order; empty
			// elements do not count (RFC 9110 §5.6.1).
			if v := strings.TrimRight(f.value, " \t,"); v != "" {
				final = strings.TrimSpace(v[strings.LastIndexByte(v, ',')+1:])
			}
		case strings.EqualFold(f.name, "Content-Length"):
			n, err := strconv.ParseUint(f.value, 10, 63)
			if err != nil {
				return false, 0, protoErrf("bad Content-Length %q", f.value)
			}
			if length >= 0 && int64(n) != length {
				return false, 0, protoErrf("conflicting Content-Length fields: %d and %d", length, n)
			}
			length = int64(n)
		}
	}
	if coded && length >= 0 {
		return false, 0, protoErrf("both Transfer-Encoding and Content-Length")
	}
	chunked = coded && strings.EqualFold(final, "chunked")
	if coded && !chunked && request {
		return false, 0, protoErrf("Transfer-Encoding %q does not end in chunked", final)
	}
	return chunked, length, nil
}

// readBody reads the body h frames (bodyFraming): Content-Length bytes, the
// chunks up to the last one and the trailer section, or, for a response with
// neither, everything up to the end of the connection; a request with neither
// has none. The body may be at most maxBody bytes (DefaultMaxBodyBytes when
// not positive); a chunk's size is checked against what is left of that
// before it is added. With pool set, a body that fits maxPooledBody is read
// into a buffer from bodyPool, returned as bp for the caller to release.
func readBody(br *bufio.Reader, h *Header, request bool, maxBody int64, pool bool) (body []byte, bp *[]byte, err error) {
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	chunked, length, err := bodyFraming(h, request)
	if err != nil {
		return nil, nil, err
	}
	var b bodyBuf
	if pool && (chunked || length >= 0 && length <= maxPooledBody) {
		b.bp = bodyPool.Get().(*[]byte)
		b.b = (*b.bp)[:0]
	}
	switch {
	case chunked:
		err = b.readChunked(br, maxBody)
	case length > maxBody:
		err = protoErrf("body of %d bytes exceeds limit %d", length, maxBody)
	case length >= 0:
		err = bodyErr("short body", b.read(br, int(length)))
	case !request:
		if b.b, err = io.ReadAll(io.LimitReader(br, maxBody+1)); err == nil && int64(len(b.b)) > maxBody {
			err = protoErrf("close-delimited body exceeds limit %d", maxBody)
		}
	}
	if err != nil {
		if b.bp != nil {
			releaseBody(b.bp)
		}
		return nil, nil, err
	}
	return b.b, b.bp, nil
}

// bodyBuf is the buffer a body is read into: b, which lives in the pooled
// buffer bp while bp is set.
type bodyBuf struct {
	b  []byte
	bp *[]byte
}

// read appends n bytes from br to the body, growing the buffer only by what
// has arrived: a full buffer grows by what is still to come, at most by the
// body's length so far and at least by a bodyPage, so it stays within twice
// the bytes received plus a page whatever a message declares. A pooled buffer
// is rounded up to a bodyPage, and the body leaves the pool once it outgrows
// maxPooledBody.
func (bb *bodyBuf) read(br *bufio.Reader, n int) error {
	for want := n; n > 0; {
		if len(bb.b) == cap(bb.b) {
			bb.grow(len(bb.b) + min(n, max(len(bb.b), bodyPage)))
		}
		k := min(n, cap(bb.b)-len(bb.b))
		got, err := io.ReadFull(br, bb.b[len(bb.b):len(bb.b)+k])
		bb.b = bb.b[:len(bb.b)+got]
		if err == io.EOF && n < want {
			err = io.ErrUnexpectedEOF // the body broke off after a step, not before it
		}
		if err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// grow moves the body into a buffer of size bytes.
func (bb *bodyBuf) grow(size int) {
	pooled := bb.bp != nil && size <= maxPooledBody
	if pooled {
		size = (size + bodyPage - 1) &^ (bodyPage - 1)
	}
	grown := append(make([]byte, 0, size), bb.b...)
	switch {
	case pooled:
		*bb.bp = grown
	case bb.bp != nil:
		releaseBody(bb.bp)
		bb.bp = nil
	}
	bb.b = grown
}

// readChunked reads a chunked body: its chunks straight into the body, the
// last chunk and the trailer section. Chunk extensions and trailer fields are
// read past. Each chunk-size line is read under a budget of MaxHeaderBytes,
// and the trailer section under one more.
func (bb *bodyBuf) readChunked(br *bufio.Reader, maxBody int64) error {
	for {
		lr := lineReader{br: br, what: "chunk size line", budget: MaxHeaderBytes}
		line, err := lr.next()
		if err != nil {
			return bodyErr("chunk size line", err)
		}
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
		switch {
		case err != nil || size < 0:
			return protoErrf("bad chunk size %q", line)
		case size == 0:
			lr = lineReader{br: br, what: "trailer section", budget: MaxHeaderBytes}
			for {
				line, err := lr.next()
				if err != nil || len(line) == 0 {
					return bodyErr("chunk trailer", err)
				}
			}
		case size > maxBody-int64(len(bb.b)):
			return protoErrf("chunked body exceeds limit %d", maxBody)
		}
		if err := bb.read(br, int(size)); err != nil {
			return bodyErr("short chunk", err)
		}
		if crlf, err := br.Peek(2); err != nil || crlf[0] != '\r' || crlf[1] != '\n' {
			return protoErrf("missing CRLF after chunk")
		}
		br.Discard(2)
	}
}

// bodyErr is err, met reading a body at what, as the ProtocolError it is to
// the peer: the message broke off or did not parse. It is nil for nil.
func bodyErr(what string, err error) error {
	var pe *ProtocolError
	if err == nil || errors.As(err, &pe) {
		return err
	}
	return protoErrf("%s: %v", what, err)
}

// readRequest reads one request, its body pooled as readBody says.
func readRequest(br *bufio.Reader, maxBody int64, pool bool) (*Request, *[]byte, error) {
	start, h, err := readHead(br)
	if err != nil {
		return nil, nil, err // io.EOF here means a cleanly closed keep-alive conn
	}
	method, rest, ok1 := strings.Cut(start, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 {
		return nil, nil, protoErrf("malformed request line %q", start)
	}
	if proto != "HTTP/1.1" && proto != "HTTP/1.0" {
		return nil, nil, protoErrf("unsupported protocol %q", proto)
	}
	body, bp, err := readBody(br, &h, true, maxBody, pool)
	if err != nil {
		return nil, nil, err
	}
	return &Request{Method: method, Target: target, Proto: proto, Header: h, Body: body}, bp, nil
}

// ReadRequest parses one request from br.
func ReadRequest(br *bufio.Reader, maxBody int64) (*Request, error) {
	req, _, err := readRequest(br, maxBody, false)
	return req, err
}

// ReadResponse parses one response from br.
func ReadResponse(br *bufio.Reader, maxBody int64) (*Response, error) {
	start, h, err := readHead(br)
	if err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	proto, rest, ok := strings.Cut(start, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/1.") {
		return nil, protoErrf("malformed status line %q", start)
	}
	codeText, status, _ := strings.Cut(rest, " ")
	code, err := strconv.Atoi(codeText)
	if err != nil || code < 100 || code > 599 {
		return nil, protoErrf("bad status code in %q", start)
	}
	body, _, err := readBody(br, &h, false, maxBody, false)
	if err != nil {
		return nil, err
	}
	return &Response{StatusCode: code, Status: status, Proto: proto, Header: h, Body: body}, nil
}

// WriteRequest serializes the request to w: the request line, the fields in
// order, then Content-Length and, when closeConn is set, Connection: close.
// The body goes out whole under that Content-Length, so a Content-Length or
// Transfer-Encoding field of the request's own is left out, and so is its
// Connection field when closeConn writes one. Host is the caller's to set
// here; Client fills it in from the connection it writes to.
func WriteRequest(w io.Writer, r *Request, closeConn bool) error {
	return writeRequest(w, r, closeConn, "")
}

// writeRequest is WriteRequest for a known peer: host, when not empty and
// the request names none itself, goes out as the Host field every HTTP/1.1
// request must carry (RFC 9112 §3.2), first after the request line.
func writeRequest(w io.Writer, r *Request, closeConn bool, host string) error {
	bp := headerBufPool.Get().(*[]byte)
	b := append((*bp)[:0], r.Method...)
	b = append(b, ' ')
	b = append(b, r.Target...)
	b = append(b, ' ')
	b = append(b, cmp.Or(r.Proto, "HTTP/1.1")...)
	b = append(b, '\r', '\n')
	if host != "" && !r.Header.Has("Host") {
		b = append(b, "Host: "...)
		b = append(b, host...)
		b = append(b, '\r', '\n')
	}
	return writeMessage(w, bp, b, &r.Header, r.Body, closeConn)
}

// peerHost is the Host a request over conn carries: the address dialed.
func peerHost(conn net.Conn) string {
	if a := conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return ""
}

// WriteResponse serializes the response to w as WriteRequest does a request,
// after the status line.
func WriteResponse(w io.Writer, r *Response, closeConn bool) error {
	bp := headerBufPool.Get().(*[]byte)
	b := append((*bp)[:0], cmp.Or(r.Proto, "HTTP/1.1")...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.StatusCode), 10)
	b = append(b, ' ')
	if r.Status != "" {
		b = append(b, r.Status...)
	} else {
		b = append(b, reasonPhrase(r.StatusCode)...)
	}
	b = append(b, '\r', '\n')
	return writeMessage(w, bp, b, &r.Header, r.Body, closeConn)
}

// maxPooledResponseHeader caps recycled header buffers, so one huge header
// block does not pin memory in the pool.
const maxPooledResponseHeader = 64 << 10

// headerBufPool recycles the header blocks of both directions.
var headerBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// writeMessage appends h's fields and the framing to the start line in b
// (backed by the pooled *bp) and sends the block with the body (writeBlock).
// It leaves out the fields the framing replaces: Transfer-Encoding,
// Content-Length, and Connection when closeConn writes its own.
func writeMessage(w io.Writer, bp *[]byte, b []byte, h *Header, body []byte, closeConn bool) error {
	for _, f := range h.fields {
		if strings.EqualFold(f.name, "Transfer-Encoding") || strings.EqualFold(f.name, "Content-Length") ||
			closeConn && strings.EqualFold(f.name, "Connection") {
			continue
		}
		b = append(b, f.name...)
		b = append(b, ':', ' ')
		b = append(b, f.value...)
		b = append(b, '\r', '\n')
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, '\r', '\n')
	if closeConn {
		b = append(b, "Connection: close\r\n"...)
	}
	b = append(b, '\r', '\n')
	return writeBlock(w, bp, b, body)
}

// writeBlock sends a finished header block b (backed by the pooled *bp) and
// the body as one write, then recycles the block. net.Buffers is one writev
// only on a bare *net.TCPConn or *net.UnixConn; through any wrapper (a
// netsim conn, a counting or TLS conn) it degrades to a Write per slice —
// two segments under TCP_NODELAY and a second read wake-up at the peer. There
// the body is appended to the block instead, as long as the block stays
// small enough to go back to the pool; a larger body keeps its zero-copy
// second write.
func writeBlock(w io.Writer, bp *[]byte, b, body []byte) error {
	var err error
	switch {
	case len(body) == 0:
		_, err = w.Write(b)
	case !writesBuffers(w) && len(b)+len(body) <= maxPooledResponseHeader:
		b = append(b, body...)
		_, err = w.Write(b)
	default:
		bufs := net.Buffers{b, body}
		_, err = bufs.WriteTo(w)
	}
	// WriteTo may shrink bufs but never the backing arrays; keep the
	// block for reuse unless it grew past the pool cap.
	if cap(b) <= maxPooledResponseHeader {
		*bp = b[:0]
		headerBufPool.Put(bp)
	}
	return err
}

// writesBuffers reports whether net.Buffers.WriteTo reaches w as a single
// writev: the net package's own conn types (the ones the servers and
// clients here can be handed bare) do that, nothing else can.
func writesBuffers(w io.Writer) bool {
	switch w.(type) {
	case *net.TCPConn, *net.UnixConn:
		return true
	}
	return false
}
