package httpx

import (
	"bufio"
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
	// all header fields.
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

// readLine reads one CRLF- (or LF-) terminated line, enforcing the header
// size budget. Lines that fit the reader's buffer (all of them, in
// practice: the buffer is larger than the header budget's typical use) cost
// one string allocation; ReadString's builder path is kept only for the
// buffer-overflow case.
func readLine(br *bufio.Reader, budget *int) (string, error) {
	slice, err := br.ReadSlice('\n')
	line := string(slice)
	if err == bufio.ErrBufferFull {
		var rest string
		rest, err = br.ReadString('\n')
		line += rest
	}
	if err != nil {
		if err == io.EOF && line == "" {
			return "", io.EOF
		}
		if err == io.EOF {
			return "", io.ErrUnexpectedEOF
		}
		return "", err
	}
	*budget -= len(line)
	if *budget < 0 {
		return "", protoErrf("header block exceeds %d bytes", MaxHeaderBytes)
	}
	line = strings.TrimRight(line, "\r\n")
	return line, nil
}

// readHeader parses header fields until the blank line.
func readHeader(br *bufio.Reader, budget *int) (Header, error) {
	var h Header
	for {
		line, err := readLine(br, budget)
		if err != nil {
			if err == io.EOF {
				return h, io.ErrUnexpectedEOF
			}
			return h, err
		}
		if line == "" {
			return h, nil
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return h, protoErrf("malformed header field %q", line)
		}
		name := line[:colon]
		if strings.TrimSpace(name) != name {
			return h, protoErrf("whitespace around field name %q", name)
		}
		h.Add(name, strings.TrimSpace(line[colon+1:]))
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

// readBody reads a message body framed as bodyFraming found it. A message
// with neither framing has no body (requests) — responses close-delimit
// instead.
func readBody(br *bufio.Reader, chunked bool, length, maxBody int64, closeDelimited bool) ([]byte, error) {
	switch {
	case chunked:
		return readChunked(br, maxBody)
	case length > maxBody:
		return nil, protoErrf("body of %d bytes exceeds limit %d", length, maxBody)
	case length >= 0:
		body := make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, protoErrf("short body: %v", err)
		}
		return body, nil
	case closeDelimited:
		body, err := io.ReadAll(io.LimitReader(br, maxBody+1))
		if err != nil {
			return nil, err
		}
		if int64(len(body)) > maxBody {
			return nil, protoErrf("close-delimited body exceeds limit %d", maxBody)
		}
		return body, nil
	}
	return nil, nil
}

// ReadRequest parses one request from br.
func ReadRequest(br *bufio.Reader, maxBody int64) (*Request, error) {
	budget := MaxHeaderBytes
	line, err := readLine(br, &budget)
	if err != nil {
		return nil, err // io.EOF here means a cleanly closed keep-alive conn
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 {
		return nil, protoErrf("malformed request line %q", line)
	}
	method, target, proto := parts[0], parts[1], parts[2]
	if proto != "HTTP/1.1" && proto != "HTTP/1.0" {
		return nil, protoErrf("unsupported protocol %q", proto)
	}
	h, err := readHeader(br, &budget)
	if err != nil {
		return nil, err
	}
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	chunked, length, err := bodyFraming(&h, true)
	if err != nil {
		return nil, err
	}
	body, err := readBody(br, chunked, length, maxBody, false)
	if err != nil {
		return nil, err
	}
	return &Request{Method: method, Target: target, Proto: proto, Header: h, Body: body}, nil
}

// ReadResponse parses one response from br.
func ReadResponse(br *bufio.Reader, maxBody int64) (*Response, error) {
	budget := MaxHeaderBytes
	line, err := readLine(br, &budget)
	if err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return nil, protoErrf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return nil, protoErrf("bad status code in %q", line)
	}
	status := ""
	if len(parts) == 3 {
		status = parts[2]
	}
	h, err := readHeader(br, &budget)
	if err != nil {
		return nil, err
	}
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	chunked, length, err := bodyFraming(&h, false)
	if err != nil {
		return nil, err
	}
	body, err := readBody(br, chunked, length, maxBody, true)
	if err != nil {
		return nil, err
	}
	return &Response{StatusCode: code, Status: status, Proto: parts[0], Header: h, Body: body}, nil
}

// WriteRequest serializes the request to w. It frames the body with
// Content-Length and emits Connection: close when close is requested.
// Requests without framing- or connection-related fields of their own —
// every request this stack's SOAP client produces — take the same pooled
// single-write fast path as responses. Host is the caller's to set here;
// Client fills it in from the connection it writes to.
func WriteRequest(w io.Writer, r *Request, closeConn bool) error {
	return writeRequest(w, r, closeConn, "")
}

// writeRequest is WriteRequest for a known peer: host, when not empty and
// the request names none itself, goes out as the Host field every HTTP/1.1
// request must carry (RFC 9112 §3.2), first after the request line.
func writeRequest(w io.Writer, r *Request, closeConn bool, host string) error {
	if r.Header.Has("Host") {
		host = ""
	}
	if !r.Header.Has("Content-Length") && !r.Header.Has("Connection") && !r.Header.Has("Transfer-Encoding") {
		return writeRequestFast(w, r, closeConn, host)
	}
	return writeRequestFramed(w, r, closeConn, host)
}

// peerHost is the Host a request over conn carries: the address dialed.
func peerHost(conn net.Conn) string {
	if a := conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return ""
}

// writeRequestFramed is the cloning reference path: it works for any
// header set, at the cost of a header clone and a buffered copy. It frames
// the whole body with Content-Length, so a caller's Content-Length is
// overridden and its Transfer-Encoding left out.
func writeRequestFramed(w io.Writer, r *Request, closeConn bool, host string) error {
	bw := bufio.NewWriterSize(w, 8<<10)
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	fmt.Fprintf(bw, "%s %s %s\r\n", r.Method, r.Target, proto)
	if host != "" {
		fmt.Fprintf(bw, "Host: %s\r\n", host)
	}
	h := r.Header.Clone()
	h.Set("Content-Length", strconv.Itoa(len(r.Body)))
	if closeConn {
		h.Set("Connection", "close")
	}
	h.Each(func(name, value string) {
		if !strings.EqualFold(name, "Transfer-Encoding") { // the body goes out whole, under Content-Length
			fmt.Fprintf(bw, "%s: %s\r\n", name, value)
		}
	})
	bw.WriteString("\r\n")
	bw.Write(r.Body)
	return bw.Flush()
}

// writeRequestFast emits exactly the bytes writeRequestFramed would for a
// request without pre-set framing fields: request line, Host, the fields in
// order, Content-Length, then Connection: close when requested. The header
// block comes from a pooled buffer and goes to the kernel together with
// the body in one write (see writeBlock).
func writeRequestFast(w io.Writer, r *Request, closeConn bool, host string) error {
	bp := headerBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Target...)
	b = append(b, ' ')
	b = append(b, proto...)
	b = append(b, '\r', '\n')
	if host != "" {
		b = append(b, "Host: "...)
		b = append(b, host...)
		b = append(b, '\r', '\n')
	}
	for _, f := range r.Header.fields {
		b = append(b, f.name...)
		b = append(b, ':', ' ')
		b = append(b, f.value...)
		b = append(b, '\r', '\n')
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(r.Body)), 10)
	b = append(b, '\r', '\n')
	if closeConn {
		b = append(b, "Connection: close\r\n"...)
	}
	b = append(b, '\r', '\n')

	return writeBlock(w, bp, b, r.Body)
}

// WriteResponse serializes the response to w with Content-Length framing.
// Responses that carry no framing- or connection-related fields of their
// own — every response this stack's SOAP layer produces — take a fast path
// that assembles the header block in a pooled buffer and hands header and
// body to the kernel in a single write (see writeBlock), instead of cloning
// the header and copying the body through a bufio.Writer.
func WriteResponse(w io.Writer, r *Response, closeConn bool) error {
	if !r.Header.Has("Content-Length") && !r.Header.Has("Connection") && !r.Header.Has("Transfer-Encoding") {
		return writeResponseFast(w, r, closeConn)
	}
	return writeResponseFramed(w, r, closeConn)
}

// maxPooledResponseHeader caps recycled header buffers, so one huge header
// block does not pin memory in the pool.
const maxPooledResponseHeader = 64 << 10

// headerBufPool recycles the header blocks of the fast write paths, for
// both directions of the exchange.
var headerBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// writeResponseFast emits exactly the bytes writeResponseFramed would for
// a response without pre-set Content-Length/Connection/Transfer-Encoding
// fields: status line, the fields in order, Content-Length first among the
// appended ones, then Connection: close when requested. Header bytes come
// from a pooled buffer; on a writev-capable connection the body is written
// from its own slice, so a packed SOAP reply goes out without a single copy.
func writeResponseFast(w io.Writer, r *Response, closeConn bool) error {
	bp := headerBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	status := r.Status
	if status == "" {
		status = reasonPhrase(r.StatusCode)
	}
	b = append(b, proto...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, '\r', '\n')
	for _, f := range r.Header.fields {
		b = append(b, f.name...)
		b = append(b, ':', ' ')
		b = append(b, f.value...)
		b = append(b, '\r', '\n')
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(r.Body)), 10)
	b = append(b, '\r', '\n')
	if closeConn {
		b = append(b, "Connection: close\r\n"...)
	}
	b = append(b, '\r', '\n')

	return writeBlock(w, bp, b, r.Body)
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

// writeResponseFramed writes with Content-Length framing through a
// bufio.Writer, for a response that carries framing fields of its own: its
// Content-Length is overridden and its Transfer-Encoding left out.
func writeResponseFramed(w io.Writer, r *Response, closeConn bool) error {
	bw := bufio.NewWriterSize(w, 8<<10)
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	status := r.Status
	if status == "" {
		status = reasonPhrase(r.StatusCode)
	}
	fmt.Fprintf(bw, "%s %d %s\r\n", proto, r.StatusCode, status)
	h := r.Header.Clone()
	h.Set("Content-Length", strconv.Itoa(len(r.Body)))
	if closeConn {
		h.Set("Connection", "close")
	}
	h.Each(func(name, value string) {
		if !strings.EqualFold(name, "Transfer-Encoding") { // the body goes out whole, under Content-Length
			fmt.Fprintf(bw, "%s: %s\r\n", name, value)
		}
	})
	bw.WriteString("\r\n")
	bw.Write(r.Body)
	return bw.Flush()
}
