package httpx

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// The message readers as they were before one line reader and one body
// reader replaced them: ReadRequest, ReadResponse and readChunked with the
// helpers they called, kept verbatim as the oracle FuzzReadMatchesFrozen
// holds the readers to. bodyFraming, which did not change, is shared. Do not
// edit these to follow the live readers.

// frozenReadLine reads one CRLF- (or LF-) terminated line, enforcing the header
// size budget. Lines that fit the reader's buffer (all of them, in
// practice: the buffer is larger than the header budget's typical use) cost
// one string allocation; ReadString's builder path is kept only for the
// buffer-overflow case.
func frozenReadLine(br *bufio.Reader, budget *int) (string, error) {
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

// frozenReadHeader parses header fields until the blank line.
func frozenReadHeader(br *bufio.Reader, budget *int) (Header, error) {
	var h Header
	for {
		line, err := frozenReadLine(br, budget)
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

// frozenReadBody reads a message body framed as bodyFraming found it. A message
// with neither framing has no body (requests) — responses close-delimit
// instead.
func frozenReadBody(br *bufio.Reader, chunked bool, length, maxBody int64, closeDelimited bool) ([]byte, error) {
	switch {
	case chunked:
		return frozenReadChunked(br, maxBody)
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

// frozenReadRequest parses one request from br.
func frozenReadRequest(br *bufio.Reader, maxBody int64) (*Request, error) {
	budget := MaxHeaderBytes
	line, err := frozenReadLine(br, &budget)
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
	h, err := frozenReadHeader(br, &budget)
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
	body, err := frozenReadBody(br, chunked, length, maxBody, false)
	if err != nil {
		return nil, err
	}
	return &Request{Method: method, Target: target, Proto: proto, Header: h, Body: body}, nil
}

// frozenReadResponse parses one response from br.
func frozenReadResponse(br *bufio.Reader, maxBody int64) (*Response, error) {
	budget := MaxHeaderBytes
	line, err := frozenReadLine(br, &budget)
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
	h, err := frozenReadHeader(br, &budget)
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
	body, err := frozenReadBody(br, chunked, length, maxBody, true)
	if err != nil {
		return nil, err
	}
	return &Response{StatusCode: code, Status: status, Proto: parts[0], Header: h, Body: body}, nil
}

// frozenReadChunked consumes a chunked-encoded body, including the terminating
// zero chunk and optional trailers, enforcing maxBody on the decoded size.
func frozenReadChunked(br *bufio.Reader, maxBody int64) ([]byte, error) {
	var body []byte
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, protoErrf("chunk size line: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		// Chunk extensions (";ext=...") are permitted and ignored.
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, err := strconv.ParseInt(strings.TrimSpace(line), 16, 64)
		if err != nil || size < 0 {
			return nil, protoErrf("bad chunk size %q", line)
		}
		if size == 0 {
			// Trailers until blank line.
			for {
				tl, err := br.ReadString('\n')
				if err != nil {
					return nil, protoErrf("chunk trailer: %v", err)
				}
				if strings.TrimRight(tl, "\r\n") == "" {
					return body, nil
				}
			}
		}
		if int64(len(body))+size > maxBody {
			return nil, protoErrf("chunked body exceeds limit %d", maxBody)
		}
		chunk := make([]byte, size)
		if _, err := io.ReadFull(br, chunk); err != nil {
			return nil, protoErrf("short chunk: %v", err)
		}
		body = append(body, chunk...)
		// The CRLF after the chunk data.
		crlf := make([]byte, 2)
		if _, err := io.ReadFull(br, crlf); err != nil || crlf[0] != '\r' || crlf[1] != '\n' {
			return nil, protoErrf("missing CRLF after chunk")
		}
	}
}
