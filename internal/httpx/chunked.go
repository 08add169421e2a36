package httpx

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// readChunked consumes a chunked-encoded body, including the terminating
// zero chunk and optional trailers, enforcing maxBody on the decoded size.
func readChunked(br *bufio.Reader, maxBody int64) ([]byte, error) {
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
