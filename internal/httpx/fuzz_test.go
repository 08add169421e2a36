package httpx

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadResponse hammers the client-side response parser: status line,
// headers, content-length and chunked bodies. The invariants are that it
// never panics, never returns a response with an out-of-range status, and
// never hands back a body larger than the configured cap.
func FuzzReadResponse(f *testing.F) {
	seeds := []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 500 Internal Server Error\r\nContent-Type: text/plain\r\nContent-Length: 4\r\n\r\nboom",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\nTrailer: x\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nrest-until-eof",
		"HTTP/1.0 301 Moved\r\nLocation: /x\r\n\r\n",
		"HTTP/1.1 200\r\n\r\n",
		"HTTP/1.1 999 Weird\r\nA:\r\nB: \t v\r\n\r\n",
		"garbage",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBody = 1 << 16
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)), maxBody)
		if err != nil {
			return
		}
		if resp.StatusCode < 100 || resp.StatusCode > 999 {
			t.Fatalf("status code out of range: %d", resp.StatusCode)
		}
		if len(resp.Body) > maxBody {
			t.Fatalf("body exceeds cap: %d > %d", len(resp.Body), maxBody)
		}
		// A parsed response must re-serialize without error.
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp, false); err != nil {
			t.Fatalf("reserialize: %v", err)
		}
		resp.Release()
	})
}

// FuzzReadRequestStream hammers the server-side request parser with the
// traffic shapes a pipelined connection sees: back-to-back requests,
// CRLF/LF-split header lines, partial reads and trailing garbage. The
// invariants are that parsing never panics, every successfully parsed
// request re-serializes, and a parse error is terminal for the stream —
// exactly how the server's connection loop treats it.
func FuzzReadRequestStream(f *testing.F) {
	seeds := []string{
		"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcPOST /b HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
		"GET /x HTTP/1.1\r\n\r\nGET /y HTTP/1.1\r\n\r\nGET /z HTTP/1.1\r\n\r\n",
		"POST /s HTTP/1.1\nContent-Length: 2\n\nhi", // bare-LF line endings
		"POST /s HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nxyz\r\n0\r\n\r\nPOST /t HTTP/1.1\r\nContent-Length: 1\r\n\r\nq",
		"POST /s HTTP/1.1\r\nConnection: close\r\nContent-Length: 4\r\n\r\nlast",
		"POST /s HTTP/1.0\r\nContent-Length: 2\r\n\r\nokGARBAGE AFTER THE LAST REQUEST",
		"POST /partial HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort",
		"POST /s HTTP/1.1\r\nContent-Length: 1\r\n\r\naPOST incomplete",
		"NOT A REQUEST LINE\r\n\r\n",
		"POST /s HTTP/2\r\n\r\n",
		"POST /s HTTP/1.1\r\n badname: v\r\n\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBody = 1 << 16
		// halfReader forces partial reads so bufio refills mid-message.
		br := bufio.NewReaderSize(&halfReader{r: bytes.NewReader(data)}, 64)
		for i := 0; i < 64; i++ {
			req, release, err := ReadRequestPooled(br, maxBody)
			if err != nil {
				return // terminal: the stream is dead from here on
			}
			if len(req.Body) > maxBody {
				t.Fatalf("body exceeds cap: %d", len(req.Body))
			}
			var buf bytes.Buffer
			if werr := WriteRequest(&buf, req, false); werr != nil {
				t.Fatalf("reserialize: %v", werr)
			}
			release()
		}
	})
}

// halfReader yields at most half of what's asked (minimum 1 byte) to
// exercise refill boundaries inside the parser.
type halfReader struct{ r *bytes.Reader }

func (h *halfReader) Read(p []byte) (int, error) {
	n := len(p) / 2
	if n < 1 {
		n = 1
	}
	return h.r.Read(p[:n])
}
