package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// fuzzMaxBody is the body limit the fuzzers read with: large enough that a
// reader allocating what a message only declares stands out against
// allocBound.
const fuzzMaxBody = 1 << 20

// allocPerByte is how many heap bytes a reader may allocate per byte of its
// input, on top of one head budget (MaxHeaderBytes). A head of bare-LF
// two-byte fields ("a:\n") costs about 24: each field's string and its place
// in the field slice, which doubles as it grows.
const allocPerByte = 32

// boundAllocs runs read, one call of a reader over input, and fails t when
// the heap allocations it made pass allocPerByte times the input's length
// plus MaxHeaderBytes: a reader allocates what arrives, never what a message
// only declares. The count is runtime.MemStats.TotalAlloc around the call,
// which flushes every P's cached spans first. runtime/metrics'
// /gc/heap/allocs:bytes does not: it counts a small object when its span
// leaves the P's cache, so a call reads 0, or what other calls allocated
// before a collection flushed the caches during it (a 42-byte read showed
// 347 248 bytes).
func boundAllocs(t *testing.T, input []byte, read func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(allocPerByte*len(input)+MaxHeaderBytes); n > bound {
		t.Fatalf("a read of %d bytes allocated %d, past its bound of %d", len(input), n, bound)
	}
}

// FuzzReadResponse hammers the client-side response parser: status line,
// headers, content-length and chunked bodies. The invariants are that it
// never panics, never returns a response with an out-of-range status, and
// never hands back a body larger than the configured cap.
func FuzzReadResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBody = fuzzMaxBody
		br := bufio.NewReader(bytes.NewReader(data))
		var resp *Response
		var err error
		boundAllocs(t, data, func() { resp, err = ReadResponse(br, maxBody) })
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
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBody = fuzzMaxBody
		// halfReader forces partial reads so bufio refills mid-message.
		br := bufio.NewReaderSize(&halfReader{r: bytes.NewReader(data)}, 64)
		for i := 0; i < 64; i++ {
			var req *Request
			var release func()
			var err error
			boundAllocs(t, data, func() { req, release, err = ReadRequestPooled(br, maxBody) })
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

// responseSeeds seed the fuzzers that read responses.
var responseSeeds = []string{
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
	"HTTP/1.1 200 OK\r\nContent-Length: 1000000\r\n\r\nshort",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nf4240\r\nshort",
}

// requestSeeds seed the fuzzers that read requests.
var requestSeeds = []string{
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
	"POST /s HTTP/1.1\r\nContent-Length: 1000000\r\n\r\nshort",
	"POST /s HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nf4240\r\nshort",
}

// FuzzReadMatchesFrozen holds the readers to the ones they replaced
// (frozen_test.go). The same bytes go to both, a request stream message by
// message as a pipelined connection reads it, and one response: each message
// the frozen reader reads, the live one must read with the same method or
// status, target, proto, fields and body, and where the frozen reader fails,
// the live one must fail too. The exceptions are the inputs the live readers
// bound and the frozen ones did not: a chunk size that overflows the body
// read so far, on which the frozen readers panic, and a chunk-size line or
// trailer section past MaxHeaderBytes, which they read whole.
func FuzzReadMatchesFrozen(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\n7fffffffffffffff\r\nb\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\n7fffffffffffffff\r\nb\r\n0\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n+5 ; a=\"b\"\r\nhello\r\n0\r\nT: 1\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBody = fuzzMaxBody
		stream := func() *bufio.Reader { return bufio.NewReaderSize(&halfReader{r: bytes.NewReader(data)}, 64) }
		frozen, live, pooled := stream(), stream(), stream()
		for i := 0; i < 16; i++ {
			want, werr := recovered(func() (*Request, error) { return frozenReadRequest(frozen, maxBody) })
			var got, gotPooled *Request
			var gerr, perr error
			boundAllocs(t, data, func() {
				got, gerr = recovered(func() (*Request, error) { return ReadRequest(live, maxBody) })
			})
			release := func() {}
			boundAllocs(t, data, func() {
				gotPooled, perr = recovered(func() (req *Request, err error) {
					req, release, err = ReadRequestPooled(pooled, maxBody)
					return req, err
				})
			})
			if !sameRead(t, "ReadRequest", werr, gerr) || !sameRead(t, "ReadRequestPooled", werr, perr) {
				release()
				break
			}
			for _, g := range []*Request{got, gotPooled} {
				if g.Method != want.Method || g.Target != want.Target || g.Proto != want.Proto ||
					!slices.Equal(g.Header.fields, want.Header.fields) || !bytes.Equal(g.Body, want.Body) {
					t.Fatalf("request %d: read %+v, the frozen reader %+v", i, g, want)
				}
			}
			release()
		}
		want, werr := recovered(func() (*Response, error) {
			return frozenReadResponse(bufio.NewReader(bytes.NewReader(data)), maxBody)
		})
		br := bufio.NewReader(bytes.NewReader(data))
		var got *Response
		var gerr error
		boundAllocs(t, data, func() {
			got, gerr = recovered(func() (*Response, error) { return ReadResponse(br, maxBody) })
		})
		if sameRead(t, "ReadResponse", werr, gerr) && (got.StatusCode != want.StatusCode || got.Status != want.Status ||
			got.Proto != want.Proto || !slices.Equal(got.Header.fields, want.Header.fields) || !bytes.Equal(got.Body, want.Body)) {
			t.Fatalf("read %+v, the frozen reader %+v", got, want)
		}
	})
}

// panicked is the error recovered makes of a panic.
type panicked struct{ value any }

func (p panicked) Error() string { return fmt.Sprintf("panic: %v", p.value) }

// recovered runs read, turning a panic into an error.
func recovered[M any](read func() (M, error)) (m M, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicked{p}
		}
	}()
	return read()
}

// sameRead fails t unless the live reader's error err agrees with the frozen
// reader's, werr: both nil, both set, or err one of the bounds the frozen
// reader did not have. It reports whether both read a message.
func sameRead(t *testing.T, reader string, werr, err error) bool {
	t.Helper()
	var pe *ProtocolError
	switch {
	case errors.As(err, new(panicked)):
		t.Fatalf("%s: %v", reader, err)
	case werr != nil && err == nil:
		t.Fatalf("%s read a message the frozen reader refused (%v)", reader, werr)
	case werr == nil && err != nil && !(errors.As(err, &pe) && strings.Contains(pe.Msg, "exceeds")):
		t.Fatalf("%s refused a message the frozen reader read: %v", reader, err)
	}
	return werr == nil && err == nil
}
