package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func reqDoc(body string) string {
	return fmt.Sprintf("POST /services/Echo HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

func TestReadRequestPooledParsesLikeReadRequest(t *testing.T) {
	docs := []string{
		reqDoc("<soap>payload</soap>"),
		reqDoc(""),
		"GET /services/ HTTP/1.1\r\n\r\n",
		"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
	}
	for _, doc := range docs {
		want, wantErr := ReadRequest(bufio.NewReader(strings.NewReader(doc)), 0)
		got, release, gotErr := ReadRequestPooled(bufio.NewReader(strings.NewReader(doc)), 0)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: error divergence %v vs %v", doc, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Method != want.Method || got.Target != want.Target || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("%q: parsed %+v vs %+v", doc, got, want)
		}
		pooled := want.Header.Get("Content-Length") != ""
		release()
		if pooled && got.Body != nil {
			t.Errorf("%q: release did not clear a pooled Body", doc)
		}
	}
}

func TestReadRequestPooledReusesBuffer(t *testing.T) {
	// Drain cross-test pool state, then check a released buffer comes back.
	doc := reqDoc(strings.Repeat("x", 4096))
	req1, release1, err := ReadRequestPooled(bufio.NewReader(strings.NewReader(doc)), 0)
	if err != nil {
		t.Fatal(err)
	}
	first := &req1.Body[0]
	release1()
	// Pools are per-P; on the same goroutine with no preemption the very
	// next acquire overwhelmingly returns the same buffer. Retry a few
	// times to keep this robust rather than flaky-strict.
	reused := false
	for i := 0; i < 8 && !reused; i++ {
		req2, release2, err := ReadRequestPooled(bufio.NewReader(strings.NewReader(doc)), 0)
		if err != nil {
			t.Fatal(err)
		}
		reused = &req2.Body[0] == first
		release2()
	}
	if !reused {
		t.Skip("pool did not return the recycled buffer (GC or scheduling); not a correctness failure")
	}
}

func TestReadRequestPooledOversizedBypassesPool(t *testing.T) {
	body := strings.Repeat("y", maxPooledBody+1)
	req, release, err := ReadRequestPooled(bufio.NewReader(strings.NewReader(reqDoc(body))), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Body) != len(body) {
		t.Fatalf("body length %d", len(req.Body))
	}
	release() // must be a no-op for unpooled bodies
	if req.Body == nil {
		t.Error("release cleared an unpooled body")
	}
}

func TestReadRequestPooledRespectsMaxBody(t *testing.T) {
	_, _, err := ReadRequestPooled(bufio.NewReader(strings.NewReader(reqDoc("123456"))), 3)
	if err == nil {
		t.Fatal("oversized body accepted")
	}
	if _, ok := err.(*ProtocolError); !ok {
		t.Fatalf("err = %T %v", err, err)
	}
}

func TestReadRequestPooledShortBodyReleases(t *testing.T) {
	// Truncated body: the pooled buffer must be returned, not leaked, and
	// the error must match ReadRequest's.
	doc := "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
	_, _, err := ReadRequestPooled(bufio.NewReader(strings.NewReader(doc)), 0)
	if err == nil {
		t.Fatal("short body accepted")
	}
	if !strings.Contains(err.Error(), "short body") {
		t.Fatalf("err = %v", err)
	}
}

// TestAcquireBodyGrowsToTheBody reads a 132 KB body, then one a byte longer:
// each buffer the pool hands out is the body's size rounded up to 4 KiB, not
// twice what it held before.
func TestAcquireBodyGrowsToTheBody(t *testing.T) {
	// Two collections empty the pool, so the first read grows a new buffer
	// whatever earlier tests released.
	runtime.GC()
	runtime.GC()
	const n = 132<<10 - 100
	const want = 132 << 10 // n and n+1 rounded up to 4 KiB
	for _, size := range []int{n, n + 1} {
		req, release, err := ReadRequestPooled(bufio.NewReader(strings.NewReader(reqDoc(strings.Repeat("x", size)))), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := cap(req.Body); got != want {
			t.Errorf("read %d: cap %d, want %d", size, got, want)
		}
		release()
	}
}

// BenchmarkReadRequest reads one request the way the server does: through
// ReadRequestPooled from a 16 KiB bufio.Reader, the body released after
// each read. The rows are a single-call SOAP request, a 128 KiB packed one,
// and the same 128 KiB sent chunked in 16 KiB chunks.
func BenchmarkReadRequest(b *testing.B) {
	const head = "POST /services/Echo HTTP/1.1\r\nHost: 127.0.0.1:18080\r\nContent-Type: text/xml; charset=utf-8\r\nSOAPAction: \"\"\r\n"
	chunked := func(n, chunk int) string {
		var w strings.Builder
		w.WriteString(head + "Transfer-Encoding: chunked\r\n\r\n")
		for ; n > 0; n -= chunk {
			fmt.Fprintf(&w, "%x\r\n%s\r\n", min(n, chunk), strings.Repeat("c", min(n, chunk)))
		}
		w.WriteString("0\r\n\r\n")
		return w.String()
	}
	for _, row := range []struct{ name, wire string }{
		{"content-length-1k", head + "Content-Length: 1024\r\n\r\n" + strings.Repeat("b", 1<<10)},
		{"content-length-128k", head + "Content-Length: 131072\r\n\r\n" + strings.Repeat("b", 128<<10)},
		{"chunked-128k-16k", chunked(128<<10, 16<<10)},
	} {
		b.Run(row.name, func(b *testing.B) {
			src := strings.NewReader(row.wire)
			br := bufio.NewReaderSize(src, 16<<10)
			b.SetBytes(int64(len(row.wire)))
			b.ReportAllocs()
			for b.Loop() {
				src.Reset(row.wire)
				br.Reset(src)
				req, release, err := ReadRequestPooled(br, 0)
				if err != nil || len(req.Body) == 0 {
					b.Fatal(req, err)
				}
				release()
			}
		})
	}
}
