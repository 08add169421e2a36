package main

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soapenc"
)

// serve runs an httpx server with the handler on a loopback port.
func serve(t *testing.T, h httpx.Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpx.Server{Handler: h}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// echoServer is an in-process SPI server whose Echo.echo runs mangle on
// the data it returns.
func echoServer(t *testing.T, mangle func(string) string) *core.Server {
	t.Helper()
	c := registry.NewContainer()
	svc := c.MustAddService("Echo", "urn:spi:Echo", "test echo")
	svc.MustRegister("echo", func(_ *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		out := append([]soapenc.Field(nil), params...)
		for i := range out {
			if s, ok := out[i].Value.(string); ok {
				out[i].Value = mangle(s)
			}
		}
		return out, nil
	}, "")
	srv, err := core.NewServer(core.ServerConfig{Container: c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func testCallers(t *testing.T, w workload, target string, timeout time.Duration) ([]*caller, *tally) {
	t.Helper()
	tl := &tally{}
	pay := newPayloads(1)
	var callers []*caller
	for id := 0; id < numCallers; id++ {
		c, err := newCaller(id, w, pay, target, timeout, tl)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.client.Close)
		callers = append(callers, c)
	}
	return callers, tl
}

var (
	testSingle = workload{Name: "t-single", Pack: 1, PayloadBytes: 10}
	testPacked = workload{Name: "t-packed", Pack: 4, PayloadBytes: 64}
)

func failedShare(t *tally) float64 { return float64(t.failed()) / float64(t.attempted()) }

func TestCorrectEchoesPass(t *testing.T) {
	identity := func(s string) string { return s }
	for _, w := range []workload{testSingle, testPacked} {
		srv := echoServer(t, identity)
		callers, tl := testCallers(t, w, serve(t, srv.HandleHTTP), time.Second)
		for i := 0; i < 20; i++ {
			if !callers[i%2].exchange() {
				t.Fatalf("%s: exchange %d failed: %+v", w.Name, i, tl)
			}
		}
		if tl.failed() != 0 || tl.ok.Load() != int64(20*w.Pack) {
			t.Errorf("%s: ok %d failed %d, want %d and 0", w.Name, tl.ok.Load(), tl.failed(), 20*w.Pack)
		}
	}
}

func TestCorruptedEchoRaisesFailedShare(t *testing.T) {
	flipLast := func(s string) string { return s[:len(s)-1] + "~" }
	for _, w := range []workload{testSingle, testPacked} {
		srv := echoServer(t, flipLast)
		callers, tl := testCallers(t, w, serve(t, srv.HandleHTTP), time.Second)
		if callers[0].exchange() {
			t.Errorf("%s: a corrupted echo passed the checker", w.Name)
		}
		if tl.echoes.Load() != int64(w.Pack) || failedShare(tl) != 1 {
			t.Errorf("%s: echoes %d, failed share %v; want every call failed", w.Name, tl.echoes.Load(), failedShare(tl))
		}
	}
}

// A server that answers entry 0 with entry 1's reply and the reverse has
// sent back only bytes the client sent, in a well-formed response: only
// the per-call comparison catches it.
func TestCrossWiredIDRaisesFailedShare(t *testing.T) {
	srv := echoServer(t, func(s string) string { return s })
	swap := func(ctx context.Context, req *httpx.Request) *httpx.Response {
		resp := srv.HandleHTTP(ctx, req)
		body := append([]byte(nil), resp.Body...)
		resp.Release()
		body = bytes.Replace(body, []byte(`spi:id="0"`), []byte(`spi:id="X"`), 1)
		body = bytes.Replace(body, []byte(`spi:id="1"`), []byte(`spi:id="0"`), 1)
		body = bytes.Replace(body, []byte(`spi:id="X"`), []byte(`spi:id="1"`), 1)
		out := httpx.NewResponse(resp.StatusCode, body)
		out.Header.Set("Content-Type", resp.Header.Get("Content-Type"))
		return out
	}
	callers, tl := testCallers(t, testPacked, serve(t, swap), time.Second)
	if callers[0].exchange() {
		t.Error("a cross-wired response passed the checker")
	}
	if tl.echoes.Load() != 2 || tl.ok.Load() != int64(testPacked.Pack-2) {
		t.Errorf("echoes %d ok %d: want exactly the two swapped calls failed", tl.echoes.Load(), tl.ok.Load())
	}
	if failedShare(tl) != 0.5 {
		t.Errorf("failed share %v, want 0.5", failedShare(tl))
	}
}

func TestTimedOutExchangeRaisesFailedShare(t *testing.T) {
	srv := echoServer(t, func(s string) string { return s })
	slow := func(ctx context.Context, req *httpx.Request) *httpx.Response {
		time.Sleep(300 * time.Millisecond)
		return srv.HandleHTTP(ctx, req)
	}
	callers, tl := testCallers(t, testSingle, serve(t, slow), 50*time.Millisecond)
	res, err := runOpen(context.Background(), callers, 20, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.samples) != 4 {
		t.Fatalf("scheduled %d exchanges, want rate × duration = 4", len(res.samples))
	}
	for k, s := range res.samples {
		if s.ok {
			t.Errorf("slot %d: an exchange past the timeout counted as correct", k)
		}
	}
	if tl.timeouts.Load() != 4 || failedShare(tl) != 1 {
		t.Errorf("timeouts %d, failed share %v; want all four timed out", tl.timeouts.Load(), failedShare(tl))
	}
}

// Open-loop latency runs from the intended send time: with one slow
// reply holding a caller, later slots are taken late and must carry the
// wait, and the schedule is still issued in full.
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	srv := echoServer(t, func(s string) string { return s })
	var stalled atomic.Bool
	stall := func(ctx context.Context, req *httpx.Request) *httpx.Response {
		if !stalled.Swap(true) {
			time.Sleep(100 * time.Millisecond)
		}
		return srv.HandleHTTP(ctx, req)
	}
	callers, _ := testCallers(t, testSingle, serve(t, stall), time.Second)
	res, err := runOpen(context.Background(), callers[:1], 100, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.samples) != 20 {
		t.Fatalf("scheduled %d exchanges, want 20", len(res.samples))
	}
	// Slot 1 was due at 10 ms but the only caller was held until 100 ms.
	if got := res.samples[1].latency; got < 80*time.Millisecond {
		t.Errorf("slot 1 latency %v: the stall before it was omitted", got)
	}
	if res.samples[1].slept || res.samples[1].lag < 80*time.Millisecond {
		t.Errorf("slot 1: slept=%v lag=%v, want a late, unslept send", res.samples[1].slept, res.samples[1].lag)
	}
}

func TestPayloadsAreSeededAndDistinct(t *testing.T) {
	a, b, other := newPayloads(5), newPayloads(5), newPayloads(6)
	seen := map[string]bool{}
	specials := 0
	for caller := 0; caller < numCallers; caller++ {
		for seq := uint64(0); seq < 2000; seq++ {
			p := a.payload(caller, seq, 10)
			if len(p) != 10 || p != b.payload(caller, seq, 10) {
				t.Fatalf("payload (%d, %d) is not a pure function of the seed", caller, seq)
			}
			if seen[p] {
				t.Fatalf("payload %q repeats", p)
			}
			seen[p] = true
		}
	}
	big := a.payload(0, 1, 16<<10)
	for _, c := range []byte(big) {
		if c < 0x21 || c > 0x7e {
			t.Fatalf("payload byte %#x is not printable ASCII", c)
		}
		if c == '<' || c == '&' || c == '>' || c == '"' {
			specials++
		}
	}
	if specials < 16<<10/64 || specials > 16<<10/16 {
		t.Errorf("%d of %d characters need escaping, want about 1 in 32", specials, 16<<10)
	}
	if big == other.payload(0, 1, 16<<10) {
		t.Error("another seed gave the same payload")
	}
}
