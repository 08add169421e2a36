package gateway

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/xmltext"
)

// fuzzBackend answers every sub-batch with the reply the fuzz target holds,
// and notes the data values each sub-batch carried.
type fuzzBackend struct {
	mu    sync.Mutex
	reply []byte
	sent  []string
}

var dataValue = regexp.MustCompile(`<data>(a+)</data>`)

func (b *fuzzBackend) answer(req []byte) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range dataValue.FindAllSubmatch(req, -1) {
		b.sent = append(b.sent, string(m[1]))
	}
	return []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: %d\r\n\r\n%s", len(b.reply), b.reply))
}

// set holds reply for the next exchange and forgets what was sent before.
func (b *fuzzBackend) set(reply []byte) {
	b.mu.Lock()
	b.reply, b.sent = reply, nil
	b.mu.Unlock()
}

func (b *fuzzBackend) dial() (net.Conn, error) { return &fuzzConn{b: b}, nil }

// fuzzConn is one connection to a fuzzBackend: each request written to it is
// answered once it has been written whole.
type fuzzConn struct {
	b            *fuzzBackend
	req, pending []byte
}

func (c *fuzzConn) Write(p []byte) (int, error) {
	c.req = append(c.req, p...)
	return len(p), nil
}

func (c *fuzzConn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		if len(c.req) == 0 {
			return 0, io.EOF
		}
		c.pending, c.req = c.b.answer(c.req), nil
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (*fuzzConn) Close() error                     { return nil }
func (*fuzzConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (*fuzzConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (*fuzzConn) SetDeadline(time.Time) error      { return nil }
func (*fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (*fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzGatewayReply is the gateway's side of FuzzClientReply: arbitrary bytes
// stand in for one backend's reply to its sub-batch of a four-call batch,
// while a real server answers the other sub-batch. Whatever the bytes, the
// gateway must answer with a packed response that answers each call exactly
// once, and carries each entry of the other sub-batch as the server wrote it.
func FuzzGatewayReply(f *testing.F) {
	fb := &fuzzBackend{}
	farm := newFarm(f, 2, func(cfg *Config) {
		cfg.Backends[0] = BackendConfig{Name: "fuzzed", Dial: fb.dial}
		cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
		cfg.FailureThreshold = 1 << 30 // never ejected, so it gets a sub-batch every time
	})
	var entries []string
	for i := 0; i < 4; i++ {
		entries = append(entries, `<m:echo><data>`+strings.Repeat("a", i+1)+`</data></m:echo>`)
	}
	req := packedDocWith(soap.V11, ` xmlns:m="urn:spi:Echo" spi:service="Echo"`, entries)
	// What a direct server answers to each call.
	dc := &httpx.Client{Dial: farm.links[1].Dial, KeepAlive: true, Timeout: 5 * time.Second}
	f.Cleanup(func() { dc.Close() })
	direct := post(f, dc, "/services", soap.V11.ContentType(), req)
	want, _, err := core.SplitGatherResponse(direct.body)
	if err != nil || len(want) != 4 {
		f.Fatalf("the direct reply: %d entries, %v", len(want), err)
	}
	bySlot := make([][]byte, 4)
	for _, seg := range want {
		bySlot[segmentID(seg)] = seg
	}

	// The reply to either sub-batch the fuzzed backend may get, damaged as the
	// hostile-reply table damages it, and every reply a server gives the
	// pinned sub-batches, besides the wire corpus's responses.
	for _, ids := range [][]int{{0, 2}, {1, 3}} {
		head, tail, _ := strings.Cut(string(direct.body), string(bytes.Join(want, nil)))
		var body string
		for _, id := range ids {
			body += string(bySlot[id])
		}
		reply := head + body + tail
		f.Add([]byte(reply))
		for _, damage := range []func(string) string{
			between("<!-- c -->"), between("<![CDATA[x]]>"), inSlotOrderWithoutIDs,
			func(b string) string { return strings.Replace(b, "</data>", "</p9>", 1) },
			func(b string) string {
				return strings.Replace(b, "<s:Body>", "<s:Header><h:x xmlns:h=\"urn:h\"/></s:Header><s:Body>", 1)
			},
			func(b string) string {
				return strings.Replace(b, `xmlns:m="urn:spi:Echo"`, `xmlns:m="urn:spi:Echo" xmlns:n="urn:n"`, 1)
			},
			func(b string) string {
				return strings.Replace(b, `spi:id="`+fmt.Sprint(ids[1]), `spi:id="`+fmt.Sprint(ids[0]), 1)
			},
		} {
			f.Add([]byte(damage(reply)))
		}
	}
	srv, err := core.NewServer(core.ServerConfig{Container: testContainer(f), AppWorkers: 4, AppQueue: 64})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	for _, dir := range []string{"subbatch", "wire"} {
		root := filepath.Join("..", "core", "testdata", dir)
		err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
			if err != nil || de.IsDir() || filepath.Ext(path) != ".xml" {
				return err
			}
			doc, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if dir == "wire" {
				if strings.Contains(path, "response") {
					f.Add(doc)
				}
				return nil
			}
			resp := srv.HandleHTTP(context.Background(), httpx.NewRequest("POST", "/services", doc))
			f.Add(append([]byte(nil), resp.Body...))
			resp.Release()
			return nil
		})
		if err != nil {
			f.Fatal(err)
		}
	}

	gc := farm.raw()
	f.Cleanup(func() { gc.Close() })
	f.Fuzz(func(t *testing.T, doc []byte) {
		fb.set(doc)
		got := post(t, gc, "/services", soap.V11.ContentType(), req)
		fb.mu.Lock()
		fuzzed := map[int]bool{}
		for _, v := range fb.sent {
			fuzzed[len(v)-1] = true
		}
		fb.mu.Unlock()
		if got.status != 200 {
			t.Fatalf("HTTP %d: %s", got.status, got.body)
		}
		env, err := soap.Decode(bytes.NewReader(got.body))
		if err != nil || env.Fault() != nil || len(env.Body) != 1 || !env.Body[0].Is(core.NSPack, core.ElemParallelResponse) {
			t.Fatalf("the gathered response does not read as a Parallel_Response (%v): %s", err, got.body)
		}
		segs, _, err := core.SplitGatherResponse(got.body)
		if err != nil {
			t.Fatalf("the gateway's reader refuses the gathered response: %v\n%s", err, got.body)
		}
		answered := map[int]bool{}
		for i, el := range env.Body[0].ChildElements() {
			id, err := strconv.Atoi(el.AttrValue(xmltext.Name{Prefix: core.PrefixPack, Local: "id"}))
			if err != nil || answered[id] || id < 0 || id >= 4 || len(segs) != 4 {
				t.Fatalf("entry %d: spi:id %d (%v) answered twice, never asked or not at all: %s", i, id, err, got.body)
			}
			answered[id] = true
			seg := segs[i]
			if !fuzzed[id] && !bytes.Equal(seg, bySlot[id]) {
				t.Fatalf("the other sub-batch's entry %d is\n%s\nnot the server's\n%s", id, seg, bySlot[id])
			}
		}
		if len(answered) != 4 || len(fuzzed) != 2 {
			t.Fatalf("%d calls answered, %d sent to the fuzzed backend: %s", len(answered), len(fuzzed), got.body)
		}
	})
}

// FuzzGatewayTarget holds a gateway's routing to the server's: a request of
// any method and target the transport can deliver, carrying a single call, a
// packed pair or bytes that are no document, gets from a gateway in each of
// its three modes the status, content type and body (entries by spi:id) a
// direct server gives it.
func FuzzGatewayTarget(f *testing.F) {
	srv, err := core.NewServer(core.ServerConfig{Container: testContainer(f), AppWorkers: 4, AppQueue: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	handlers := map[string]func(context.Context, *httpx.Request) *httpx.Response{}
	for _, m := range gatewayModes {
		handlers[m.name] = newFarm(f, 2, func(cfg *Config) {
			cfg.DebugEndpoints = false // the direct server serves none either
			if m.mutate != nil {
				m.mutate(cfg)
			}
		}).gw.Handle
	}
	var bodies [][]byte
	for _, b := range targetBodies() {
		bodies = append(bodies, b.doc)
	}
	bodies = append(bodies, []byte("not a document"))

	for _, target := range append([]string{"/services/Echo", "/services", "/services/", "/services/Echo?wsdl", "/spi/stats", "/", ""}, targetRows...) {
		for _, method := range []string{"POST", "GET", "PUT"} {
			for body := range bodies {
				f.Add(method, target, uint8(body))
			}
		}
	}
	f.Fuzz(func(t *testing.T, method, target string, body uint8) {
		req := httpx.NewRequest(method, target, bodies[int(body)%len(bodies)])
		req.Header.Set("Content-Type", soap.V11.ContentType())
		// Only a request the transport delivers as written: one its reader
		// reads back with the same method and target.
		var wire bytes.Buffer
		if httpx.WriteRequest(&wire, req, false) != nil {
			t.Skip()
		}
		if back, err := httpx.ReadRequest(bufio.NewReader(&wire), 1<<20); err != nil || back.Method != method || back.Target != target {
			t.Skip()
		}
		answer := func(handle func(context.Context, *httpx.Request) *httpx.Response) reply {
			resp := handle(context.Background(), req)
			defer resp.Release()
			return reply{resp.StatusCode, resp.Header.Get("Content-Type"), bytes.Clone(resp.Body)}
		}
		want := answer(srv.HandleHTTP)
		for _, m := range gatewayModes {
			diffReplies(t, fmt.Sprintf("%s: %s %q", m.name, method, target), req.Body, want, answer(handlers[m.name]))
		}
	})
}
