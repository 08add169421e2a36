package gateway

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
)

var updateCorpus = flag.Bool("update", false, "rewrite golden files under testdata/faultcorpus/")

// The gateway half of the fault corpus: scenarios where the gateway itself
// is the fault emitter — no backend reachable (per-item busy fault after
// failover exhaustion), propagated deadline expiring against a silent
// backend (per-item degradation), and the single-call proxy's 502 path.
// Together with internal/core's faultcorpus_test.go these pin every fault
// emission site byte-for-byte across the internal/fault refactor, a packed
// response's entries as every reader takes them (byID).

func gwCorpusGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "faultcorpus", name)
	if *updateCorpus {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(byID(got), byID(want)) {
		t.Errorf("response bytes diverged from golden %s\n got: %s\nwant: %s", name, got, want)
	}
}

func gwCorpusEntry(id int, op string) string {
	return `<m:` + op + ` xmlns:m="urn:spi:Echo" spi:id="` + string(rune('0'+id)) + `" spi:service="Echo"></m:` + op + `>`
}

func TestFaultCorpusNoBackend(t *testing.T) {
	// Every dial to the only backend is refused; with a single-attempt
	// retry policy the shard degrades straight to the per-item busy fault
	// carrying the dial error. Fresh farm per version so breaker state from
	// the first probe cannot leak into the second.
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		f := newFarm(t, 1, func(cfg *Config) {
			cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
		})
		f.links[0].FailDials(1 << 20)
		doc := packedDoc(v, []string{gwCorpusEntry(0, "echo")})
		resp, err := f.raw().Post("/services/", v.ContentType(), doc)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: status = %d, want 200 (degraded, not failed)", v, resp.StatusCode)
		}
		gwCorpusGolden(t, "gw_no_backend_"+gwCorpusSuffix(v), resp.Body)
	}
}

func TestFaultCorpusDuplicateID(t *testing.T) {
	// Entry 0 claims id 1 by attribute, entry 1 by position: answered as is,
	// the response would carry the id twice. The gateway's scatter parse
	// rejects the whole message before anything is sent to a backend, with
	// the bytes a direct server answers (internal/core's duplicate_id_*).
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		f := newFarm(t, 2, nil)
		doc := packedDocWith(v, ` xmlns:m="urn:spi:Echo" spi:service="Echo"`, []string{
			`<m:echo spi:id="1"><data>claims one</data></m:echo>`,
			`<m:echo><data>sits at one</data></m:echo>`,
		})
		resp, err := f.raw().Post("/services/", v.ContentType(), doc)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 500 {
			t.Errorf("%s: status = %d, want 500", v, resp.StatusCode)
		}
		gwCorpusGolden(t, "gw_duplicate_id_"+gwCorpusSuffix(v), resp.Body)
		direct, err := os.ReadFile(filepath.Join("..", "core", "testdata", "faultcorpus", "duplicate_id_"+gwCorpusSuffix(v)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Body, direct) {
			t.Errorf("%s: gateway and direct server disagree\ngateway: %s\n direct: %s", v, resp.Body, direct)
		}
		if st := f.gw.Stats(); st.Scattered != 0 {
			t.Errorf("%s: %d sub-batches went out for a rejected message", v, st.Scattered)
		}
	}
}

// silentBackend accepts connections and reads forever without ever
// answering — the shape of a backend that wedged after accept.
func silentBackend(t *testing.T) *netsim.Link {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = io.Copy(io.Discard, c)
			}(conn)
		}
	}()
	t.Cleanup(func() { link.Close() })
	return link
}

func TestFaultCorpusDeadlineDegrade(t *testing.T) {
	// The backend accepts but never answers; the propagated SPI-Deadline
	// expires at the gateway, which degrades every slot with the server's
	// own per-item timeout fault text.
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		link := silentBackend(t)
		gw, err := New(Config{
			Backends:        []BackendConfig{{Name: "b0", Dial: link.Dial}},
			Registry:        testContainer(t),
			Retry:           &core.RetryPolicy{MaxAttempts: 1},
			ExchangeTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		gwLink := netsim.NewLink(netsim.Fast())
		glis, err := gwLink.Listen()
		if err != nil {
			t.Fatal(err)
		}
		go gw.Serve(glis)
		t.Cleanup(func() { gw.Close(); gwLink.Close() })

		doc := packedDoc(v, []string{gwCorpusEntry(0, "echo"), gwCorpusEntry(1, "nap")})
		raw := &httpx.Client{Dial: gwLink.Dial, KeepAlive: true, Timeout: 5 * time.Second}
		resp, err := raw.Post("/services/", v.ContentType(), doc, core.HeaderDeadline, "400")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: status = %d, want 200 (degraded, not failed)", v, resp.StatusCode)
		}
		gwCorpusGolden(t, "gw_deadline_degrade_"+gwCorpusSuffix(v), resp.Body)
	}
}

func TestFaultCorpusDefaultMismatch(t *testing.T) {
	// A backend that answers a sub-batch under another batch default than
	// the sub-batch declared: its segments were written for a namespace the
	// gathered response does not declare, so none is spliced. The shard has
	// failed; its slots get the per-item busy fault naming what was wrong.
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		link := netsim.NewLink(netsim.Fast())
		lis, err := link.Listen()
		if err != nil {
			t.Fatal(err)
		}
		canned := []byte(`<?xml version="1.0" encoding="UTF-8"?><SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `"><SOAP-ENV:Body>` +
			`<spi:Parallel_Response xmlns:spi="` + core.NSPack + `" xmlns:m="urn:spi:Other">` +
			`<m:echoResponse spi:id="0"/><m:echoResponse spi:id="1"/></spi:Parallel_Response></SOAP-ENV:Body></SOAP-ENV:Envelope>`)
		impostor := &httpx.Server{Handler: func(ctx context.Context, req *httpx.Request) *httpx.Response {
			resp := httpx.NewResponse(200, canned)
			resp.Header.Set("Content-Type", v.ContentType())
			return resp
		}}
		go impostor.Serve(lis)
		f := newFarm(t, 0, func(cfg *Config) {
			cfg.Backends = []BackendConfig{{Name: "b0", Dial: link.Dial}}
			cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
		})
		t.Cleanup(func() { impostor.Close(); link.Close() })

		doc := packedDocWith(v, ` xmlns:m="urn:spi:Echo" spi:service="Echo"`, []string{`<m:echo/>`, `<m:echo/>`})
		resp, err := f.raw().Post("/services/", v.ContentType(), doc)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: status = %d, want 200 (degraded, not failed)", v, resp.StatusCode)
		}
		gwCorpusGolden(t, "gw_default_mismatch_"+gwCorpusSuffix(v), resp.Body)
		if st := f.gw.Stats(); st.ItemFaults != 2 {
			t.Errorf("%s: %d item faults, want 2", v, st.ItemFaults)
		}
	}
}

func TestFaultCorpusProxy502(t *testing.T) {
	// A single (unpacked) call proxied to an unreachable backend surfaces
	// as a plain 502 with the exchange error — the one fault surface that
	// is deliberately not a SOAP envelope.
	f := newFarm(t, 1, func(cfg *Config) {
		cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
	})
	f.links[0].FailDials(1 << 20)
	doc := `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + soap.V11.Namespace() + `">` +
		`<SOAP-ENV:Body><m:echo xmlns:m="urn:spi:Echo"></m:echo></SOAP-ENV:Body></SOAP-ENV:Envelope>`
	resp, err := f.raw().Post("/services/Echo", soap.V11.ContentType(), []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
	gwCorpusGolden(t, "gw_proxy_502.txt", resp.Body)
}

func gwCorpusSuffix(v soap.Version) string {
	if v == soap.V12 {
		return "12.xml"
	}
	return "11.xml"
}
