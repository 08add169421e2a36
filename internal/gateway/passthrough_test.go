package gateway

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/soap"
)

// The passthrough suite pins the zero-copy splice's guarantee: replies via
// the spliced path are byte-identical to both the parsed proxy path and a
// direct server, and the splice never engages where it would change
// semantics (packed envelopes, coalescing gateways).

func singleDoc(v soap.Version, op, payload string) []byte {
	return []byte(`<?xml version="1.0"?><SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() +
		`"><SOAP-ENV:Body><m:` + op + ` xmlns:m="urn:spi:Echo"><msg>` + payload + `</msg></m:` + op +
		`></SOAP-ENV:Body></SOAP-ENV:Envelope>`)
}

func TestPassthroughDifferential(t *testing.T) {
	d := newDirect(t)
	fOn := newFarm(t, 2, func(cfg *Config) { cfg.Passthrough = true })
	fOff := newFarm(t, 2, func(cfg *Config) { cfg.Passthrough = false })
	dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 5 * time.Second}
	onC, offC := fOn.raw(), fOff.raw()
	defer dc.Close()
	defer onC.Close()
	defer offC.Close()

	for _, v := range []soap.Version{soap.V11, soap.V12} {
		cases := []struct {
			name string
			doc  []byte
		}{
			{"echo", singleDoc(v, "echo", "spliced &amp; back")},
			{"empty", singleDoc(v, "empty", "")},
			{"fault", singleDoc(v, "fail", "boom")},
			{"unknown-op", singleDoc(v, "ghostOp", "x")},
			{"big", singleDoc(v, "echo", strings.Repeat("y", 4096))},
			{"garbage", []byte("not xml — backend faults, splice relays it")},
		}
		for _, c := range cases {
			label := fmt.Sprintf("%s/%s", v, c.name)
			want := post(t, dc, "/services/Echo", v.ContentType(), c.doc)
			gotOn := post(t, onC, "/services/Echo", v.ContentType(), c.doc)
			gotOff := post(t, offC, "/services/Echo", v.ContentType(), c.doc)
			diffReplies(t, label+"/passthrough-vs-direct", c.doc, want, gotOn)
			diffReplies(t, label+"/passthrough-vs-parsed", c.doc, gotOff, gotOn)
		}
	}
	if st := fOn.gw.Stats(); st.Passthrough == 0 {
		t.Error("Stats.Passthrough = 0: splice never engaged")
	}
	if st := fOff.gw.Stats(); st.Passthrough != 0 {
		t.Errorf("Stats.Passthrough = %d with passthrough disabled", st.Passthrough)
	}
}

func TestPassthroughCountsProxied(t *testing.T) {
	f := newFarm(t, 1, func(cfg *Config) { cfg.Passthrough = true })
	c := f.raw()
	defer c.Close()
	doc := singleDoc(soap.V11, "echo", "counted")
	const n = 3
	for i := 0; i < n; i++ {
		if r := post(t, c, "/services/Echo", soap.V11.ContentType(), doc); r.status != 200 {
			t.Fatalf("status = %d", r.status)
		}
	}
	st := f.gw.Stats()
	if st.Passthrough != n {
		t.Errorf("Passthrough = %d, want %d", st.Passthrough, n)
	}
	if st.Proxied != n {
		t.Errorf("Proxied = %d, want %d (passthrough is a subset of proxied)", st.Proxied, n)
	}
	if st.Envelopes != n {
		t.Errorf("Envelopes = %d, want %d", st.Envelopes, n)
	}
}

// TestPassthroughGatedOffByCoalesce: with coalescing on, single calls must
// take the parsed path (the coalescer needs the decoded envelope).
func TestPassthroughGatedOffByCoalesce(t *testing.T) {
	f := newFarm(t, 1, func(cfg *Config) {
		cfg.Passthrough = true
		cfg.Coalesce = CoalesceConfig{Enabled: true, FlushWindow: time.Millisecond}
	})
	c := f.raw()
	defer c.Close()
	doc := singleDoc(soap.V11, "echo", "coalesced")
	if r := post(t, c, "/services/Echo", soap.V11.ContentType(), doc); r.status != 200 {
		t.Fatalf("status = %d", r.status)
	}
	if st := f.gw.Stats(); st.Passthrough != 0 {
		t.Errorf("Passthrough = %d with coalescing enabled, want 0", st.Passthrough)
	}
}

// TestPassthroughSkipsPacked: a packed envelope posted to a service path
// must still be scattered, not spliced whole to one backend.
func TestPassthroughSkipsPacked(t *testing.T) {
	f := newFarm(t, 2, func(cfg *Config) { cfg.Passthrough = true })
	c := f.raw()
	defer c.Close()
	doc := packedDoc(soap.V11, []string{
		`<m:echo xmlns:m="urn:spi:Echo" spi:service="Echo"><p>a</p></m:echo>`,
		`<m:echo xmlns:m="urn:spi:Echo" spi:service="Echo"><p>b</p></m:echo>`,
	})
	if r := post(t, c, "/services", soap.V11.ContentType(), doc); r.status != 200 {
		t.Fatalf("status = %d, body %s", r.status, r.body)
	}
	st := f.gw.Stats()
	if st.Passthrough != 0 {
		t.Errorf("Passthrough = %d for a packed envelope, want 0", st.Passthrough)
	}
	if st.Packed != 1 || st.Scattered == 0 {
		t.Errorf("Packed = %d, Scattered = %d: packed envelope was not scattered", st.Packed, st.Scattered)
	}
}

// TestPassthroughDeadBackend: a dial failure on the spliced path surfaces
// the same 502 the parsed proxy produces.
func TestPassthroughDeadBackend(t *testing.T) {
	f := newFarm(t, 1, func(cfg *Config) { cfg.Passthrough = true })
	f.links[0].Close() // kill the only backend's network
	c := f.raw()
	defer c.Close()
	doc := singleDoc(soap.V11, "echo", "nobody home")
	r := post(t, c, "/services/Echo", soap.V11.ContentType(), doc)
	if r.status != 502 {
		t.Fatalf("status = %d, want 502; body %s", r.status, r.body)
	}
	if !strings.HasPrefix(string(r.body), "backend exchange failed: ") {
		t.Errorf("body = %q, want the proxy path's 502 text", r.body)
	}
}

// TestPassthroughRejectsAmbiguousFraming: the passthrough relays bodies it
// never parses, so a request two parsers could frame differently must die at
// the gateway's own reader — 400, connection closed, counted — and never
// reach a backend.
func TestPassthroughRejectsAmbiguousFraming(t *testing.T) {
	f := newFarm(t, 1, func(cfg *Config) { cfg.Passthrough = true })
	for i, fields := range []string{
		"Content-Length: 4\r\nTransfer-Encoding: chunked\r\n",
		"Content-Length: 2\r\nContent-Length: 3\r\n",
	} {
		conn, err := f.gwLink.Dial()
		if err != nil {
			t.Fatal(err)
		}
		wire := "POST /services/Echo HTTP/1.1\r\nHost: gw\r\nContent-Type: text/xml\r\n" + fields + "\r\n0\r\n\r\n"
		if _, err := conn.Write([]byte(wire)); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		resp, err := httpx.ReadResponse(br, 0)
		if err != nil || resp.StatusCode != 400 || resp.Header.Get("Connection") != "close" {
			t.Fatalf("case %d: %+v, %v; want 400 and Connection: close", i, resp, err)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("case %d: connection still open after the 400: %v", i, err)
		}
		conn.Close()
	}
	st := f.gw.Stats()
	if len(st.FaultCodes) != 1 || st.FaultCodes[0].Code != "HTTP.400" || st.FaultCodes[0].Count != 2 {
		t.Errorf("FaultCodes = %+v, want HTTP.400 × 2", st.FaultCodes)
	}
	if st.Envelopes != 0 || st.Proxied != 0 || st.Passthrough != 0 {
		t.Errorf("a rejected request was handled: %+v", st)
	}
}
