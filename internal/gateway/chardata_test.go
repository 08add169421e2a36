package gateway

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// markupPayloads look like the response's own markup and cost more than a
// CDATA section's twelve bytes to escape, so a backend answers each in one
// section — raw '<', '"' and '>' inside an entry the gather walk must cut
// out whole.
var markupPayloads = []string{
	`</m:echoResponse></spi:Parallel_Response></SOAP-ENV:Body>`,
	`<m:echoResponse spi:id="0"><p0>&amp;</p0>`,
	`"<!-- ' -->" <a b='>'/>`,
	`<![CDATA[ nested open <<<<`,
	`]] > ]]] "<<<&&&>>>`,
	`a]]>b <<<<<<`, // holds the terminator: stays escaped however dense
}

// markupDoc is one batch of echoes carrying the payloads, each spelled in the
// request the way its index says: escaped, or in a section where it may be.
func markupDoc(v soap.Version) []byte {
	var entries []string
	for i, p := range markupPayloads {
		spelled := escapeText.Replace(p)
		if i%2 == 1 && !strings.Contains(p, "]]>") {
			spelled = "<![CDATA[" + p + "]]>"
		}
		entries = append(entries, `<m:echo><p0>`+spelled+`</p0><p1>plain</p1></m:echo>`)
	}
	return packedDocWith(v, ` xmlns:m="urn:spi:Echo" spi:service="Echo"`, entries)
}

// TestDifferentialMarkupPayloads: values that go out as CDATA sections come
// back through the gateway as the direct server wrote them, byte for byte,
// over any number of backends.
func TestDifferentialMarkupPayloads(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			t.Run(fmt.Sprintf("backends=%d/%s", k, v), func(t *testing.T) {
				t.Parallel()
				d := newDirect(t)
				f := newFarm(t, k, nil)
				dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
				gc := f.raw()
				defer dc.Close()
				defer gc.Close()
				doc := markupDoc(v)
				want := post(t, dc, "/services", v.ContentType(), doc)
				diffReplies(t, "markup payloads", doc, want, post(t, gc, "/services", v.ContentType(), doc))
				if n := bytes.Count(want.body, []byte("<![CDATA[")); n != len(markupPayloads) {
					// Five sections, and the section-open one payload holds.
					t.Errorf("direct reply has %d section openings, want %d: %s", n, len(markupPayloads), want.body)
				}
				env, err := soap.Decode(bytes.NewReader(byID(want.body)))
				if err != nil {
					t.Fatal(err)
				}
				for i, el := range env.Body[0].ChildElements() {
					got, err := soapenc.DecodeParams(el)
					if err != nil || len(got) != 2 || got[0].Value != markupPayloads[i] {
						t.Errorf("entry %d decodes to %v (%v), want %q", i, got, err, markupPayloads[i])
					}
				}
			})
		}
	}
}

// hostileBackend answers like a real server, then damages the reply.
func hostileBackend(tb testing.TB, damage func(body string) string) *netsim.Link {
	tb.Helper()
	srv, err := core.NewServer(core.ServerConfig{Container: testContainer(tb), AppWorkers: 8, AppQueue: 64})
	if err != nil {
		tb.Fatal(err)
	}
	hostile := &httpx.Server{Handler: func(ctx context.Context, req *httpx.Request) *httpx.Response {
		resp := srv.HandleHTTP(ctx, req)
		defer resp.Release()
		out := httpx.NewResponse(resp.StatusCode, []byte(damage(string(resp.Body))))
		out.Header.Set("Content-Type", resp.Header.Get("Content-Type"))
		return out
	}}
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		tb.Fatal(err)
	}
	go hostile.Serve(lis)
	tb.Cleanup(func() { hostile.Close(); srv.Close(); link.Close() })
	return link
}

// TestHostileCharDataReplies: a backend reply whose character data does not
// read — a section that never ends, one left open at the end — takes the
// malformed-reply path: the shard's entries degrade to faults that quote the
// reader, the response is still a well-formed packed response, and nothing
// panics or hangs. A section where an entry could start is text between
// entries, which the reader steps over as the client does.
func TestHostileCharDataReplies(t *testing.T) {
	for name, damage := range map[string]func(string) string{
		"unterminated section": func(body string) string {
			return strings.ReplaceAll(body, "]]>", "]] >")
		},
		// Where the first entry starts: entries go out as they complete, so
		// any other place could be inside a value the section quotes.
		"section between entries": func(body string) string {
			return strings.Replace(body, `xmlns:m="urn:spi:Echo">`, `xmlns:m="urn:spi:Echo"><![CDATA[<m:echoResponse spi:id="0">]]>`, 1)
		},
		"section open at the end": func(body string) string {
			at := strings.LastIndex(body, `</spi:Parallel_Response>`)
			return body[:at] + `<![CDATA[` + body[at:]
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := newFarm(t, 1, func(cfg *Config) {
				cfg.Backends[0] = BackendConfig{Name: "hostile", Dial: hostileBackend(t, damage).Dial}
			})
			gc := f.raw()
			defer gc.Close()
			got := post(t, gc, "/services", soap.V11.ContentType(), markupDoc(soap.V11))
			env, err := soap.Decode(bytes.NewReader(got.body))
			if got.status != 200 || err != nil || len(env.Body) != 1 {
				t.Fatalf("HTTP %d, %v: %s", got.status, err, got.body)
			}
			entries := env.Body[0].ChildElements()
			if len(entries) != len(markupPayloads) {
				t.Fatalf("%d entries, want %d: %s", len(entries), len(markupPayloads), got.body)
			}
			for i, el := range entries {
				fault := el.Name.Local == "Fault"
				switch {
				case name == "section between entries" && fault:
					t.Errorf("entry %d of a reply the client reads whole is a fault: %s", i, el)
				case name != "section between entries" && !(fault && strings.Contains(el.String(), "decoding response")):
					t.Errorf("entry %d is not the malformed-reply fault: %s", i, el)
				}
			}
		})
	}
}
