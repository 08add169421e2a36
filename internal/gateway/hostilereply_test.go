package gateway

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soapenc"
)

// between puts s after a reply's first complete entry, where the next one
// starts.
func between(s string) func(string) string {
	return func(body string) string {
		return strings.Replace(body, "</m:echoResponse>", "</m:echoResponse>"+s, 1)
	}
}

// busy is how the gateway degrades a call whose backend reply it cannot use:
// a Server.Busy fault that quotes why. replyFault is a whole batch of them.
const (
	busy       = "soap fault Server.Busy: no backend available for Echo.echo: "
	replyFault = "each: " + busy
)

// inSlotOrderWithoutIDs lists a reply's entries in slot order with no spi:id,
// the shape a reader that falls back to position can still map.
func inSlotOrderWithoutIDs(body string) string {
	segs, _, err := core.SplitGatherResponse([]byte(body))
	if err != nil {
		return body
	}
	joined := string(bytes.Join(segs, nil))
	at := strings.Index(body, joined)
	slices.SortFunc(segs, func(a, b []byte) int { return segmentID(a) - segmentID(b) })
	var out []byte
	for _, seg := range segs {
		out = append(out, spiID.ReplaceAll(seg, nil)...)
	}
	return body[:at] + string(out) + body[at+len(joined):]
}

var spiID = regexp.MustCompile(` spi:id="[0-9]+"`)

// entryWithID matches the whole entry a reply gives id, whether or not it
// declares its own namespace (a coalesced batch's do).
func entryWithID(id int) *regexp.Regexp {
	return regexp.MustCompile(fmt.Sprintf(`<m:echoResponse[^>]* spi:id="%d">(.*?)</m:echoResponse>`, id))
}

// TestHostileReplyTable reads one damaged Parallel_Response three ways: a
// core.Client talking to the backend directly, the gateway's gather, which
// splices the backend's reply into the response it writes for a packed
// request, and its coalescer, which splices it into the responses to single
// calls. The gateway reads a reply with the client's reader, so each row has
// one answer, the direct client's: every call answered alike, or the whole
// batch refused for one reason. Through the gateway a refusal reaches each
// call as the Server.Busy fault that quotes the reason (sameAnswer). A row
// with raw set has a backend that answers every request with those bytes,
// HTTP framing and all; its single call, relayed whole, must get relay, and
// the gateway must go on answering after it.
func TestHostileReplyTable(t *testing.T) {
	rows := []struct {
		name, answer string
		damage       func(body string) string
		raw, relay   string
	}{
		{
			name:   "mismatched end tag",
			damage: func(body string) string { return strings.Replace(body, "</p1>", "</p9>", 1) },
			answer: "message: core: decoding response: soap: xmltext: syntax error at 1:",
		},
		{name: "comment between entries", damage: between("<!-- c -->"), answer: "ok"},
		{name: "processing instruction between entries", damage: between("<?pi x?>"), answer: "ok"},
		{name: "text between entries", damage: between("text"), answer: "ok"},
		{name: "CDATA between entries", damage: between("<![CDATA[x]]>"), answer: "ok"},
		{
			name:   "truncated entry",
			damage: func(body string) string { return strings.Replace(body, "</m:echoResponse>", "", 1) },
			answer: "message: core: decoding response: soap: xmltext: syntax error at 1:",
		},
		{
			name:   "duplicate spi:id",
			damage: func(body string) string { return strings.Replace(body, `spi:id="1"`, `spi:id="0"`, 1) },
			answer: "message: core: duplicate spi:id 0 in packed response",
		},
		// The client reads an entry without spi:id by its position
		// (TestPackedReplyPositionalFallback), and so does the gateway.
		{name: "absent spi:id", damage: inSlotOrderWithoutIDs, answer: "ok"},
		{
			name:   "non-numeric spi:id",
			damage: func(body string) string { return strings.Replace(body, `spi:id="1"`, `spi:id="one"`, 1) },
			answer: `message: core: bad spi:id "one" in packed response`,
		},
		{
			name:   "entry for a call never sent",
			damage: between(`<m:echoResponse xmlns:m="urn:spi:Echo" spi:id="9"><p1>9</p1></m:echoResponse>`),
			answer: `message: core: bad spi:id "9" in packed response`,
		},
		// The gateway splices an entry without decoding its values, so the
		// call it answers finds them undecodable as a direct client does.
		{
			name:   "entry whose value does not decode",
			damage: func(body string) string { return strings.Replace(body, ">2</p1>", ">x2</p1>", 1) },
			answer: `ok; ok; soapenc: bad xsd:int "x2"; ok`,
		},
		{
			name:   "missing entry",
			damage: func(body string) string { return entryWithID(3).ReplaceAllString(body, "") },
			answer: "ok; ok; ok; core: no response for packed call 3 (Echo.echo)",
		},
		{
			name: "entry under a foreign prefix",
			damage: func(body string) string {
				return entryWithID(1).ReplaceAllString(body, `<n:echoResponse xmlns:n="urn:spi:Echo" spi:id="1">$1</n:echoResponse>`)
			},
			answer: "ok",
		},
		// Only a Fault in an envelope namespace is a per-item fault: any
		// other is an operation's response that happens to have that name.
		{
			name: "entry named Fault in another namespace",
			damage: func(body string) string {
				return entryWithID(1).ReplaceAllString(body, `<f:Fault xmlns:f="urn:not-soap" spi:id="1">$1</f:Fault>`)
			},
			answer: "ok",
		},
		{
			name: "comment inside the Header",
			damage: func(body string) string {
				return strings.Replace(body, "<s:Body>", "<s:Header><!-- c --></s:Header><s:Body>", 1)
			},
			answer: "ok",
		},
		// A chunk size that overflows the body read so far panicked the
		// reader, and with it the gateway.
		{
			name:   "chunk size overflowing the body",
			raw:    "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n<\r\n7fffffffffffffff\r\nb\r\n0\r\n\r\n",
			answer: "message: httpx: read response: httpx: chunked body exceeds limit 268435456",
			relay:  "core: HTTP 502: backend exchange failed: httpx: read response: httpx: chunked body exceeds limit 268435456",
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			backend := func() *netsim.Link {
				if r.raw != "" {
					return rawBackend(t, r.raw)
				}
				return hostileBackend(t, r.damage)
			}
			direct, err := core.NewClient(core.ClientConfig{Dial: backend().Dial, Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Close()
			hostile := func(cfg *Config) {
				cfg.Backends[0] = BackendConfig{Name: "hostile", Dial: backend().Dial}
				cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
			}
			if got := readerAnswer(t, direct); !strings.HasPrefix(got, r.answer) {
				t.Errorf("direct: %s\nwant prefix %s", got, r.answer)
			}
			gw := newFarm(t, 1, hostile).client(t, nil)
			if got := readerAnswer(t, gw); !sameAnswer(r.answer, got) {
				t.Errorf("through the gateway: %s\nwant the answer %s", got, r.answer)
			}
			if r.relay != "" {
				for i := range 2 {
					if _, err := gw.Call("Echo", "echo", soapenc.F("p1", int64(0))); err == nil || !strings.HasPrefix(err.Error(), r.relay) {
						t.Errorf("relayed call %d: %v\nwant prefix %s", i, err, r.relay)
					}
				}
				if got := readerAnswer(t, gw); !sameAnswer(r.answer, got) {
					t.Errorf("through the gateway, after the relayed calls: %s\nwant the answer %s", got, r.answer)
				}
			}
			holdBatches(t)
			if got := coalescedAnswer(t, coalesceFarm(t, 1, CoalesceConfig{MaxBatch: 4}, hostile)); !sameAnswer(r.answer, got) {
				t.Errorf("through the coalescer: %s\nwant the answer %s", got, r.answer)
			}
		})
	}
}

// rawBackend answers every request on its connections with reply, byte for
// byte.
func rawBackend(tb testing.TB, reply string) *netsim.Link {
	tb.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		tb.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					_, release, err := httpx.ReadRequestPooled(br, 0)
					release()
					if err != nil {
						return
					}
					if _, err := conn.Write([]byte(reply)); err != nil {
						return
					}
				}
			}()
		}
	}()
	tb.Cleanup(func() { link.Close() })
	return link
}

// sameAnswer reports whether got, what a client of the gateway made of a
// reply, is answer, what the direct client made of it: the same calls ok,
// every refusal the Server.Busy fault that quotes its reason, and a call whose
// values do not decode ("soapenc: …") failing with that very error, since
// the gateway passes its entry on undecoded.
func sameAnswer(answer, got string) bool {
	if reason, ok := strings.CutPrefix(answer, "message: "); ok {
		return strings.HasPrefix(got, replyFault) && strings.Contains(got, reason)
	}
	want, have := strings.Split(answer, "; "), strings.Split(got, "; ")
	if len(want) != len(have) {
		return false
	}
	for i, w := range want {
		switch {
		case w == "ok" || strings.HasPrefix(w, "soapenc: "):
			if have[i] != w {
				return false
			}
		case !strings.HasPrefix(have[i], busy) || !strings.Contains(have[i], w):
			return false
		}
	}
	return true
}

// coalescedAnswer sends four echo calls as single calls, one after another
// into one coalesced batch (so call i is the batch's slot i), and says what
// came back, as readerAnswer does.
func coalescedAnswer(t *testing.T, f *farm) string {
	t.Helper()
	cli := f.client(t, nil)
	outs := make([]string, 4)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cli.Call("Echo", "echo", soapenc.F("p1", int64(i)))
			outs[i] = outcomeOf(i, got, err)
		}()
		for deadline := time.Now().Add(5 * time.Second); f.gw.Stats().Coalesced <= int64(i) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	return joinAnswers(outs)
}

// readerAnswer sends four echo calls in one batch and says what the reader
// made of the reply: "ok" when each call got its own echo, "message: …" when
// the batch failed whole, "each: …" when every call failed alike, and each
// call's outcome otherwise.
func readerAnswer(t *testing.T, cli *core.Client) string {
	t.Helper()
	b := cli.NewBatch()
	calls := make([]*core.Call, 4)
	for i := range calls {
		calls[i] = b.Add("Echo", "echo", soapenc.F("p1", int64(i)))
	}
	if err := b.Send(); err != nil {
		return "message: " + err.Error()
	}
	outs := make([]string, len(calls))
	for i, c := range calls {
		got, err := c.Wait()
		outs[i] = outcomeOf(i, got, err)
	}
	return joinAnswers(outs)
}

// outcomeOf is what call i, an echo of i, was answered: "ok" for its echo.
func outcomeOf(i int, got []soapenc.Field, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case len(got) == 1 && soapenc.Equal(got[0].Value, int64(i)):
		return "ok"
	}
	return fmt.Sprintf("answered %v", got)
}

// joinAnswers is "ok" when every call got its echo, "each: …" when every call
// failed alike, and each call's outcome otherwise.
func joinAnswers(outs []string) string {
	for _, o := range outs[1:] {
		if o != outs[0] {
			return strings.Join(outs, "; ")
		}
	}
	if outs[0] == "ok" {
		return "ok"
	}
	return "each: " + outs[0]
}
