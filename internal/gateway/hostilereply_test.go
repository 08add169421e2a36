package gateway

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/soapenc"
)

// between puts s after a reply's first complete entry, where the next one
// starts.
func between(s string) func(string) string {
	return func(body string) string {
		return strings.Replace(body, "</m:echoResponse>", "</m:echoResponse>"+s, 1)
	}
}

// replyFault is what each call of a batch the gateway sends to its one
// backend gets when that backend's reply cannot be read.
const replyFault = "each: soap fault Server.Busy: no backend available for Echo.echo: "

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

// entryWithID matches the whole entry a reply gives id.
func entryWithID(id int) *regexp.Regexp {
	return regexp.MustCompile(fmt.Sprintf(`<m:echoResponse spi:id="%d">.*?</m:echoResponse>`, id))
}

// foreignEntry is the entry with spi:id 1 respelled under a prefix of its own,
// bound on the entry to the same namespace.
var foreignEntry = regexp.MustCompile(`<m:echoResponse spi:id="1">(.*?)</m:echoResponse>`)

// TestHostileReplyTable reads one damaged Parallel_Response two ways: the
// gateway's gather, which cuts the backend's reply into segments and splices
// them into the response it writes, and a core.Client talking to the same
// backend directly. Each row pins both readers' answers to the same packed
// request, four echo calls in one batch. The readers agree when both accept
// the reply or both refuse it (their fault texts differ by design); where one
// accepts what the other refuses, the row names the disagreement, and it
// stays until one reader serves both paths.
func TestHostileReplyTable(t *testing.T) {
	rows := []struct {
		name            string
		damage          func(body string) string
		gateway, client string
		disagreement    string
	}{
		{
			name:    "mismatched end tag",
			damage:  func(body string) string { return strings.Replace(body, "</p1>", "</p9>", 1) },
			gateway: replyFault + "core: end tag </p9> does not match <p1> in packed response entry",
			client:  "message: core: decoding response: soap: xmltext: syntax error at 1:",
		},
		{
			name:         "comment between entries",
			damage:       between("<!-- c -->"),
			gateway:      replyFault + "core: truncated packed response entry",
			client:       "ok",
			disagreement: "the gather walk takes markup that is not an element for an entry that never closes; the client's parser skips it",
		},
		{
			name:         "processing instruction between entries",
			damage:       between("<?pi x?>"),
			gateway:      replyFault + "core: truncated packed response entry",
			client:       "ok",
			disagreement: "the gather walk takes markup that is not an element for an entry that never closes; the client's parser skips it",
		},
		{
			name:    "text between entries",
			damage:  between("text"),
			gateway: "ok",
			client:  "ok",
		},
		{
			name:         "CDATA between entries",
			damage:       between("<![CDATA[x]]>"),
			gateway:      replyFault + "core: truncated packed response entry",
			client:       "ok",
			disagreement: "the gather walk refuses a section where an entry should start; the client's parser reads it as text and skips it",
		},
		{
			name:    "truncated entry",
			damage:  func(body string) string { return strings.Replace(body, "</m:echoResponse>", "", 1) },
			gateway: replyFault + "core: truncated packed response entry",
			client:  "message: core: decoding response: soap: xmltext: syntax error at 1:",
		},
		{
			name:    "duplicate spi:id",
			damage:  func(body string) string { return strings.Replace(body, `spi:id="1"`, `spi:id="0"`, 1) },
			gateway: replyFault + "gateway: backend hostile did not answer spi:id 1 exactly once",
			client:  "message: core: duplicate spi:id 0 in packed response",
		},
		{
			name:         "absent spi:id",
			damage:       inSlotOrderWithoutIDs,
			gateway:      replyFault + "gateway: backend hostile did not answer spi:id 0 exactly once",
			client:       "ok",
			disagreement: "the client reads an entry without spi:id by its position (TestPackedReplyPositionalFallback); the gateway maps segments by spi:id only",
		},
		{
			name:    "non-numeric spi:id",
			damage:  func(body string) string { return strings.Replace(body, `spi:id="1"`, `spi:id="one"`, 1) },
			gateway: replyFault + "gateway: backend hostile did not answer spi:id 1 exactly once",
			client:  `message: core: bad spi:id "one" in packed response`,
		},
		{
			name:    "entry for a call never sent",
			damage:  between(`<m:echoResponse spi:id="9"><p1>9</p1></m:echoResponse>`),
			gateway: replyFault + "gateway: backend hostile returned 5 entries for 4 requests",
			client:  `message: core: bad spi:id "9" in packed response`,
		},
		{
			name:    "missing entry",
			damage:  func(body string) string { return entryWithID(3).ReplaceAllString(body, "") },
			gateway: replyFault + "gateway: backend hostile returned 3 entries for 4 requests",
			client:  "ok; ok; ok; core: no response for packed call 3 (Echo.echo)",
		},
		{
			name: "entry under a foreign prefix",
			damage: func(body string) string {
				return foreignEntry.ReplaceAllString(body, `<n:echoResponse xmlns:n="urn:spi:Echo" spi:id="1">$1</n:echoResponse>`)
			},
			gateway: "ok",
			client:  "ok",
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			direct, err := core.NewClient(core.ClientConfig{Dial: hostileBackend(t, r.damage).Dial, Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Close()
			f := newFarm(t, 1, func(cfg *Config) {
				cfg.Backends[0] = BackendConfig{Name: "hostile", Dial: hostileBackend(t, r.damage).Dial}
				cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
			})
			gw, cl := readerAnswer(t, f.client(t, nil)), readerAnswer(t, direct)
			if !strings.HasPrefix(gw, r.gateway) {
				t.Errorf("through the gateway: %s\nwant prefix %s", gw, r.gateway)
			}
			if !strings.HasPrefix(cl, r.client) {
				t.Errorf("direct: %s\nwant prefix %s", cl, r.client)
			}
			if agree := (gw == "ok") == (cl == "ok"); agree != (r.disagreement == "") {
				t.Errorf("readers agree = %v, but the row names disagreement %q\ngateway: %s\nclient:  %s", agree, r.disagreement, gw, cl)
			}
		})
	}
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
		switch {
		case err != nil:
			outs[i] = err.Error()
		case len(got) == 1 && soapenc.Equal(got[0].Value, int64(i)):
			outs[i] = "ok"
		default:
			outs[i] = fmt.Sprintf("answered %v", got)
		}
	}
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
