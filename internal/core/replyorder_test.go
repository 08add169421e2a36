package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

// replyClient is a client whose every exchange is answered with status and
// doc, retrying each once (echo is marked idempotent); hits counts the
// exchanges the server saw.
func replyClient(t *testing.T, v soap.Version, status int, doc []byte) (*Client, *atomic.Int64) {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	hits := new(atomic.Int64)
	srv := &httpx.Server{Handler: func(_ context.Context, _ *httpx.Request) *httpx.Response {
		hits.Add(1)
		resp := httpx.NewResponse(status, doc)
		resp.Header.Set("Content-Type", v.ContentType())
		return resp
	}}
	go srv.Serve(lis)
	cli, err := NewClient(ClientConfig{
		Dial: link.Dial, Timeout: 5 * time.Second, SOAP12: v == soap.V12,
		Retry: &RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cli.MarkIdempotent("Echo", "echo")
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		link.Close()
	})
	return cli, hits
}

// replyBody is a reply document of version v whose Body holds body.
func replyBody(v soap.Version, body string) []byte {
	return []byte(`<s:Envelope xmlns:s="` + v.Namespace() + `"><s:Body>` + body + `</s:Body></s:Envelope>`)
}

// packedReply wraps entries in a Parallel_Response that binds m to Echo's
// namespace.
func packedReply(entries ...string) string {
	return `<spi:Parallel_Response xmlns:spi="` + NSPack + `" xmlns:m="urn:spi:Echo">` +
		strings.Join(entries, "") + `</spi:Parallel_Response>`
}

// echoEntry is a well-formed answer to an echo under id.
func echoEntry(id string) string {
	return `<m:echoResponse spi:id="` + id + `"><data>v` + id + `</data></m:echoResponse>`
}

// undecodableEntry is an answer under id whose value names an unbound prefix.
func undecodableEntry(id string) string {
	return `<m:echoResponse spi:id="` + id + `"><n xsi:type="xsd:int">5</n></m:echoResponse>`
}

// busyFault is a whole-message Server.Busy fault in v's layout: a fault the
// retry policy re-sends when it is met inside an attempt.
func busyFault(t *testing.T, v soap.Version) string {
	t.Helper()
	em := xmltext.AcquireEmitter()
	defer xmltext.ReleaseEmitter(em)
	(&soap.Fault{Code: FaultCodeBusy, String: "shed"}).AppendElementFor(em, v)
	if err := em.Finish(); err != nil {
		t.Fatal(err)
	}
	return string(em.Bytes())
}

// replyAnswer is what a call path made of a reply: "message: …" when Send
// failed whole (every call then carries the same error), else each call's
// outcome.
func replyAnswer(send func() error, calls []*Call) string {
	var out string
	if err := send(); err != nil {
		out = "message: " + err.Error()
		for _, c := range calls {
			if _, cerr := c.Wait(); cerr == nil || cerr.Error() != err.Error() {
				out += fmt.Sprintf(" (a call got %v)", cerr)
			}
		}
	} else {
		outs := make([]string, len(calls))
		for i, c := range calls {
			got, err := c.Wait()
			if err != nil {
				outs[i] = err.Error()
			} else {
				outs[i] = fmt.Sprint(got)
			}
		}
		out = strings.Join(outs, "; ")
	}
	return out
}

// TestReplyPrecedence is the client's answer to a damaged reply, one row per
// rung of its precedence — a malformed document, then a whole-message fault,
// then a body that is not a Parallel_Response, then a bad or duplicate
// spi:id, then an undecodable entry, which fails its own call alone — plus a non-200 reply that does not
// parse, in both SOAP versions through Call, Batch.Send and Plan.Send. Each
// row also carries the defects of the rungs below its own, so the row's
// answer is its rung's. The sent counts pin the retry classification: what a
// packed exchange finds after a well-formed document is decided outside the
// retried attempt, so a Server.Busy fault re-sends a single call and not a
// batch or a plan.
func TestReplyPrecedence(t *testing.T) {
	rows := []struct {
		name   string
		status int
		doc    func(v soap.Version) []byte
		// call, batch and plan are the answers through Call, Batch.Send and
		// Plan.Send, each a prefix; the batch and the plan have two echo
		// calls each.
		call, batch, plan string
		// sent is how many exchanges the server saw on each path.
		sent [3]int64
	}{
		{
			name:   "malformed document",
			status: 200,
			doc: func(v soap.Version) []byte {
				doc := replyBody(v, busyFault(t, v))
				return doc[:len(doc)-len("</s:Envelope>")]
			},
			call:  "core: decoding response: soap: xmltext: syntax error at 1:",
			batch: "message: core: decoding response: soap: xmltext: syntax error at 1:",
			plan:  "message: core: decoding response: soap: xmltext: syntax error at 1:",
			sent:  [3]int64{2, 2, 2},
		},
		{
			name:   "whole-message fault",
			status: 500,
			doc:    func(v soap.Version) []byte { return replyBody(v, busyFault(t, v)) },
			call:   "soap fault Server.Busy: shed",
			batch:  "message: soap fault Server.Busy: shed",
			plan:   "message: soap fault Server.Busy: shed",
			sent:   [3]int64{2, 1, 1},
		},
		{
			name:   "body that is not a Parallel_Response",
			status: 200,
			doc: func(v soap.Version) []byte {
				return replyBody(v, packedReply(echoEntry("0"), echoEntry("0"), undecodableEntry("1"))+`<m:extra xmlns:m="urn:x"/>`)
			},
			call:  "core: response has 2 body entries",
			batch: "message: core: response is not a Parallel_Response",
			plan:  "message: core: response is not a Parallel_Response",
			sent:  [3]int64{2, 1, 1},
		},
		{
			name:   "bad spi:id",
			status: 200,
			doc: func(v soap.Version) []byte {
				return replyBody(v, packedReply(undecodableEntry("x"), echoEntry("0"), echoEntry("0")))
			},
			call:  `soapenc: attribute xsi:type on <n>: prefix "xsi" is not bound to a namespace`,
			batch: `message: core: bad spi:id "x" in packed response`,
			plan:  `message: core: bad spi:id "x" in packed response`,
			sent:  [3]int64{2, 1, 1},
		},
		{
			name:   "duplicate spi:id",
			status: 200,
			doc: func(v soap.Version) []byte {
				return replyBody(v, packedReply(echoEntry("0"), echoEntry("0"), undecodableEntry("1")))
			},
			call:  `soapenc: attribute xsi:type on <n>: prefix "xsi" is not bound to a namespace`,
			batch: "message: core: duplicate spi:id 0 in packed response",
			plan:  "message: core: duplicate spi:id 0 in packed response",
			sent:  [3]int64{2, 1, 1},
		},
		{
			name:   "undecodable entry",
			status: 200,
			doc: func(v soap.Version) []byte {
				return replyBody(v, packedReply(echoEntry("0"), undecodableEntry("1")))
			},
			call: `soapenc: attribute xsi:type on <n>: prefix "xsi" is not bound to a namespace`,
			// The entry that does not decode fails its own call, as it
			// fails a single call; the other call is answered.
			batch: `[{data v0}]; soapenc: attribute xsi:type on <n>: prefix "xsi" is not bound to a namespace`,
			plan:  `[{data v0}]; soapenc: attribute xsi:type on <n>: prefix "xsi" is not bound to a namespace`,
			sent:  [3]int64{2, 1, 1},
		},
		{
			name:   "non-200 reply that does not parse",
			status: 503,
			doc:    func(soap.Version) []byte { return []byte("upstream down") },
			call:   "core: HTTP 503: upstream down",
			batch:  "message: core: HTTP 503: upstream down",
			plan:   "message: core: HTTP 503: upstream down",
			sent:   [3]int64{2, 2, 2},
		},
	}
	for _, r := range rows {
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			t.Run(r.name+"/"+v.String(), func(t *testing.T) {
				doc := r.doc(v)
				check := func(path, want, got string, sent, hits int64) {
					t.Helper()
					if !strings.HasPrefix(got, want) {
						t.Errorf("%s: %s\nwant prefix %s", path, got, want)
					}
					if hits != sent {
						t.Errorf("%s: sent %d times, want %d", path, hits, sent)
					}
				}

				cli, hits := replyClient(t, v, r.status, doc)
				call := cli.Go("Echo", "echo", soapenc.F("data", "v0"))
				check("Call", r.call, replyAnswer(func() error { return nil }, []*Call{call}), r.sent[0], hits.Load())

				cli, hits = replyClient(t, v, r.status, doc)
				b := cli.NewBatch()
				calls := []*Call{b.Add("Echo", "echo", soapenc.F("data", "v0")), b.Add("Echo", "echo", soapenc.F("data", "v1"))}
				check("Batch.Send", r.batch, replyAnswer(b.Send, calls), r.sent[1], hits.Load())

				cli, hits = replyClient(t, v, r.status, doc)
				p := cli.NewPlan()
				steps := []*Call{p.Add("Echo", "echo", soapenc.F("data", "v0")).Call, p.Add("Echo", "echo", soapenc.F("data", "v1")).Call}
				check("Plan.Send", r.plan, replyAnswer(p.Send, steps), r.sent[2], hits.Load())
			})
		}
	}
}
