package gateway

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// reversingBackend answers like a real server with its Parallel_Response
// entries in reverse order — the order of a backend whose last entry finished
// first. Every entry still carries its spi:id.
func reversingBackend(tb testing.TB) *netsim.Link {
	tb.Helper()
	return hostileBackend(tb, func(body string) string {
		segs, _, err := core.SplitGatherResponse([]byte(body))
		if err != nil || len(segs) < 2 {
			return body
		}
		joined := string(bytes.Join(segs, nil))
		at := strings.Index(body, joined)
		slices.Reverse(segs)
		return body[:at] + string(bytes.Join(segs, nil)) + body[at+len(joined):]
	})
}

// heldBackend answers like a real server once gate is closed.
func heldBackend(tb testing.TB, gate chan struct{}) *netsim.Link {
	tb.Helper()
	return hostileBackend(tb, func(body string) string {
		<-gate
		return body
	})
}

// TestGatherWritesFastShardFirst: with two backends and one held, the gathered
// response takes the fast shard's segments as they arrive, ahead of the held
// shard's, whose slots come first in the request: nothing waits for a slow
// head. No sleeps: the fast shard is delivered before the held backend is
// released, on the test's own goroutine.
func TestGatherWritesFastShardFirst(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	f := newFarm(t, 2, func(cfg *Config) {
		cfg.Backends[1] = BackendConfig{Name: "held", Dial: heldBackend(t, gate).Dial}
	})
	sr, fault := core.ParseScatterRequest(stringsOnlyDoc(soap.V11), "")
	if fault != nil {
		t.Fatal(fault)
	}
	// The held backend gets the even slots, slot 0 among them.
	shards := []shard{{b: f.gw.backends[1]}, {b: f.gw.backends[0]}}
	for _, e := range sr.Entries {
		shards[e.Slot%2].entries = append(shards[e.Slot%2].entries, e)
	}
	col := sr.NewCollector()
	gathered := make(chan []byte)
	go func() {
		resp, _, err := col.Assemble(context.Background(), sr.Version, nil)
		if err != nil {
			t.Error(err)
		}
		gathered <- bytes.Clone(resp.Body)
		resp.Release()
	}()
	ctx := context.Background()
	for _, sh := range shards {
		sh.b.entriesInflight.Add(int64(len(sh.entries))) // what assign reserves
	}
	built := f.gw.buildSubBatches(sr, shards, col)
	go f.gw.sendShard(ctx, built[0], sr, col)
	f.gw.sendShard(ctx, built[1], sr, col) // delivered on return
	select {
	case body := <-gathered:
		t.Fatalf("gathered before the held backend answered: %s", body)
	default:
	}
	release()
	body := <-gathered
	segs, _, err := core.SplitGatherResponse(body)
	if err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	var order []int
	for _, seg := range segs {
		order = append(order, segmentID(seg))
	}
	// Each backend writes its own entries in the order they complete.
	if len(order) != 5 {
		t.Fatalf("%d entries: %s", len(order), body)
	}
	fast, held := slices.Clone(order[:2]), slices.Clone(order[2:])
	slices.Sort(fast)
	slices.Sort(held)
	if !slices.Equal(fast, []int{1, 3}) || !slices.Equal(held, []int{0, 2, 4}) {
		t.Errorf("entries written in the order %v, want the fast shard's 1 and 3 first, then 0, 2 and 4\n%s", order, body)
	}
}

// TestReverseOrderBackend: a backend may answer a sub-batch's entries in any
// order, so the gateway maps its segments to slots by spi:id. Through the
// scatter path the client routes by id, and the reply is the direct server's
// answer; through the coalescer each parked single call gets its own echo,
// not the echo of the call that shared its position in the reply.
func TestReverseOrderBackend(t *testing.T) {
	reversing := func(cfg *Config) {
		for i := range cfg.Backends {
			cfg.Backends[i] = BackendConfig{Name: fmt.Sprintf("reversing%d", i), Dial: reversingBackend(t).Dial}
		}
	}
	t.Run("scatter", func(t *testing.T) {
		d := newDirect(t)
		dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
		defer dc.Close()
		for _, k := range []int{1, 2} {
			f := newFarm(t, k, reversing)
			gc := f.raw()
			for _, v := range []soap.Version{soap.V11, soap.V12} {
				for name, doc := range map[string][]byte{"strings only": stringsOnlyDoc(v), "travel search": travelSearchDoc(v)} {
					label := fmt.Sprintf("backends=%d/%v/%s", k, v, name)
					diffReplies(t, label, doc, post(t, dc, "/services", v.ContentType(), doc), post(t, gc, "/services", v.ContentType(), doc))
				}
			}
			gc.Close()
			b := f.client(t, nil).NewBatch()
			var calls []*core.Call
			for i := 0; i < 8; i++ {
				calls = append(calls, b.Add("Echo", "echo", soapenc.F("i", int64(i))))
			}
			if err := b.Send(); err != nil {
				t.Fatal(err)
			}
			for i, c := range calls {
				if got, err := c.Wait(); err != nil || len(got) != 1 || !soapenc.Equal(got[0].Value, int64(i)) {
					t.Errorf("backends=%d: call %d answered %v, %v", k, i, got, err)
				}
			}
		}
	})
	t.Run("coalesce", func(t *testing.T) {
		// The batch cap is the only thing that flushes: n calls make one batch.
		const n = 4
		holdBatches(t)
		f := coalesceFarm(t, 1, CoalesceConfig{MaxBatch: n}, reversing)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				gc := &httpx.Client{Dial: f.gwLink.Dial, KeepAlive: true, Timeout: 20 * time.Second}
				defer gc.Close()
				msg := fmt.Sprintf("caller-%d", i)
				resp, err := gc.Post("/services/Echo", soap.V11.ContentType(),
					singleCallDoc(soap.V11, `<m:echo xmlns:m="urn:spi:Echo"><msg>`+msg+`</msg></m:echo>`))
				if err != nil {
					t.Errorf("%s: %v", msg, err)
					return
				}
				defer resp.Release()
				if resp.StatusCode != 200 || !bytes.Contains(resp.Body, []byte("<msg>"+msg+"</msg>")) {
					t.Errorf("%s answered %d %s", msg, resp.StatusCode, resp.Body)
				}
			}(i)
		}
		wg.Wait()
		if st := f.gw.Stats(); st.CoalesceBatches != 1 || st.Coalesced != n {
			t.Errorf("batches=%d coalesced=%d, want 1 batch of %d", st.CoalesceBatches, st.Coalesced, n)
		}
	})
}

// TestReplyIDsMustMatchTheSubBatch: a reply that answers an id its sub-batch
// did not ask for, or one id twice, cannot be mapped to slots; like a
// malformed reply, it fails the exchange and the shard's entries degrade to
// faults that say why.
func TestReplyIDsMustMatchTheSubBatch(t *testing.T) {
	for name, damage := range map[string]func(string) string{
		"unasked id":  func(body string) string { return strings.Replace(body, `spi:id="1"`, `spi:id="9"`, 1) },
		"repeated id": func(body string) string { return strings.Replace(body, `spi:id="1"`, `spi:id="0"`, 1) },
		"missing id":  func(body string) string { return strings.Replace(body, ` spi:id="1"`, ``, 1) },
		"unparsed id": func(body string) string { return strings.Replace(body, `spi:id="1"`, `spi:id="one"`, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			f := newFarm(t, 1, func(cfg *Config) {
				cfg.Backends[0] = BackendConfig{Name: "hostile", Dial: hostileBackend(t, damage).Dial}
				cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
			})
			gc := f.raw()
			defer gc.Close()
			got := post(t, gc, "/services", soap.V11.ContentType(), stringsOnlyDoc(soap.V11))
			env, err := soap.Decode(bytes.NewReader(got.body))
			if got.status != 200 || err != nil || len(env.Body) != 1 {
				t.Fatalf("HTTP %d, %v: %s", got.status, err, got.body)
			}
			entries := env.Body[0].ChildElements()
			if len(entries) != 5 {
				t.Fatalf("%d entries, want 5: %s", len(entries), got.body)
			}
			for i, el := range entries {
				if el.Name.Local != "Fault" || !strings.Contains(el.String(), "answer spi:id") {
					t.Errorf("entry %d is not the mismatched-reply fault: %s", i, el)
				}
			}
		})
	}
}

// TestMismatchedEndTagFaultsOnlyItsShard: a backend reply whose end tag names
// another element than the start tag it closes is malformed, like a truncated
// one. The gateway must not splice it: the hostile shard's entries degrade to
// faults, and the healthy shard's keep their results in a gathered document
// the client can read.
func TestMismatchedEndTagFaultsOnlyItsShard(t *testing.T) {
	damage := func(body string) string { return strings.Replace(body, "</p1>", "</p9>", 1) }
	f := newFarm(t, 2, func(cfg *Config) {
		cfg.Backends[1] = BackendConfig{Name: "hostile", Dial: hostileBackend(t, damage).Dial}
		cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
	})
	b := f.client(t, nil).NewBatch()
	var calls []*core.Call
	for i := 0; i < 6; i++ {
		calls = append(calls, b.Add("Echo", "echo", soapenc.F("p1", int64(i))))
	}
	if err := b.Send(); err != nil {
		t.Fatalf("the gathered response did not parse: %v", err)
	}
	var answered, faulted []int
	for i, c := range calls {
		got, err := c.Wait()
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), "does not match") {
				t.Errorf("call %d: %v, want the mismatched-reply fault", i, err)
			}
			faulted = append(faulted, i)
		case len(got) != 1 || !soapenc.Equal(got[0].Value, int64(i)):
			t.Errorf("call %d answered %v", i, got)
		default:
			answered = append(answered, i)
		}
	}
	if len(answered) != 3 || len(faulted) != 3 {
		t.Errorf("answered %v and faulted %v, want three of each (one shard each)", answered, faulted)
	}
}
