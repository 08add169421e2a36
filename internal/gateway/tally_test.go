package gateway

import (
	"bufio"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// The counting invariant: every fault the gateway writes is counted once in
// Faults (a whole message) or ItemFaults (an entry of a packed response),
// and once under its wire code. So once every shard goroutine has returned,
// the per-code tallies less the transport's HTTP 400 rejects, which no SOAP
// fault answers, equal Faults + ItemFaults, on Stats and on AdminStats
// alike. The one exception is the relay's plain-text 502, counted in Faults
// with no code. The rows below drive each place a fault is decided,
// including the ones where two paths decide one slot's fault.

// codeTotal is the sum of a node's per-code tallies less its HTTP 400
// rejects.
func codeTotal(codes map[string]int64) int64 {
	var n int64
	for code, c := range codes {
		if code != "HTTP.400" {
			n += c
		}
	}
	return n
}

// codeMap keys a Stats snapshot's per-code tallies by code.
func codeMap(cc []fault.CodeCount) map[string]int64 {
	m := make(map[string]int64, len(cc))
	for _, c := range cc {
		m[c.Code] = c.Count
	}
	return m
}

// checkTally waits for gw's shard goroutines to return, then holds both of
// its snapshots to the counting invariant. relay502s is how many plain-text
// 502s the test caused. It returns the per-code tallies for the row's own
// checks.
func checkTally(t *testing.T, gw *Gateway, relay502s int64) map[string]int64 {
	t.Helper()
	gw.shards.Wait()
	st, as := gw.Stats(), gw.AdminStats()
	codes := codeMap(st.FaultCodes)
	if got, want := codeTotal(codes), st.Faults+st.ItemFaults-relay502s; got != want {
		t.Errorf("Stats: %d faults by code %v, want Faults %d + ItemFaults %d - %d relay 502s = %d",
			got, codes, st.Faults, st.ItemFaults, relay502s, want)
	}
	acodes := make(map[string]int64, len(as.FaultCodes))
	for _, c := range as.FaultCodes {
		acodes[c.Code] = c.Count
	}
	if got, want := codeTotal(acodes), as.Faults+as.ItemFaults-relay502s; got != want {
		t.Errorf("AdminStats: %d faults by code %v, want Faults %d + ItemFaults %d - %d relay 502s = %d",
			got, acodes, as.Faults, as.ItemFaults, relay502s, want)
	}
	return codes
}

// checkServerTally holds a backend server to the same invariant, on both of
// its snapshots, once nothing is in flight on it.
func checkServerTally(t *testing.T, srv *core.Server) {
	t.Helper()
	st, as := srv.Stats(), srv.AdminStats()
	if got, want := codeTotal(codeMap(st.FaultCodes)), st.Faults+st.ItemFaults; got != want {
		t.Errorf("server Stats: %d faults by code %v, want Faults %d + ItemFaults %d", got, st.FaultCodes, st.Faults, st.ItemFaults)
	}
	acodes := make(map[string]int64, len(as.FaultCodes))
	for _, c := range as.FaultCodes {
		acodes[c.Code] = c.Count
	}
	if got, want := codeTotal(acodes), as.Faults+as.ItemFaults; got != want {
		t.Errorf("server AdminStats: %d faults by code %v, want Faults %d + ItemFaults %d", got, acodes, as.Faults, as.ItemFaults)
	}
	codes := codeMap(st.FaultCodes)
	if r := st.Resilience; r.Timeouts != codes[core.FaultCodeTimeout] || r.Cancellations != codes[core.FaultCodeCancelled] {
		t.Errorf("server Resilience Timeouts %d, Cancellations %d; want the written %v", r.Timeouts, r.Cancellations, codes)
	}
}

// wantCodes checks the per-code tallies a row wrote.
func wantCodes(t *testing.T, got, want map[string]int64) {
	t.Helper()
	for code, n := range want {
		if got[code] != n {
			t.Errorf("FaultCodes[%s] = %d, want %d (all: %v)", code, got[code], n, got)
		}
	}
	for code := range got {
		if _, ok := want[code]; !ok {
			t.Errorf("FaultCodes[%s] = %d, want none (all: %v)", code, got[code], got)
		}
	}
}

// holdingBackend reads what each connection sends and answers nothing until
// the test calls release; then it hangs up. arrived is closed when the first
// bytes come in.
func holdingBackend(t *testing.T) (link *netsim.Link, arrived <-chan struct{}, release func()) {
	t.Helper()
	got, hold := make(chan struct{}), make(chan struct{})
	var arrive, free sync.Once
	link = netsim.NewLink(netsim.Fast())
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
				buf := make([]byte, 4096)
				if _, err := c.Read(buf); err != nil {
					return
				}
				arrive.Do(func() { close(got) })
				<-hold
			}(conn)
		}
	}()
	release = func() { free.Do(func() { close(hold) }) }
	t.Cleanup(func() { release(); link.Close() })
	return link, got, release
}

// TestTallyDegradedThenShardFails: both entries of a packed request are
// degraded at its deadline while their shard is still out; the shard then
// fails as well. Each slot's fault is written once, so it is counted once —
// the failure that comes after the degrade writes nothing. Several rounds,
// since which of the two ends a slot first is up to the scheduler.
func TestTallyDegradedThenShardFails(t *testing.T) {
	for round := 0; round < 3; round++ {
		link, arrived, release := holdingBackend(t)
		cli, gw := deadlineGateway(t, BackendConfig{Dial: link.Dial}, func(cfg *Config) {
			cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
		})
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		answer := sendPair(cli, ctx, "echo")
		cancel()
		if answer != "timeout" {
			t.Fatalf("round %d: answer = %q, want timeout", round, answer)
		}
		waitArrived(t, arrived)
		release()
		codes := checkTally(t, gw, 0)
		wantCodes(t, codes, map[string]int64{fault.WireTimeout: 2})
		if st := gw.Stats(); st.ItemFaults != 2 || st.Faults != 0 {
			t.Errorf("round %d: ItemFaults %d, Faults %d; want 2, 0", round, st.ItemFaults, st.Faults)
		}
	}
}

// TestTallyCoalescedDegradedBatchFailsLater: a coalesced call degrades at its
// own deadline while its batch, held open by a member with none, fails only
// when the backend hangs up. The degraded member's answer is one fault, and
// the batch's failure then answers only the other member.
func TestTallyCoalescedDegradedBatchFailsLater(t *testing.T) {
	holdBatches(t)
	link, arrived, release := holdingBackend(t)
	cli, gw := deadlineGateway(t, BackendConfig{Dial: link.Dial}, func(cfg *Config) {
		cfg.Coalesce = CoalesceConfig{Enabled: true, MaxBatch: 2}
		cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
	})
	openDone := make(chan string, 1)
	go func() {
		_, err := cli.Call("Echo", "echo", soapenc.F("m", "open"))
		openDone <- deadlineAnswer(err)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	tightDone := make(chan string, 1)
	go func() {
		_, err := cli.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "tight"))
		tightDone <- deadlineAnswer(err)
	}()
	waitArrived(t, arrived)
	if got := <-tightDone; got != "timeout" {
		t.Errorf("tight member = %q, want timeout", got)
	}
	release()
	if got := <-openDone; got != "busy" {
		t.Errorf("open member = %q, want busy", got)
	}
	codes := checkTally(t, gw, 0)
	wantCodes(t, codes, map[string]int64{fault.WireTimeout: 1, fault.WireBusy: 1})
	if st := gw.Stats(); st.Faults != 2 || st.ItemFaults != 0 || st.Coalesced != 2 {
		t.Errorf("Faults %d, ItemFaults %d, Coalesced %d; want 2, 0, 2", st.Faults, st.ItemFaults, st.Coalesced)
	}
}

// TestTallyCoalescedItemFault: a coalesced call the backend answers with its
// per-item fault goes back to its client as a whole-message fault, counted
// under its code like any other.
func TestTallyCoalescedItemFault(t *testing.T) {
	f := coalesceFarm(t, 1, CoalesceConfig{}, nil)
	cli := f.client(t, nil)
	if _, err := cli.Call("Echo", "fail"); err == nil {
		t.Fatal("Echo.fail did not fault")
	}
	if _, err := cli.Call("Echo", "echo", soapenc.F("m", "fine")); err != nil {
		t.Fatal(err)
	}
	codes := checkTally(t, f.gw, 0)
	wantCodes(t, codes, map[string]int64{soap.FaultServer: 1})
	if st := f.gw.Stats(); st.Faults != 1 || st.Coalesced != 2 {
		t.Errorf("Faults %d, Coalesced %d; want 1, 2", st.Faults, st.Coalesced)
	}
}

// TestTallyGatewayFaults drives each other place the gateway decides a fault:
// a request it cannot parse, a reply that leaves an entry unanswered, a
// sub-batch it cannot build, a relayed call its deadline ends, a relay with
// no backend to reach (the plain-text 502), and a request the transport
// refuses (HTTP 400).
func TestTallyGatewayFaults(t *testing.T) {
	t.Run("parse fault", func(t *testing.T) {
		f := newFarm(t, 1, nil)
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			r := post(t, f.raw(), "/services/", v.ContentType(), []byte(`<SOAP-ENV:Envelope xmlns:SOAP-ENV="`+v.Namespace()+`"><SOAP-ENV:Body>`))
			if r.status != 500 {
				t.Errorf("%v: status %d, want 500", v, r.status)
			}
		}
		wantCodes(t, checkTally(t, f.gw, 0), map[string]int64{soap.FaultClient: 2})
	})
	t.Run("missing reply entry", func(t *testing.T) {
		link := netsim.NewLink(netsim.Fast())
		lis, err := link.Listen()
		if err != nil {
			t.Fatal(err)
		}
		answerOne := &httpx.Server{Handler: func(ctx context.Context, req *httpx.Request) *httpx.Response {
			resp := httpx.NewResponse(200, []byte(`<s:Envelope xmlns:s="`+soap.V11.Namespace()+`"><s:Body>`+
				`<spi:Parallel_Response xmlns:spi="`+core.NSPack+`" xmlns:m="urn:spi:Echo">`+
				`<m:echoResponse spi:id="0"/></spi:Parallel_Response></s:Body></s:Envelope>`))
			resp.Header.Set("Content-Type", soap.V11.ContentType())
			return resp
		}}
		go answerOne.Serve(lis)
		t.Cleanup(func() { answerOne.Close(); link.Close() })
		f := newFarm(t, 0, func(cfg *Config) {
			cfg.Backends = []BackendConfig{{Name: "b0", Dial: link.Dial}}
			cfg.Retry = &core.RetryPolicy{MaxAttempts: 1}
		})
		doc := packedDocWith(soap.V11, ` xmlns:m="urn:spi:Echo" spi:service="Echo"`, []string{`<m:echo/>`, `<m:echo/>`})
		if r := post(t, f.raw(), "/services/", soap.V11.ContentType(), doc); r.status != 200 {
			t.Errorf("status %d, want 200: %s", r.status, r.body)
		}
		wantCodes(t, checkTally(t, f.gw, 0), map[string]int64{fault.WireBusy: 1})
		if st := f.gw.Stats(); st.ItemFaults != 1 {
			t.Errorf("ItemFaults %d, want 1", st.ItemFaults)
		}
	})
	t.Run("sub-batch build failure", func(t *testing.T) {
		f := newFarm(t, 1, nil)
		// An entry with no request element to send: BuildSubBatch refuses it.
		sr := &core.ScatterRequest{Version: soap.V11, Packed: true,
			Entries: []*core.ScatterEntry{{Slot: 0, ID: 0, Service: "Echo", Op: "echo"}}}
		resp := f.gw.scatterGather(context.Background(), sr)
		if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "building sub-batch") {
			t.Errorf("status %d: %s", resp.StatusCode, resp.Body)
		}
		resp.Release()
		wantCodes(t, checkTally(t, f.gw, 0), map[string]int64{soap.FaultServer: 1})
		if st := f.gw.Stats(); st.ItemFaults != 1 || st.Scattered != 0 {
			t.Errorf("ItemFaults %d, Scattered %d; want 1, 0", st.ItemFaults, st.Scattered)
		}
	})
	t.Run("relay expiry", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), deadlineBudget)
		defer cancel()
		answer, gw := relayedSingle(t, ctx, false)
		if answer != "timeout" {
			t.Errorf("answer = %q, want timeout", answer)
		}
		wantCodes(t, checkTally(t, gw, 0), map[string]int64{fault.WireTimeout: 1})
		if st := gw.Stats(); st.Faults != 1 {
			t.Errorf("Faults %d, want 1", st.Faults)
		}
	})
	t.Run("relay 502", func(t *testing.T) {
		f := newFarm(t, 1, func(cfg *Config) { cfg.Retry = &core.RetryPolicy{MaxAttempts: 1} })
		f.links[0].FailDials(1 << 20)
		r := post(t, f.raw(), "/services/Echo", soap.V11.ContentType(), singleCallDoc(soap.V11, `<m:echo xmlns:m="urn:spi:Echo"/>`))
		if r.status != 502 {
			t.Errorf("status %d, want 502", r.status)
		}
		wantCodes(t, checkTally(t, f.gw, 1), map[string]int64{})
		if st := f.gw.Stats(); st.Faults != 1 {
			t.Errorf("Faults %d, want 1", st.Faults)
		}
	})
	t.Run("transport reject", func(t *testing.T) {
		f := newFarm(t, 1, nil)
		conn, err := f.gwLink.Dial()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("POST /services/ HTTP/1.1\r\nHost: gw\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		if resp, err := httpx.ReadResponse(bufio.NewReader(conn), 0); err != nil || resp.StatusCode != 400 {
			t.Fatalf("%+v, %v; want 400", resp, err)
		}
		wantCodes(t, checkTally(t, f.gw, 0), map[string]int64{"HTTP.400": 1})
	})
}
