package gateway

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
)

// singleCallDoc builds one plain single-call envelope.
func singleCallDoc(v soap.Version, entry string) []byte {
	return []byte(`<?xml version="1.0" encoding="UTF-8"?>` +
		`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `">` +
		`<SOAP-ENV:Body>` + entry + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`)
}

// coalesceFarm is a farm with coalescing on, tuned per test.
func coalesceFarm(tb testing.TB, k int, cc CoalesceConfig, mutate func(*Config)) *farm {
	tb.Helper()
	cc.Enabled = true
	return newFarm(tb, k, func(cfg *Config) {
		cfg.Coalesce = cc
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// holdBatches makes every coalescer built until the test ends hold its
// batches open until a cap, Flush or Close seals them: its settle step's
// yield returns only when the test ends. Call it before building the gateway.
func holdBatches(t *testing.T) {
	release := make(chan struct{})
	settleYield = func() { <-release }
	t.Cleanup(func() {
		settleYield = runtime.Gosched
		close(release)
	})
}

// postHdr is post with extra request headers (header name, value pairs).
func postHdr(tb testing.TB, c *httpx.Client, target, ct string, doc []byte, hdr ...string) reply {
	tb.Helper()
	req := httpx.NewRequest("POST", target, doc)
	req.Header.Set("Content-Type", ct)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := c.DoCtx(context.Background(), req)
	if err != nil {
		tb.Fatalf("POST %s: %v", target, err)
	}
	defer resp.Release()
	return reply{
		status: resp.StatusCode,
		ct:     resp.Header.Get("Content-Type"),
		body:   append([]byte(nil), resp.Body...),
	}
}

// TestDifferentialCoalescedSingles is the coalescer's headline guarantee:
// N independent single-call clients answered through a coalescing gateway
// get byte-identical replies to the same calls answered by a direct
// server — across SOAP versions, routing policies, and op outcomes
// (success, empty result, application fault). The batches are held open
// until the whole burst has parked, so each operation's calls share one
// batch; each client checks its own reply, so a cross-wired spi:id (lost or
// duplicated slot) shows up as a body diff.
func TestDifferentialCoalescedSingles(t *testing.T) {
	clients := 24
	if testing.Short() {
		clients = 8
	}
	ops := []string{"echo", "empty", "none", "fail"}
	holdBatches(t)
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, p := range []Policy{RoundRobin, LeastLoaded, OpAffinity} {
			t.Run(fmt.Sprintf("%s/%s", v, p), func(t *testing.T) {
				t.Parallel()
				d := newDirect(t)
				f := coalesceFarm(t, 3, CoalesceConfig{}, func(cfg *Config) { cfg.Policy = p })

				// One doc per client: mostly echo (same op key, so they pool
				// into shared batches), plus ops with empty results and an
				// application fault (per-item fault → whole-message parity).
				rng := rand.New(rand.NewSource(int64(41*int(v) + int(p))))
				docs := make([][]byte, clients)
				for i := range docs {
					entry := fmt.Sprintf(`<m:echo xmlns:m="urn:spi:Echo"><msg>c%d %s</msg></m:echo>`,
						i, escapeText.Replace(randomPayload(rng)))
					switch i % 8 {
					case 5:
						entry = `<m:empty xmlns:m="urn:spi:Echo"></m:empty>`
					case 6:
						entry = `<m:none xmlns:m="urn:spi:Echo"></m:none>`
					case 7:
						entry = `<m:fail xmlns:m="urn:spi:Echo"></m:fail>`
					}
					docs[i] = singleCallDoc(v, entry)
				}

				// Direct replies first (serially — the reference bytes).
				dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
				defer dc.Close()
				want := make([]reply, clients)
				for i, doc := range docs {
					want[i] = post(t, dc, "/services/Echo", v.ContentType(), doc)
				}

				// Then the same docs as a concurrent burst through the
				// coalescing gateway, one connection per client.
				got := make([]reply, clients)
				var wg sync.WaitGroup
				for i := range docs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						gc := &httpx.Client{Dial: f.gwLink.Dial, KeepAlive: true, Timeout: 10 * time.Second}
						defer gc.Close()
						got[i] = post(t, gc, "/services/Echo", v.ContentType(), docs[i])
					}(i)
				}
				for deadline := time.Now().Add(10 * time.Second); f.gw.Stats().Coalesced < int64(clients); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("only %d of %d calls parked", f.gw.Stats().Coalesced, clients)
					}
				}
				for _, op := range ops {
					f.gw.coalescer.Flush(batchKey{service: "Echo", op: op, version: v})
				}
				wg.Wait()

				for i := range docs {
					diffReplies(t, fmt.Sprintf("client=%d", i), docs[i], want[i], got[i])
				}

				st := f.gw.Stats()
				if st.Coalesced != int64(clients) {
					t.Errorf("Coalesced = %d, want %d (passthrough %d, proxied %d)",
						st.Coalesced, clients, st.CoalescePassthrough, st.Proxied)
				}
				if st.CoalesceBatches != int64(len(ops)) {
					t.Errorf("CoalesceBatches = %d, want one per operation, %d", st.CoalesceBatches, len(ops))
				}
			})
		}
	}
}

// TestDifferentialCoalescedTimeout pins the per-item Server.Timeout
// degradation path: a coalesced call whose SPI-Deadline expires mid-flight
// answers with the exact fault bytes a direct server produces when it
// abandons the same call.
func TestDifferentialCoalescedTimeout(t *testing.T) {
	d := newDirect(t)
	f := coalesceFarm(t, 2, CoalesceConfig{}, nil)
	dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 5 * time.Second}
	gc := f.raw()
	defer dc.Close()
	defer gc.Close()

	// nap(200ms) under an 80ms budget: both sides must abandon with the
	// same Server.Timeout fault text.
	doc := singleCallDoc(soap.V11,
		`<m:nap xmlns:m="urn:spi:Echo"><ms xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:int">200</ms></m:nap>`)
	want := postHdr(t, dc, "/services/Echo", soap.V11.ContentType(), doc, core.HeaderDeadline, "80")
	got := postHdr(t, gc, "/services/Echo", soap.V11.ContentType(), doc, core.HeaderDeadline, "80")
	if want.status != 500 {
		t.Fatalf("direct status = %d, want 500", want.status)
	}
	diffReplies(t, "deadline-timeout", doc, want, got)
	if !bytes.Contains(got.body, []byte("deadline expired before Echo.nap finished")) {
		t.Errorf("fault text missing: %s", got.body)
	}
	if st := f.gw.Stats(); st.Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1 (passthrough %d)", st.Coalesced, st.CoalescePassthrough)
	}
}

// TestCoalesceMaxBatchFlush: the size cap flushes a full batch immediately,
// though the batch is held open and would never settle on its own.
func TestCoalesceMaxBatchFlush(t *testing.T) {
	const n = 4
	holdBatches(t)
	f := coalesceFarm(t, 2, CoalesceConfig{MaxBatch: n}, nil)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gc := &httpx.Client{Dial: f.gwLink.Dial, KeepAlive: true, Timeout: 20 * time.Second}
			defer gc.Close()
			doc := singleCallDoc(soap.V11,
				`<m:echo xmlns:m="urn:spi:Echo"><i>`+strconv.Itoa(i)+`</i></m:echo>`)
			r := post(t, gc, "/services/Echo", soap.V11.ContentType(), doc)
			if r.status != 200 || !bytes.Contains(r.body, []byte(`>`+strconv.Itoa(i)+`</i>`)) {
				errs[i] = fmt.Errorf("client %d: status %d body %s", i, r.status, r.body)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("batch took %v: size cap did not flush early", elapsed)
	}
	st := f.gw.Stats()
	if st.CoalesceBatches != 1 || st.Coalesced != n {
		t.Errorf("batches=%d coalesced=%d, want 1 batch of %d", st.CoalesceBatches, st.Coalesced, n)
	}
	if st.CoalesceSizes["3-4"] != 1 {
		t.Errorf("size histogram = %v, want one batch in bucket 3-4", st.CoalesceSizes)
	}
}

// TestCoalesceStragglerFlush: a lone call with no companions goes out as a
// batch of one once its batch settles.
func TestCoalesceStragglerFlush(t *testing.T) {
	f := coalesceFarm(t, 2, CoalesceConfig{}, nil)
	gc := f.raw()
	defer gc.Close()
	doc := singleCallDoc(soap.V12, `<m:echo xmlns:m="urn:spi:Echo"><msg>alone</msg></m:echo>`)
	r := post(t, gc, "/services/Echo", soap.V12.ContentType(), doc)
	if r.status != 200 || !bytes.Contains(r.body, []byte(">alone</msg>")) {
		t.Fatalf("straggler reply: %d %s", r.status, r.body)
	}
	st := f.gw.Stats()
	if st.Coalesced != 1 || st.CoalesceBatches != 1 || st.CoalesceSizes["1"] != 1 {
		t.Errorf("stats = coalesced %d batches %d sizes %v", st.Coalesced, st.CoalesceBatches, st.CoalesceSizes)
	}
}

// TestCoalesceTightDeadline: a call with a tight SPI-Deadline budget parks
// like any other, since a batch waits for no clock, and is answered inside
// its budget.
func TestCoalesceTightDeadline(t *testing.T) {
	const budget = 50 * time.Millisecond
	f := coalesceFarm(t, 2, CoalesceConfig{}, nil)
	gc := f.raw()
	defer gc.Close()
	doc := singleCallDoc(soap.V11, `<m:echo xmlns:m="urn:spi:Echo"><msg>rush</msg></m:echo>`)
	start := time.Now()
	r := postHdr(t, gc, "/services/Echo", soap.V11.ContentType(), doc,
		core.HeaderDeadline, strconv.Itoa(int(budget/time.Millisecond)))
	if elapsed := time.Since(start); elapsed >= budget {
		t.Errorf("answered after %v, outside its budget of %v", elapsed, budget)
	}
	if r.status != 200 || !bytes.Contains(r.body, []byte(">rush</msg>")) {
		t.Fatalf("tight-deadline reply: %d %s", r.status, r.body)
	}
	st := f.gw.Stats()
	if st.Coalesced != 1 || st.CoalescePassthrough != 0 || st.Proxied != 0 {
		t.Errorf("stats = coalesced %d passthrough %d proxied %d, want 1/0/0",
			st.Coalesced, st.CoalescePassthrough, st.Proxied)
	}
}

// TestCoalesceNonCoalescibleBypass: envelopes the coalescer must not touch
// (header blocks, packed bodies already handled upstream) fall through to
// the proxy and still answer correctly.
func TestCoalesceNonCoalescibleBypass(t *testing.T) {
	f := coalesceFarm(t, 2, CoalesceConfig{}, nil)
	gc := f.raw()
	defer gc.Close()
	withHeader := []byte(`<?xml version="1.0" encoding="UTF-8"?>` +
		`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + soap.V11.Namespace() + `">` +
		`<SOAP-ENV:Header><h xmlns="urn:h">x</h></SOAP-ENV:Header>` +
		`<SOAP-ENV:Body><m:echo xmlns:m="urn:spi:Echo"><msg>hdr</msg></m:echo></SOAP-ENV:Body></SOAP-ENV:Envelope>`)
	r := post(t, gc, "/services/Echo", soap.V11.ContentType(), withHeader)
	if r.status != 200 || !bytes.Contains(r.body, []byte(">hdr</msg>")) {
		t.Fatalf("header envelope reply: %d %s", r.status, r.body)
	}
	st := f.gw.Stats()
	if st.Coalesced != 0 || st.CoalescePassthrough != 1 || st.Proxied != 1 {
		t.Errorf("stats = coalesced %d passthrough %d proxied %d, want 0/1/1",
			st.Coalesced, st.CoalescePassthrough, st.Proxied)
	}
}

// TestChaosCoalesceBackendKill soaks the coalescer while a backend's link
// flaps mid-flight: every client must get either its own echo back or a
// well-formed fault — never a hang, never another client's payload. echo
// is idempotent, so batch failover applies and most calls should survive
// the flap. Run under -race by the race-gateway make target.
func TestChaosCoalesceBackendKill(t *testing.T) {
	rounds, clients := 12, 16
	if testing.Short() {
		rounds, clients = 4, 8
	}
	f := coalesceFarm(t, 3, CoalesceConfig{}, func(cfg *Config) {
		cfg.FailureThreshold = 2
		cfg.ReprobeAfter = 20 * time.Millisecond
	})

	stop := make(chan struct{})
	var flapWG sync.WaitGroup
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		killed := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				f.links[0].FailDials(0)
				return
			case <-time.After(15 * time.Millisecond):
			}
			if killed {
				f.links[0].FailDials(0)
			} else {
				f.links[0].FailDials(1 << 30)
			}
			killed = !killed
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	ok := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gc := &httpx.Client{Dial: f.gwLink.Dial, KeepAlive: true, Timeout: 10 * time.Second}
			defer gc.Close()
			for r := 0; r < rounds; r++ {
				tag := fmt.Sprintf("c%d-r%d", c, r)
				doc := singleCallDoc(soap.V11,
					`<m:echo xmlns:m="urn:spi:Echo"><msg>`+tag+`</msg></m:echo>`)
				resp, err := gc.Post("/services/Echo", soap.V11.ContentType(), doc)
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: transport: %v", tag, err))
					mu.Unlock()
					continue
				}
				body := append([]byte(nil), resp.Body...)
				status := resp.StatusCode
				resp.Release()
				switch {
				case status == 200 && bytes.Contains(body, []byte(">"+tag+"</msg>")):
					mu.Lock()
					ok++
					mu.Unlock()
				case status == 200:
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: foreign payload: %s", tag, body))
					mu.Unlock()
				case status == 500 && bytes.Contains(body, []byte(":Fault")):
					// A well-formed fault is an acceptable outcome mid-flap.
				case status == 502 || status == 503:
					// Proxy-path refusal while every backend is ejected.
				default:
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: status %d body %s", tag, status, body))
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	flapWG.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	if ok == 0 {
		t.Error("no call survived the flap; failover appears broken")
	}
	st := f.gw.Stats()
	if st.Coalesced == 0 {
		t.Error("nothing was coalesced during the soak")
	}
	t.Logf("chaos soak: %d ok / %d calls, stats %+v", ok, clients*rounds, st)
}

// TestCoalesceShutdownReleasesParked: closing the gateway while calls are
// parked in a forming batch must resolve every one of them (fault or
// response), not strand their connection goroutines.
func TestCoalesceShutdownReleasesParked(t *testing.T) {
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.ServerConfig{Container: testContainer(t), AppWorkers: 4, AppQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer func() { srv.Close(); link.Close() }()

	holdBatches(t)
	gw, err := New(Config{
		Backends: []BackendConfig{{Name: "b0", Dial: link.Dial}},
		Registry: testContainer(t),
		Coalesce: CoalesceConfig{Enabled: true, MaxBatch: 1 << 20},
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
	defer gwLink.Close()

	// Park two calls: the held batch and the huge batch cap mean only
	// shutdown can flush them.
	const parked = 2
	done := make(chan reply, parked)
	for i := 0; i < parked; i++ {
		go func(i int) {
			gc := &httpx.Client{Dial: gwLink.Dial, Timeout: 20 * time.Second}
			defer gc.Close()
			doc := singleCallDoc(soap.V11,
				`<m:echo xmlns:m="urn:spi:Echo"><i>`+strconv.Itoa(i)+`</i></m:echo>`)
			resp, err := gc.Post("/services/Echo", soap.V11.ContentType(), doc)
			if err != nil {
				done <- reply{status: -1}
				return
			}
			r := reply{status: resp.StatusCode, body: append([]byte(nil), resp.Body...)}
			resp.Release()
			done <- r
		}(i)
	}
	// Wait until both calls are parked in the bucket.
	deadline := time.Now().Add(5 * time.Second)
	for gw.Stats().Coalesced < parked {
		if time.Now().After(deadline) {
			t.Fatalf("calls never parked: %+v", gw.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := gw.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < parked; i++ {
		select {
		case r := <-done:
			// Either outcome is fine — a successful flush-on-close or a
			// cancellation fault — as long as the handler returned.
			if r.status != 200 && r.status != 500 && r.status != -1 {
				t.Errorf("parked call resolved with status %d body %s", r.status, r.body)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("parked call never resolved after shutdown")
		}
	}
}
