package core

import (
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// TestFaultCodeCounters drives one whole-message application fault and one
// packed per-item watchdog timeout through a live system and asserts both
// show up, keyed by wire code, in Stats().FaultCodes and the admin
// snapshot's fault_codes — the taxonomy's observability surface.
func TestFaultCodeCounters(t *testing.T) {
	sys := newSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.OperationTimeout = 5 * time.Millisecond
	})

	if _, err := sys.client.Call("Echo", "fail"); err == nil {
		t.Fatal("fail op did not fault")
	}
	b := sys.client.NewBatch()
	quick := b.Add("Echo", "echo", soapenc.F("msg", "quick"))
	slow := b.Add("Echo", "slow") // sleeps past the 5ms watchdog
	if err := b.Send(); err != nil {
		t.Fatalf("batch send: %v", err)
	}
	if _, err := quick.Wait(); err != nil {
		t.Fatalf("quick entry: %v", err)
	}
	_, err := slow.Wait()
	if err == nil {
		t.Fatal("parked entry did not fault")
	}
	if !errors.Is(fault.ClassifyError(err), fault.Timeout) {
		t.Fatalf("parked entry err = %v, want a timeout fault", err)
	}

	counts := func(cc []fault.CodeCount) map[string]int64 {
		m := make(map[string]int64, len(cc))
		for _, c := range cc {
			m[c.Code] = c.Count
		}
		return m
	}
	got := counts(sys.server.Stats().FaultCodes)
	if got["Server"] != 1 {
		t.Errorf("FaultCodes[Server] = %d, want 1 (the app fault): %v", got["Server"], got)
	}
	if got[FaultCodeTimeout] != 1 {
		t.Errorf("FaultCodes[%s] = %d, want 1 (the watchdog item): %v", FaultCodeTimeout, got[FaultCodeTimeout], got)
	}

	// The admin snapshot advertises the same tallies under fault_codes.
	adm := sys.server.AdminStats()
	am := make(map[string]int64, len(adm.FaultCodes))
	for _, fc := range adm.FaultCodes {
		am[fc.Code] = fc.Count
	}
	if am["Server"] != got["Server"] || am[FaultCodeTimeout] != got[FaultCodeTimeout] {
		t.Errorf("admin fault_codes = %v, want the server tallies %v", am, got)
	}
}

// The counting invariant, on the server: every fault it writes is counted
// once in Faults (a whole message) or ItemFaults (an entry of a packed
// response or plan), and once under its wire code, so the per-code tallies
// less the transport's HTTP 400 rejects equal Faults + ItemFaults, on Stats
// and on AdminStats alike. Each row drives one place a fault is decided.
func TestTallyServer(t *testing.T) {
	packed := func(entries string) string {
		return `<spi:Parallel_Method xmlns:spi="` + NSPack + `" xmlns:m="urn:spi:Echo" spi:service="Echo">` + entries + `</spi:Parallel_Method>`
	}
	envelope := func(body string) []byte {
		return []byte(`<s:Envelope xmlns:s="` + soap.V11.Namespace() + `"><s:Body>` + body + `</s:Body></s:Envelope>`)
	}
	const badInt = `<m:echo><n xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:int">x</n></m:echo>`
	type post struct {
		target string
		doc    []byte
		hdr    []string
	}
	for _, row := range []struct {
		name              string
		mutate            func(*ServerConfig)
		posts             []post
		codes             map[string]int64
		faults, itemFault int64
	}{
		{name: "not a document", posts: []post{{"/services/Echo", []byte("not xml"), nil}},
			codes: map[string]int64{soap.FaultClient: 1}, faults: 1},
		{name: "unknown envelope version", posts: []post{{"/services/Echo", []byte(`<s:Envelope xmlns:s="urn:other"><s:Body/></s:Envelope>`), nil}},
			codes: map[string]int64{soap.FaultVersionMismatch: 1}, faults: 1},
		{name: "header not understood", posts: []post{{"/services/Echo", []byte(`<s:Envelope xmlns:s="` + soap.V11.Namespace() + `">` +
			`<s:Header><x:token xmlns:x="urn:tally" s:mustUnderstand="1"/></s:Header><s:Body><m:echo xmlns:m="urn:spi:Echo"/></s:Body></s:Envelope>`), nil}},
			codes: map[string]int64{soap.FaultMustUnderstand: 1}, faults: 1},
		{name: "application fault", posts: []post{{"/services/Echo", envelope(`<m:fail xmlns:m="urn:spi:Echo"/>`), nil}},
			codes: map[string]int64{soap.FaultServer: 1}, faults: 1},
		{name: "duplicate spi:id", posts: []post{{"/services", envelope(packed(`<m:echo spi:id="1"/><m:echo/>`)), nil}},
			codes: map[string]int64{soap.FaultClient: 1}, faults: 1},
		{name: "per-item faults", posts: []post{{"/services", envelope(packed(`<m:fail/>` + badInt + `<m:echo/><m:nope/>`)), nil}},
			codes: map[string]int64{soap.FaultServer: 1, soap.FaultClient: 2}, itemFault: 3},
		{name: "watchdog", mutate: func(sc *ServerConfig) { sc.OperationTimeout = time.Millisecond },
			posts: []post{{"/services", envelope(packed(`<m:slow/><m:slow/>`)), nil}},
			codes: map[string]int64{FaultCodeTimeout: 2}, itemFault: 2},
		{name: "deadline degrade", posts: []post{{"/services", envelope(packed(`<m:slow/><m:slow/>`)), []string{HeaderDeadline, "10"}}},
			codes: map[string]int64{FaultCodeTimeout: 2}, itemFault: 2},
		// The entry that faults at decoding is answered, and written, before
		// the one whose results cannot be encoded fails the assembly: the
		// message is one whole fault, and the entry written before it was
		// counted as it was written.
		{name: "assembly failure after an item fault", mutate: func(sc *ServerConfig) {
			sc.Coupled = true
			echo, _ := sc.Container.Service("Echo")
			echo.MustRegister("bad", func(*registry.Context, []soapenc.Field) ([]soapenc.Field, error) {
				return []soapenc.Field{soapenc.F("broken", unencodable{})}, nil
			}, "returns a value with no encoding")
		}, posts: []post{{"/services", envelope(packed(badInt + `<m:bad/>`)), nil}},
			codes: map[string]int64{soap.FaultClient: 1, soap.FaultServer: 1}, faults: 1, itemFault: 1},
		// A degraded slot is answered with the abandon fault; its handler's
		// late result, a fault of its own, is dropped and is not counted.
		{name: "late result of a degraded slot", mutate: func(sc *ServerConfig) {
			echo, _ := sc.Container.Service("Echo")
			echo.MustRegister("park", func(ctx *registry.Context, _ []soapenc.Field) ([]soapenc.Field, error) {
				<-ctx.Context().Done()
				return nil, ctx.Context().Err()
			}, "returns the context's error once it ends")
		}, posts: slices.Repeat([]post{{"/services", envelope(packed(`<m:park/><m:echo/>`)), []string{HeaderDeadline, "50"}}}, 3),
			codes: map[string]int64{FaultCodeTimeout: 3}, itemFault: 3},
	} {
		t.Run(row.name, func(t *testing.T) {
			sys := newSystem(t, func(sc *ServerConfig, _ *ClientConfig) {
				if row.mutate != nil {
					row.mutate(sc)
				}
			})
			for _, p := range row.posts {
				resp, err := sys.client.http.Post(p.target, soap.V11.ContentType(), p.doc, p.hdr...)
				if err != nil {
					t.Fatal(err)
				}
				resp.Release()
			}
			// Closing waits for the workers, so a handler a degraded slot left
			// running has returned before the counters are read.
			sys.server.Close()
			checkServerTally(t, sys.server)
			st := sys.server.Stats()
			got := make(map[string]int64)
			for _, c := range st.FaultCodes {
				got[c.Code] = c.Count
			}
			if !maps.Equal(got, row.codes) || st.Faults != row.faults || st.ItemFaults != row.itemFault {
				t.Errorf("FaultCodes %v, Faults %d, ItemFaults %d; want %v, %d, %d",
					got, st.Faults, st.ItemFaults, row.codes, row.faults, row.itemFault)
			}
		})
	}
}

// checkServerTally holds srv's two snapshots to the counting invariant.
func checkServerTally(t *testing.T, srv *Server) {
	t.Helper()
	st, as := srv.Stats(), srv.AdminStats()
	var codes, acodes int64
	for _, c := range st.FaultCodes {
		if c.Code != "HTTP.400" {
			codes += c.Count
		}
	}
	for _, c := range as.FaultCodes {
		if c.Code != "HTTP.400" {
			acodes += c.Count
		}
	}
	if codes != st.Faults+st.ItemFaults {
		t.Errorf("Stats: %d faults by code %v, want Faults %d + ItemFaults %d", codes, st.FaultCodes, st.Faults, st.ItemFaults)
	}
	if acodes != as.Faults+as.ItemFaults {
		t.Errorf("AdminStats: %d faults by code %v, want Faults %d + ItemFaults %d", acodes, as.FaultCodes, as.Faults, as.ItemFaults)
	}
	checkResilience(t, st)
}

// checkResilience holds a server's Resilience to the faults it wrote:
// Timeouts is its Server.Timeout tally, Cancellations its Server.Cancelled.
func checkResilience(t *testing.T, st ServerStats) {
	t.Helper()
	byCode := make(map[string]int64, len(st.FaultCodes))
	for _, c := range st.FaultCodes {
		byCode[c.Code] = c.Count
	}
	if r := st.Resilience; r.Timeouts != byCode[FaultCodeTimeout] || r.Cancellations != byCode[FaultCodeCancelled] {
		t.Errorf("Resilience Timeouts %d, Cancellations %d; want the written %s %d and %s %d",
			r.Timeouts, r.Cancellations, FaultCodeTimeout, byCode[FaultCodeTimeout], FaultCodeCancelled, byCode[FaultCodeCancelled])
	}
}
