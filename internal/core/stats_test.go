package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpx"
)

// echoRequest builds a POST of one Echo.echo call, or of a Parallel_Method
// of several.
func echoRequest(entries int) *httpx.Request {
	var doc strings.Builder
	doc.WriteString(testEnv11 + `<SOAP-ENV:Body>`)
	target := "/services/Echo"
	if entries == 1 {
		doc.WriteString(`<m:echo xmlns:m="urn:spi:Echo"><data>0123456789</data></m:echo>`)
	} else {
		target = "/services/"
		doc.WriteString(`<spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">`)
		for i := 0; i < entries; i++ {
			fmt.Fprintf(&doc, `<m:echo xmlns:m="urn:spi:Echo" spi:id="%d" spi:service="Echo"><data>0123456789</data></m:echo>`, i)
		}
		doc.WriteString(`</spi:Parallel_Method>`)
	}
	doc.WriteString(`</SOAP-ENV:Body></SOAP-ENV:Envelope>`)
	req := httpx.NewRequest("POST", target, []byte(doc.String()))
	req.Header.Set("Content-Type", "text/xml")
	return req
}

// liveHeap is the heap still reachable after two collections (the second
// empties the sync.Pool victim caches the first one filled).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// The server's latency telemetry is constant-size: ten times the traffic
// leaves the same live heap, and the counts it reports are still exact.
func TestStatsMemoryDoesNotGrowWithTraffic(t *testing.T) {
	srv, err := NewServer(ServerConfig{Container: newEchoContainer(t), AppWorkers: 8, AppQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	single, packed := echoRequest(1), echoRequest(16)
	drive := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, req := range []*httpx.Request{single, packed} {
				if resp := srv.HandleHTTP(context.Background(), req); resp.StatusCode != 200 {
					t.Fatalf("status %d: %s", resp.StatusCode, resp.Body)
				}
			}
		}
	}
	const rounds = 300
	drive(rounds)
	before := liveHeap()
	drive(9 * rounds)
	after := liveHeap()
	// Retained samples would be 23 per round × 8 B × 2700 rounds ≈ 500 KB.
	if grown := int64(after) - int64(before); grown > 64<<10 {
		t.Errorf("live heap grew %d bytes between %d and %d rounds (%d → %d)", grown, rounds, 10*rounds, before, after)
	}

	st := srv.Stats()
	echo := st.Operations["Echo.echo"]
	if echo.Count != 10*rounds*17 || st.ParsePhase.Count != 10*rounds*2 ||
		st.DispatchPhase.Count != 10*rounds*2 || st.EncodePhase.Count != 10*rounds*2 {
		t.Errorf("counts: Echo.echo %d, parse %d, dispatch %d, encode %d; want %d and %d each",
			echo.Count, st.ParsePhase.Count, st.DispatchPhase.Count, st.EncodePhase.Count, 10*rounds*17, 10*rounds*2)
	}
	n := time.Duration(echo.Count)
	if echo.Total < n*echo.Min || echo.Total > n*echo.Max || echo.Mean != echo.Total/n {
		t.Errorf("Echo.echo Total %v inconsistent with Count %d, Min %v, Max %v, Mean %v",
			echo.Total, echo.Count, echo.Min, echo.Max, echo.Mean)
	}
}

// recordOp on a known operation allocates nothing, and 32 workers
// recording into 4 operations while Stats is polled lose nothing (run
// under -race: the hit path shares no lock with Stats).
func TestRecordOpConcurrentWithStats(t *testing.T) {
	srv, err := NewServer(ServerConfig{Container: newEchoContainer(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	names := [][2]string{{"Echo", "echo"}, {"Echo", "fail"}, {"Echo", "slow"}, {"WeatherService", "GetWeather"}}
	const workers, perWorker = 32, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		op, fault := srv.cfg.Container.Lookup(names[w%4][0], names[w%4][1])
		if fault != nil {
			t.Fatal(fault)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				srv.recordOp(op, time.Duration(i)*time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
			srv.Stats()
		}
	}
	ops := srv.Stats().Operations
	for _, name := range names {
		if got := ops[name[0]+"."+name[1]].Count; got != workers/4*perWorker {
			t.Errorf("%s.%s Count = %d, want %d", name[0], name[1], got, workers/4*perWorker)
		}
	}

	op, _ := srv.cfg.Container.Lookup("Echo", "echo")
	if n := testing.AllocsPerRun(1000, func() { srv.recordOp(op, time.Millisecond) }); n != 0 {
		t.Errorf("recordOp allocates %v times per execution", n)
	}
}
