package gateway

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// reservedOn reads the entries reserved on b.
func reservedOn(g *Gateway, b *backend) int64 {
	ms, _ := g.fleet.snapshot(time.Now())
	return ms[b.index].reserved
}

// drainedNow reports whether b's drain has completed.
func drainedNow(g *Gateway, b *backend) bool {
	ms, _ := g.fleet.snapshot(time.Now())
	return ms[b.index].drain == drained
}

// endWindow ends b's ejection window at once, as its timer would.
func endWindow(g *Gateway, b *backend) {
	g.do(b, g.fleet.windowEnded(b.index, time.Now().Add(g.cfg.ReprobeAfter)))
}

// discardSink resolves slots into nothing.
type discardSink struct{}

func (discardSink) Gather(int, []*core.ScatterEntry, *core.GatherReply) {}
func (discardSink) Fail(int, *soap.Fault)                               {}

// TestDrainedBackendGetsNoReservation drains and resumes b0 of a two-backend
// gateway over and over while four goroutines route work through one of the
// three forwards that reserve entries: a request's assignment, a relay, and a
// failover. Whenever the drain has completed by the time the call returns, no
// entry is reserved on b0 over the next 50 yields: the drain check and the
// reservation are one step, so nothing can be placed on b0 between them.
func TestDrainedBackendGetsNoReservation(t *testing.T) {
	doc := packedDoc(soap.V11, []string{`<m:echo xmlns:m="urn:spi:Echo"><a>1</a></m:echo>`})
	paths := []struct {
		name string
		run  func(g *Gateway, sr *core.ScatterRequest)
	}{
		{"assign", func(g *Gateway, sr *core.ScatterRequest) {
			for _, sh := range g.assign(sr.Entries) {
				g.release(sh.b, len(sh.entries))
			}
		}},
		{"relay", func(g *Gateway, _ *core.ScatterRequest) {
			g.relay(context.Background(), httpx.NewRequest("GET", "/services/", nil), soap.V11).Release()
		}},
		{"failover", func(g *Gateway, sr *core.ScatterRequest) {
			// Every dial fails at once, so a shard is tried on its backend,
			// moved to the other, and released there.
			for _, sh := range g.buildSubBatches(sr, g.assign(sr.Entries), discardSink{}) {
				g.sendShard(context.Background(), sh, sr, discardSink{})
			}
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			var bcs []BackendConfig
			for _, name := range []string{"b0", "b1"} {
				bcs = append(bcs, BackendConfig{Name: name,
					Dial: func() (net.Conn, error) { return nil, errors.New("refused") }})
			}
			g, err := New(Config{
				Backends:         bcs,
				FailureThreshold: 1 << 30, // never ejected: only the drain steers routing
				Retry:            &core.RetryPolicy{MaxAttempts: 2, Sleep: func(context.Context, time.Duration) error { return nil }},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			sr, pf := core.ParseScatterRequest(doc, "Echo")
			if pf != nil {
				t.Fatal(pf)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						p.run(g, sr)
					}
				}()
			}
			b0 := g.backends[0]
			completed, landed := 0, 0
			for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
				setDraining(t, g, "b0", true)
				if drainedNow(g, b0) {
					completed++
					for y := 0; y < 50; y++ {
						if reservedOn(g, b0) > 0 {
							landed++
							break
						}
						runtime.Gosched()
					}
				}
				setDraining(t, g, "b0", false)
			}
			close(stop)
			wg.Wait()
			if landed > 0 {
				t.Errorf("after %d of %d completed drains, an entry was reserved on the drained backend", landed, completed)
			}
			if completed == 0 {
				t.Error("no drain had completed when its call returned")
			}
		})
	}
}

// TestDrainedBackendIsNotProbed opens b0's circuit, drains b0 and then ends
// the ejection window. A draining backend is not probed, so the drain's
// released pool stays empty until a resume: no probe's GET pools a
// keep-alive connection on it.
func TestDrainedBackendIsNotProbed(t *testing.T) {
	f := newAdminFarm(t, 1, nil, func(cfg *Config) {
		cfg.FailureThreshold = 1
		cfg.ReprobeAfter = time.Hour // the test ends the window itself
	})
	if _, err := f.client(t, nil).Call("Echo", "echo", soapenc.F("m", "x")); err != nil {
		t.Fatal(err)
	}
	b0 := f.gw.backends[0]
	f.gw.noteFailure(b0) // opens the circuit
	setDraining(t, f.gw, "b0", true)
	if st := f.gw.Stats(); st.Drained != 1 || st.Backends[0].Idle != 0 || !st.Backends[0].Ejected {
		t.Fatalf("after the drain: Drained %d, Idle %d, Ejected %v; want 1, 0, true",
			st.Drained, st.Backends[0].Idle, st.Backends[0].Ejected)
	}
	endWindow(f.gw, b0)
	if st := f.gw.Stats(); !st.Backends[0].Draining || st.Backends[0].Idle != 0 || st.Drained != 1 {
		t.Errorf("after the window: Draining %v, Idle %d, Drained %d; want true, 0, 1",
			st.Backends[0].Draining, st.Backends[0].Idle, st.Drained)
	}
}
