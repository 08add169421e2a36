package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// The chaos suite soaks the scatter–gather path while the links misbehave:
// injected latency, failed dials, and connections killed mid-stream. The
// invariants are the protocol's, not the network's — every call resolves
// exactly once (no lost or duplicated spi:id), failures surface only as
// the documented fault codes, the pools stay usable, and once the chaos
// stops a clean batch succeeds. Run it under -race: the point is as much
// the locking as the fault mapping.

// chaosDialer wraps a link dialer with kill-switchable connections: while
// armed, a fraction of new connections dies after a bounded number of
// bytes, mid-request or mid-response.
type chaosDialer struct {
	dial  func() (net.Conn, error)
	armed atomic.Bool
	rng   *rand.Rand
	mu    sync.Mutex
}

func (d *chaosDialer) Dial() (net.Conn, error) {
	c, err := d.dial()
	if err != nil || !d.armed.Load() {
		return c, err
	}
	d.mu.Lock()
	kill := d.rng.Intn(3) == 0
	budget := int64(d.rng.Intn(2000) + 50)
	d.mu.Unlock()
	if !kill {
		return c, nil
	}
	return &dyingConn{Conn: c, budget: budget}, nil
}

// dyingConn closes itself once budget bytes have moved in either
// direction, simulating a backend crash mid-exchange.
type dyingConn struct {
	net.Conn
	budget int64
	dead   atomic.Bool
}

func (c *dyingConn) spend(n int) error {
	if atomic.AddInt64(&c.budget, -int64(n)) <= 0 && !c.dead.Swap(true) {
		c.Conn.Close()
	}
	if c.dead.Load() {
		return errors.New("chaos: connection killed")
	}
	return nil
}

func (c *dyingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err == nil {
		err = c.spend(n)
	}
	return n, err
}

func (c *dyingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err == nil {
		err = c.spend(n)
	}
	return n, err
}

// allowedChaosFault reports whether a failed call failed the documented
// way. Anything else — a decode error, a transport error leaking through,
// an unexpected fault code — is a bug the soak must surface.
func allowedChaosFault(err error) bool {
	var f *soap.Fault
	if !errors.As(err, &f) {
		return false
	}
	switch f.Code {
	case core.FaultCodeBusy, core.FaultCodeTimeout, core.FaultCodeCancelled:
		return true
	}
	return false
}

func TestChaosSoak(t *testing.T) {
	rounds, batches := 12, 6
	if testing.Short() {
		rounds, batches = 4, 3
	}

	f := newFarm(t, 3, func(cfg *Config) {
		cfg.FailureThreshold = 2
		cfg.ReprobeAfter = 25 * time.Millisecond
		cfg.ExchangeTimeout = 2 * time.Second
	})
	// Interpose the chaos dialers after construction so the same backends
	// can be healed later.
	chaos := make([]*chaosDialer, len(f.links))
	for i, link := range f.links {
		cd := &chaosDialer{dial: link.Dial, rng: rand.New(rand.NewSource(int64(100 + i)))}
		chaos[i] = cd
		f.gw.backends[i].client.Dial = cd.Dial
	}

	cli := f.client(t, func(cfg *core.ClientConfig) {
		cfg.Timeout = 5 * time.Second
	})

	var calls, failures int64
	runBatch := func(r, b int, rng *rand.Rand) error {
		batch := cli.NewBatch()
		n := rng.Intn(10) + 2
		want := make([]int64, n)
		var cs []*core.Call
		for i := 0; i < n; i++ {
			want[i] = int64(r*1000 + b*100 + i)
			cs = append(cs, batch.Add("Echo", "echo", soapenc.F("v", want[i])))
		}
		if err := batch.Send(); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		for i, c := range cs {
			atomic.AddInt64(&calls, 1)
			results, err := c.Wait()
			if err != nil {
				if !allowedChaosFault(err) {
					return fmt.Errorf("call %d failed outside the contract: %w", i, err)
				}
				atomic.AddInt64(&failures, 1)
				continue
			}
			// A success must be *this* call's answer: a misrouted or
			// duplicated spi:id would pair the wrong result with the call.
			if len(results) != 1 || !soapenc.Equal(results[0].Value, want[i]) {
				return fmt.Errorf("call %d answered with %v, want %d", i, results, want[i])
			}
		}
		return nil
	}

	for r := 0; r < rounds; r++ {
		// Each round arms a different misbehavior mix.
		switch r % 3 {
		case 0:
			chaos[r%len(chaos)].armed.Store(true)
			f.links[(r+1)%len(f.links)].SetExtraLatency(3 * time.Millisecond)
		case 1:
			f.links[r%len(f.links)].FailDials(int64(rand.Intn(4) + 2))
		case 2:
			for _, cd := range chaos {
				cd.armed.Store(true)
			}
		}

		var wg sync.WaitGroup
		errs := make(chan error, batches)
		for b := 0; b < batches; b++ {
			wg.Add(1)
			go func(r, b int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r*100 + b)))
				if err := runBatch(r, b, rng); err != nil {
					errs <- err
				}
			}(r, b)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// Disarm between rounds.
		for _, cd := range chaos {
			cd.armed.Store(false)
		}
		for _, link := range f.links {
			link.SetExtraLatency(0)
			link.FailDials(0)
		}
	}

	// After the storm: the pools must still be coherent. Give the circuits
	// one re-probe window, then require a fully clean batch.
	time.Sleep(30 * time.Millisecond)
	batch := cli.NewBatch()
	var cs []*core.Call
	for i := 0; i < 12; i++ {
		cs = append(cs, batch.Add("Echo", "echo", soapenc.F("v", int64(i))))
	}
	if err := batch.Send(); err != nil {
		t.Fatalf("clean batch send: %v", err)
	}
	for i, c := range cs {
		results, err := c.Wait()
		if err != nil {
			t.Fatalf("clean call %d: %v", i, err)
		}
		if len(results) != 1 || !soapenc.Equal(results[0].Value, int64(i)) {
			t.Fatalf("clean call %d results = %v", i, results)
		}
	}

	st := f.gw.Stats()
	var inflight int64
	for _, bs := range st.Backends {
		inflight += bs.InFlight
	}
	if inflight != 0 {
		t.Errorf("in-flight gauge leaked: %d", inflight)
	}
	t.Logf("chaos soak: %d calls, %d degraded to faults; stats %+v",
		atomic.LoadInt64(&calls), atomic.LoadInt64(&failures), st)
}

// TestChaosDeadlineDegrade pins the Server.Timeout mapping: a propagated
// deadline shorter than the slowest entry degrades exactly that entry with
// the server's own timeout fault text, and never wedges the collector.
func TestChaosDeadlineDegrade(t *testing.T) {
	f := newFarm(t, 2, nil)
	cli := f.client(t, nil)
	batch := cli.NewBatch()
	fast := batch.Add("Echo", "echo", soapenc.F("v", int64(1)))
	slow := batch.Add("Echo", "nap", soapenc.F("ms", int64(5000)))
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if err := batch.SendCtx(ctx); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := fast.Wait(); err != nil {
		t.Errorf("fast call: %v", err)
	}
	_, err := slow.Wait()
	var fl *soap.Fault
	if !errors.As(err, &fl) {
		t.Fatalf("slow call err = %v, want fault", err)
	}
	if fl.Code != core.FaultCodeTimeout && fl.Code != core.FaultCodeBusy {
		t.Errorf("slow call fault = %+v, want %s", fl, core.FaultCodeTimeout)
	}
}
