package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

const (
	// numCallers is the number of closed-loop callers and of keep-alive
	// connections; it matches the two processors of the reference box.
	numCallers = 2
	// exchangeTimeout fails an exchange that has no reply after 2 s.
	exchangeTimeout = 2 * time.Second
	// phaseWindows is the number of windows each phase is cut into; a
	// metric's reported value is the median of its window values.
	phaseWindows = 5
)

// wire counts the bytes crossing one caller's connections and, while
// capture is on, keeps a copy of them for the traced pass to replay.
type wire struct {
	dials         atomic.Int64
	written, read atomic.Int64

	capture  atomic.Bool
	mu       sync.Mutex
	request  []byte
	response []byte
}

type wireConn struct {
	net.Conn
	w *wire
}

func (c wireConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.w.written.Add(int64(n))
	if c.w.capture.Load() {
		c.w.mu.Lock()
		c.w.request = append(c.w.request, b[:n]...)
		c.w.mu.Unlock()
	}
	return n, err
}

func (c wireConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.w.read.Add(int64(n))
	if c.w.capture.Load() {
		c.w.mu.Lock()
		c.w.response = append(c.w.response, b[:n]...)
		c.w.mu.Unlock()
	}
	return n, err
}

// tally counts calls by outcome. A packed exchange counts once per call
// it carries, so the shares mean the same on every workload.
type tally struct {
	ok        atomic.Int64 // calls whose echo matched what was sent
	transport atomic.Int64 // calls lost to a transport error
	timeouts  atomic.Int64 // calls in an exchange that ran past the timeout
	faults    atomic.Int64 // calls answered by a SOAP fault
	echoes    atomic.Int64 // calls answered by a wrong, missing or cross-wired echo
}

func (t *tally) failed() int64 {
	return t.transport.Load() + t.timeouts.Load() + t.faults.Load() + t.echoes.Load()
}

func (t *tally) attempted() int64 { return t.ok.Load() + t.failed() }

// failExchange books every call of an exchange that failed as a whole.
func (t *tally) failExchange(err error, calls int64) {
	var f *soap.Fault
	var ne net.Error
	switch {
	case errors.As(err, &f):
		t.faults.Add(calls)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded),
		errors.As(err, &ne) && ne.Timeout():
		t.timeouts.Add(calls)
	default:
		t.transport.Add(calls)
	}
}

// caller is one closed-loop client: one keep-alive connection, one
// exchange in flight, its own payload sequence.
type caller struct {
	id     int
	w      workload
	pay    *payloads
	client *core.Client
	wire   *wire
	tally  *tally
	seq    uint64

	sent  []string
	calls []*core.Call
}

func newCaller(id int, w workload, pay *payloads, target string, timeout time.Duration, t *tally) (*caller, error) {
	c := &caller{id: id, w: w, pay: pay, wire: &wire{}, tally: t,
		sent: make([]string, w.Pack), calls: make([]*core.Call, w.Pack)}
	client, err := core.NewClient(core.ClientConfig{
		Dial: func() (net.Conn, error) {
			c.wire.dials.Add(1)
			conn, err := net.Dial("tcp", target)
			if err != nil {
				return nil, err
			}
			return wireConn{Conn: conn, w: c.wire}, nil
		},
		KeepAlive:     true,
		Timeout:       timeout,
		TemplateCache: true,
	})
	if err != nil {
		return nil, err
	}
	c.client = client
	return c, nil
}

// exchange sends one envelope — a single call or one packed batch — and
// compares every reply with what was sent: right count, right order,
// right bytes. It reports whether every call of the exchange was correct.
func (c *caller) exchange() bool {
	n := int64(c.w.Pack)
	for i := range c.sent {
		c.sent[i] = c.pay.payload(c.id, c.seq, c.w.PayloadBytes)
		c.seq++
	}
	if c.w.Pack == 1 {
		res, err := c.client.Call("Echo", "echo", soapenc.F("data", c.sent[0]))
		if err != nil {
			c.tally.failExchange(err, 1)
			return false
		}
		if !echoed(res, c.sent[0]) {
			c.tally.echoes.Add(1)
			return false
		}
		c.tally.ok.Add(1)
		return true
	}
	b := c.client.NewBatch()
	for i, p := range c.sent {
		c.calls[i] = b.Add("Echo", "echo", soapenc.F("data", p))
	}
	if err := b.Send(); err != nil {
		c.tally.failExchange(err, n)
		return false
	}
	good := int64(0)
	for i, call := range c.calls {
		res, err := call.Wait()
		switch {
		case err != nil:
			c.tally.faults.Add(1)
		case !echoed(res, c.sent[i]):
			c.tally.echoes.Add(1)
		default:
			good++
		}
	}
	c.tally.ok.Add(good)
	return good == n
}

// echoed reports whether a reply is exactly the one parameter sent.
func echoed(res []soapenc.Field, sent string) bool {
	if len(res) != 1 || res[0].Name != "data" {
		return false
	}
	got, ok := res[0].Value.(string)
	return ok && got == sent
}

// preflight is the readiness check: one verified exchange per caller,
// whose wire bytes are kept for the traced pass.
func (c *caller) preflight() error {
	c.wire.capture.Store(true)
	ok := c.exchange()
	c.wire.capture.Store(false)
	if !ok {
		return fmt.Errorf("preflight exchange of caller %d failed", c.id)
	}
	return nil
}

// forEachCaller runs fn on every caller at once and waits for all.
func forEachCaller(callers []*caller, fn func(c *caller)) {
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// warmup runs the workload's fixed number of exchanges on every caller
// and returns the bytes they put on and took off the wire: the same seeded
// payloads in the same order every time, so the count repeats exactly for
// a seed.
func warmup(ctx context.Context, callers []*caller) (wireBytes int64) {
	var total atomic.Int64
	forEachCaller(callers, func(c *caller) {
		before := c.wire.written.Load() + c.wire.read.Load()
		for i := 0; i < c.w.Warmup && ctx.Err() == nil; i++ {
			c.exchange()
		}
		total.Add(c.wire.written.Load() + c.wire.read.Load() - before)
	})
	return total.Load()
}

// boundary is the cumulative state at one window boundary of the closed
// phase.
type boundary struct {
	at   time.Time
	ok   int64      // correct calls so far
	proc procSample // children's CPU so far
	self int64      // load generator's own CPU so far, in ticks
}

// runClosed drives every caller back to back for d. A sampler reads the
// shared counters and the processes' CPU at each of the phaseWindows+1
// window boundaries, while the callers run on undisturbed.
func runClosed(ctx context.Context, callers []*caller, t *tally, d time.Duration, sampleCPU func() (procSample, error)) ([]boundary, error) {
	start := time.Now()
	end := start.Add(d)
	var out []boundary
	var err error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := 0; i <= phaseWindows; i++ {
			select {
			case <-time.After(time.Until(start.Add(d * time.Duration(i) / phaseWindows))):
			case <-ctx.Done():
				err = ctx.Err()
				return
			}
			b := boundary{at: time.Now(), ok: t.ok.Load()}
			if b.proc, err = sampleCPU(); err != nil {
				return
			}
			if b.self, err = procCPUTicks("self"); err != nil {
				return
			}
			out = append(out, b)
		}
	}()
	forEachCaller(callers, func(c *caller) {
		for time.Now().Before(end) && ctx.Err() == nil {
			c.exchange()
		}
	})
	<-sampled
	return out, err
}

// openSample is one scheduled exchange of the open-loop phase.
type openSample struct {
	latency time.Duration // completion − intended send time
	lag     time.Duration // actual − intended send time
	slept   bool          // the caller was idle and waiting for the slot
	done    time.Duration // completion, from the phase start
	ok      bool
}

// openResult is what the open-loop phase measured.
type openResult struct {
	samples []openSample // indexed by schedule slot
	d       time.Duration
}

// runOpen issues rate×d exchanges on a fixed schedule: slot k is due at
// start + k/rate whatever happened to the slots before it. The callers
// share the schedule; whichever is free takes the next slot, and a slot
// taken late keeps its intended time, so a stall in the system shows as
// latency on every exchange it delayed, not as fewer exchanges.
func runOpen(ctx context.Context, callers []*caller, rate float64, d time.Duration) (openResult, error) {
	n := int(rate * d.Seconds())
	res := openResult{samples: make([]openSample, n), d: d}
	var next atomic.Int64
	start := time.Now()
	forEachCaller(callers, func(c *caller) {
		for ctx.Err() == nil {
			k := int(next.Add(1) - 1)
			if k >= n {
				return
			}
			intended := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			s := &res.samples[k]
			if wait := time.Until(intended); wait > 0 {
				preciseSleep(wait)
				s.slept = true
			}
			s.lag = time.Since(intended)
			s.ok = c.exchange()
			now := time.Now()
			s.latency = now.Sub(intended)
			s.done = now.Sub(start)
		}
	})
	return res, ctx.Err()
}

// preciseSleep blocks in nanosleep(2). time.Sleep is not used for pacing:
// a Go timer that expires while the runtime waits in epoll is served at
// epoll's millisecond granularity, several slots late at these rates.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
