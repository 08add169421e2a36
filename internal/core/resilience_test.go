package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// newResilienceSystem wires a client/server pair whose container has, next
// to the usual echo, a "park" operation that blocks until its handler
// context is cancelled (or a long fallback sleep) and a "gate" operation
// that blocks until the returned release function is called.
func newResilienceSystem(t *testing.T, mutate func(*ServerConfig, *ClientConfig)) (*system, func()) {
	t.Helper()
	release := make(chan struct{})
	var releaseOnce atomic.Bool
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	c := newEchoContainer(t)
	svc, _ := c.Service("Echo")
	svc.MustRegister("park", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		select {
		case <-ctx.Context().Done():
			return nil, ctx.Context().Err()
		case <-time.After(10 * time.Second):
			return params, nil
		}
	}, "blocks until cancelled")
	svc.MustRegister("gate", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		select {
		case <-release:
		case <-ctx.Context().Done():
		case <-time.After(10 * time.Second):
		}
		return params, nil
	}, "blocks until released")
	scfg := ServerConfig{Container: c, AppWorkers: 8, AppQueue: 64}
	ccfg := ClientConfig{Dial: link.Dial, Timeout: 5 * time.Second}
	if mutate != nil {
		mutate(&scfg, &ccfg)
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	cli, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	releaseFn := func() {
		if releaseOnce.CompareAndSwap(false, true) {
			close(release)
		}
	}
	t.Cleanup(func() {
		releaseFn()
		cli.Close()
		srv.Close()
		link.Close()
	})
	return &system{client: cli, server: srv, link: link}, releaseFn
}

// instantSleep makes retry backoffs record themselves instead of sleeping,
// so retry tests run at full speed under a fake clock.
func instantSleep(slept *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
}

// fillStage occupies a one-worker, one-slot application stage with two
// gated calls. They carry a deadline, so the second waits for the slot when
// it arrives before the worker has taken the first off the queue.
func fillStage(t *testing.T, sys *system) (first, second *Call) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	first = sys.client.GoCtx(ctx, "Echo", "gate")  // occupies the worker
	second = sys.client.GoCtx(ctx, "Echo", "gate") // occupies the queue slot
	deadline := time.Now().Add(2 * time.Second)
	for sys.server.Stats().AppStage.Submitted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("gated calls never reached the application stage")
		}
		time.Sleep(time.Millisecond)
	}
	return first, second
}

func TestBackoffSchedule(t *testing.T) {
	// Deterministic (jitterless) exponential growth with a cap.
	p := &RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		60 * time.Millisecond, 60 * time.Millisecond}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// With the Rand seam pinned, jitter is exact: u=1 stretches by
	// (1+Jitter), u=0 shrinks by (1-Jitter).
	for _, tc := range []struct {
		u    float64
		want time.Duration
	}{
		{1, 120 * time.Millisecond},
		{0, 80 * time.Millisecond},
		{0.5, 100 * time.Millisecond},
	} {
		p := &RetryPolicy{BaseDelay: 100 * time.Millisecond, Jitter: 0.2, Rand: func() float64 { return tc.u }}
		if got := p.backoff(1); got != tc.want {
			t.Errorf("u=%v: backoff(1) = %v, want %v", tc.u, got, tc.want)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	dialErr := fmt.Errorf("wrapped: %w", &netsimDialError{})
	_ = dialErr
	for _, tc := range []struct {
		name       string
		err        error
		idempotent bool
		want       bool
	}{
		{"nil", nil, true, false},
		{"ctx cancelled", context.Canceled, true, false},
		{"ctx deadline", context.DeadlineExceeded, true, false},
		{"busy fault", &soap.Fault{Code: FaultCodeBusy}, false, true},
		{"timeout fault not idempotent", &soap.Fault{Code: FaultCodeTimeout}, false, false},
		{"app fault", soap.ServerFault("boom"), true, false},
		{"transport not idempotent", errors.New("connection reset"), false, false},
		{"transport idempotent", errors.New("connection reset"), true, true},
	} {
		if got := retryable(tc.err, tc.idempotent); got != tc.want {
			t.Errorf("%s: retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// netsimDialError keeps the classification test self-contained (a real
// DialError comes from httpx; see TestRetryConnectRefused for that path).
type netsimDialError struct{}

func (*netsimDialError) Error() string { return "dial refused" }

func TestRetryConnectRefusedThenSucceeds(t *testing.T) {
	// The link refuses the first two dials; the policy's third attempt
	// lands. The Sleep seam records the backoff schedule instead of
	// waiting it out.
	var slept []time.Duration
	sys, _ := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		cc.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond,
			Multiplier: 2, Sleep: instantSleep(&slept)}
	})
	sys.link.FailDials(2)
	results, err := sys.client.Call("Echo", "echo", soapenc.F("m", "back"))
	if err != nil {
		t.Fatalf("call after retries: %v", err)
	}
	if len(results) != 1 || !soapenc.Equal(results[0].Value, "back") {
		t.Errorf("results = %v", results)
	}
	if got := sys.client.Stats().Resilience.Retries; got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
	if want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}; len(slept) != 2 ||
		slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("backoffs = %v, want %v", slept, want)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	var slept []time.Duration
	sys, _ := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		cc.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: instantSleep(&slept)}
	})
	sys.link.FailDials(100)
	_, err := sys.client.Call("Echo", "echo", soapenc.F("m", "x"))
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if got := sys.client.Stats().Resilience.Retries; got != 2 {
		t.Errorf("Retries = %d, want 2 (3 attempts)", got)
	}
}

// TestRetryBackoffCutShort ends a call's retry backoff early, as its
// deadline or its caller does. The call's error is that ending, and it still
// wraps the failed attempt's error.
func TestRetryBackoffCutShort(t *testing.T) {
	for _, tc := range []struct {
		name string
		want error
	}{
		{"deadline", context.DeadlineExceeded},
		{"cancel", context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var slept []time.Duration
			sys, _ := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
				cc.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond,
					Sleep: func(ctx context.Context, d time.Duration) error {
						slept = append(slept, d)
						if tc.want == context.Canceled {
							cancel()
							return ctx.Err()
						}
						return context.DeadlineExceeded // the seam's stand-in for an expiry
					}}
			})
			sys.link.FailDials(1)
			_, err := sys.client.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "x"))
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want one that is %v", err, tc.want)
			}
			var dialErr *httpx.DialError
			if !errors.As(err, &dialErr) {
				t.Errorf("err = %v, want one that wraps the attempt's dial error", err)
			}
			if len(slept) != 1 {
				t.Errorf("backoffs = %v, want one", slept)
			}
		})
	}
}

func TestRetryTransportGatedOnIdempotency(t *testing.T) {
	// A response-side transport failure only retries for operations the
	// application marked idempotent — exactly the paper's application-aware
	// stance: the interface can only be this aggressive when the
	// application says it is safe.
	var slept []time.Duration
	sys, _ := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		cc.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: instantSleep(&slept)}
		cc.Timeout = 80 * time.Millisecond // bound each attempt's exchange
	})
	// park never returns, so each attempt dies of the per-exchange timeout
	// — a post-send transport error, not a connect failure.
	_, err := sys.client.Call("Echo", "park")
	if err == nil {
		t.Fatal("want transport error")
	}
	if got := sys.client.Stats().Resilience.Retries; got != 0 {
		t.Errorf("non-idempotent op retried %d times", got)
	}

	sys.client.MarkIdempotent("Echo", "park")
	_, err = sys.client.Call("Echo", "park")
	if err == nil {
		t.Fatal("want transport error")
	}
	if got := sys.client.Stats().Resilience.Retries; got != 2 {
		t.Errorf("idempotent op Retries = %d, want 2", got)
	}
}

func TestPackedDeadlineDegradesPerItem(t *testing.T) {
	// The acceptance scenario: a packed batch whose deadline expires
	// mid-flight returns per-item Server.Timeout faults for the entries
	// still running, while finished entries carry their real results.
	sys, _ := newResilienceSystem(t, nil)
	b := sys.client.NewBatch()
	fast := b.Add("Echo", "echo", soapenc.F("m", "quick"))
	stuck := b.Add("Echo", "park")
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := b.SendCtx(ctx); err != nil {
		t.Fatalf("SendCtx: %v (want a degraded packed response, not a transport error)", err)
	}
	if results, err := fast.Wait(); err != nil {
		t.Errorf("fast entry: %v", err)
	} else if len(results) != 1 || !soapenc.Equal(results[0].Value, "quick") {
		t.Errorf("fast results = %v", results)
	}
	_, err := stuck.Wait()
	if !IsTimeoutFault(err) {
		t.Fatalf("stuck entry err = %v, want Server.Timeout fault", err)
	}
	if got := sys.server.Stats().Resilience.Timeouts; got < 1 {
		t.Errorf("server Timeouts = %d, want >= 1", got)
	}
	if got := sys.client.Stats().Resilience.Timeouts; got < 1 {
		t.Errorf("client Timeouts = %d, want >= 1", got)
	}
}

func TestCancelMidBatch(t *testing.T) {
	// Cancelling the context mid-exchange aborts the in-flight connection
	// and resolves every future with the context's error; the server-side
	// handler observes the cancellation through its HandlerContext.
	sys, _ := newResilienceSystem(t, nil)
	b := sys.client.NewBatch()
	a := b.Add("Echo", "echo", soapenc.F("m", "x"))
	p := b.Add("Echo", "park")
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	err := b.SendCtx(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("SendCtx err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancel took %v to unblock the exchange", elapsed)
	}
	if _, err := a.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("future a err = %v", err)
	}
	if _, err := p.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("future p err = %v", err)
	}
	if got := sys.client.Stats().Resilience.Cancellations; got < 1 {
		t.Errorf("client Cancellations = %d, want >= 1", got)
	}
}

func TestSingleCallDeadlineFault(t *testing.T) {
	// A single (unpacked) call against a stuck operation degrades to a
	// whole-message Server.Timeout fault, shipped inside the grace window
	// so the client sees the fault rather than its own deadline.
	sys, _ := newResilienceSystem(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	_, err := sys.client.CallCtx(ctx, "Echo", "park")
	if !IsTimeoutFault(err) {
		t.Fatalf("err = %v, want Server.Timeout fault", err)
	}
}

func TestQueueAdmissionShedding(t *testing.T) {
	// One worker, one queue slot: the third concurrent gated call, which
	// carries no deadline, cannot be admitted and is shed with a retryable
	// Server.Busy fault.
	sys, release := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.AppWorkers = 1
		sc.AppQueue = 1
	})
	first, second := fillStage(t, sys)
	_, err := sys.client.Call("Echo", "gate")
	if !IsBusyFault(err) {
		t.Fatalf("err = %v, want Server.Busy fault", err)
	}
	if got := sys.server.Stats().Resilience.Shed; got < 1 {
		t.Errorf("Shed = %d, want >= 1", got)
	}
	release()
	if _, err := first.Wait(); err != nil {
		t.Errorf("first gated call: %v", err)
	}
	if _, err := second.Wait(); err != nil {
		t.Errorf("second gated call: %v", err)
	}
}

func TestAdmissionShedsAtOnceWithoutDeadline(t *testing.T) {
	// One worker, one queue slot, both held by gated calls: a request with
	// no deadline has nothing to wait until, so a full queue sheds it at
	// once with the retryable Server.Busy fault — every entry of a packed
	// one — and its operation never runs.
	for _, packed := range []bool{false, true} {
		name := "single"
		if packed {
			name = "packed"
		}
		t.Run(name, func(t *testing.T) {
			sys, release := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
				sc.AppWorkers = 1
				sc.AppQueue = 1
			})
			first, second := fillStage(t, sys)
			start := time.Now()
			var errs []error
			if packed {
				b := sys.client.NewBatch()
				calls := []*Call{b.Add("Echo", "echo", soapenc.F("m", "a")), b.Add("Echo", "echo", soapenc.F("m", "b"))}
				if err := b.Send(); err != nil {
					t.Fatalf("Send: %v, want per-entry Server.Busy faults", err)
				}
				for _, c := range calls {
					_, err := c.Wait()
					errs = append(errs, err)
				}
			} else {
				_, err := sys.client.Call("Echo", "echo", soapenc.F("m", "a"))
				errs = append(errs, err)
			}
			// Nothing bounds a wait here but the test: a shed that waited
			// would wait until the gated calls are released.
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("shed after %v, want at once", elapsed)
			}
			for _, err := range errs {
				if !IsBusyFault(err) {
					t.Errorf("err = %v, want Server.Busy fault", err)
				}
			}
			release()
			for _, c := range []*Call{first, second} {
				if _, err := c.Wait(); err != nil {
					t.Errorf("gated call: %v", err)
				}
			}
			st := sys.server.Stats()
			if want := int64(len(errs)); st.Requests != 2 || st.AppStage.Rejected != want || st.Resilience.Shed != want {
				t.Errorf("Requests %d, Rejected %d, Shed %d; want 2, %d, %d",
					st.Requests, st.AppStage.Rejected, st.Resilience.Shed, want, want)
			}
		})
	}
}

func TestDeadlineWhileQueuedNeverRuns(t *testing.T) {
	// One worker, one queue slot: with both held by gated calls, a call
	// under a 400 ms deadline waits for queue space
	// only until the server's share of that deadline ends. It is answered
	// with the server's Server.Timeout fault, before the client's own
	// deadline, and its operation never runs — not even once space frees.
	for _, packed := range []bool{false, true} {
		name := "single"
		if packed {
			name = "packed"
		}
		t.Run(name, func(t *testing.T) {
			sys, release := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
				sc.AppWorkers = 1
				sc.AppQueue = 1
			})
			first, second := fillStage(t, sys)
			ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
			defer cancel()
			var errs []error
			if packed {
				b := sys.client.NewBatch()
				calls := []*Call{b.Add("Echo", "echo", soapenc.F("m", "a")), b.Add("Echo", "echo", soapenc.F("m", "b"))}
				if err := b.SendCtx(ctx); err != nil {
					t.Fatalf("SendCtx: %v, want per-entry Server.Timeout faults", err)
				}
				for _, c := range calls {
					_, err := c.Wait()
					errs = append(errs, err)
				}
			} else {
				_, err := sys.client.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "a"))
				errs = append(errs, err)
			}
			for _, err := range errs {
				if !IsTimeoutFault(err) {
					t.Errorf("err = %v, want the server's Server.Timeout fault", err)
				}
			}
			release()
			for _, c := range []*Call{first, second} {
				if _, err := c.Wait(); err != nil {
					t.Errorf("gated call: %v", err)
				}
			}
			st := sys.server.Stats()
			if st.Requests != 2 || st.AppStage.Submitted != 2 || st.AppStage.Rejected != 0 {
				t.Errorf("Requests %d, Submitted %d, Rejected %d; want 2, 2, 0 (the gated calls only)",
					st.Requests, st.AppStage.Submitted, st.AppStage.Rejected)
			}
			if got := st.Resilience.Timeouts; got < 1 {
				t.Errorf("server Timeouts = %d, want >= 1", got)
			}
		})
	}
}

func TestBusyFaultRetriesAndSucceeds(t *testing.T) {
	// Server.Busy is always retryable (the operation never started); with
	// a retry policy the shed call lands once capacity frees up.
	var slept []time.Duration
	sys, release := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.AppWorkers = 1
		sc.AppQueue = 1
		cc.Retry = &RetryPolicy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond,
			Sleep: func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				time.Sleep(20 * time.Millisecond) // real wait: give release() room
				return ctx.Err()
			}}
	})
	fillStage(t, sys)
	time.AfterFunc(30*time.Millisecond, release)
	results, err := sys.client.Call("Echo", "echo", soapenc.F("m", "through"))
	if err != nil {
		t.Fatalf("call after busy retries: %v", err)
	}
	if !soapenc.Equal(results[0].Value, "through") {
		t.Errorf("results = %v", results)
	}
	if sys.client.Stats().Resilience.Retries < 1 {
		t.Error("expected at least one busy retry")
	}
}

func TestOperationTimeoutWatchdog(t *testing.T) {
	// ServerConfig.OperationTimeout bounds a single runaway operation
	// independent of any client deadline.
	sys, _ := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.OperationTimeout = 50 * time.Millisecond
	})
	start := time.Now()
	_, err := sys.client.Call("Echo", "park")
	if !IsTimeoutFault(err) {
		t.Fatalf("err = %v, want Server.Timeout fault", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("watchdog took %v", elapsed)
	}
	if got := sys.server.Stats().Resilience.Timeouts; got < 1 {
		t.Errorf("server Timeouts = %d, want >= 1", got)
	}
}

func TestHandlerErrorUnderOperationTimeout(t *testing.T) {
	// A genuine application error from a handler that finished well inside
	// its OperationTimeout must surface as a plain Server fault — not be
	// reclassified as Server.Cancelled just because the watchdog's own
	// cancel() fired while the outcome was being folded.
	sys, _ := newResilienceSystem(t, func(sc *ServerConfig, cc *ClientConfig) {
		sc.OperationTimeout = 5 * time.Second
	})
	svc, _ := sys.server.cfg.Container.Service("Echo")
	svc.MustRegister("boom", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return nil, errors.New("real application error")
	}, "fails")
	_, err := sys.client.Call("Echo", "boom")
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault, got %v", err)
	}
	if f.Code != soap.FaultServer {
		t.Errorf("handler error misreported: code=%q string=%q", f.Code, f.String)
	}
	if got := sys.server.Stats().Resilience.Cancellations; got != 0 {
		t.Errorf("Cancellations = %d, want 0 (no caller cancelled anything)", got)
	}
}

func TestDeadlineHeaderPropagates(t *testing.T) {
	// The wire carries the remaining budget in SPI-Deadline; the handler's
	// context on the server observes a deadline derived from it.
	var sawDeadline atomic.Bool
	sys, _ := newResilienceSystem(t, nil)
	svc, _ := sys.server.cfg.Container.Service("Echo")
	svc.MustRegister("checkDeadline", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		if _, ok := ctx.Context().Deadline(); ok {
			sawDeadline.Store(true)
		}
		return params, nil
	}, "asserts a deadline is present")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := sys.client.CallCtx(ctx, "Echo", "checkDeadline"); err != nil {
		t.Fatal(err)
	}
	if !sawDeadline.Load() {
		t.Error("handler context carried no deadline despite client budget")
	}
}

// TestShortenBudget pins the grace rule server and gateway share: a
// propagated budget loses a fifth of itself, never more than 100 ms.
func TestShortenBudget(t *testing.T) {
	ms := time.Millisecond
	for budget, want := range map[time.Duration]time.Duration{
		ms: 800 * time.Microsecond, 80 * ms: 64 * ms, 500 * ms: 400 * ms, 600 * ms: 500 * ms, 2 * time.Second: 1900 * ms,
	} {
		if got := ShortenBudget(budget); got != want {
			t.Errorf("ShortenBudget(%v) = %v, want %v", budget, got, want)
		}
	}
}

func TestPlanDeadlineDegradesPerStep(t *testing.T) {
	// Execution plans degrade like packs: a step stuck past the deadline
	// becomes a per-item Server.Timeout fault; independent finished steps
	// keep their results.
	sys, _ := newResilienceSystem(t, nil)
	plan := sys.client.NewPlan()
	fast := plan.Add("Echo", "echo", soapenc.F("m", "done"))
	stuck := plan.Add("Echo", "park")
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := plan.SendCtx(ctx); err != nil {
		t.Fatalf("SendCtx: %v", err)
	}
	if results, err := fast.Wait(); err != nil {
		t.Errorf("fast step: %v", err)
	} else if !soapenc.Equal(results[0].Value, "done") {
		t.Errorf("fast results = %v", results)
	}
	if _, err := stuck.Wait(); !IsTimeoutFault(err) {
		t.Errorf("stuck step err = %v, want Server.Timeout fault", err)
	}
	// A plan's response is routed by the function a batch's is, so the step
	// that timed out counts where a timed-out batch entry does.
	if got := sys.client.Stats().Resilience.Timeouts; got != 1 {
		t.Errorf("client Timeouts = %d, want 1", got)
	}
}
