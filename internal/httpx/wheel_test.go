package httpx

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pendingTimers is the count of timers w has scheduled and not yet fired
// or stopped.
func pendingTimers(w *Wheel) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// TestWheelFires: a scheduled timer fires, roughly on time (never early by
// more than scheduler noise, late by at most a tick plus noise).
func TestWheelFires(t *testing.T) {
	w := NewWheel(2*time.Millisecond, 64)
	start := time.Now()
	ch := make(chan time.Duration, 1)
	w.Schedule(20*time.Millisecond, func() { ch <- time.Since(start) })
	select {
	case late := <-ch:
		if late < 15*time.Millisecond {
			t.Fatalf("fired after %v, want >= ~20ms", late)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	if n := pendingTimers(w); n != 0 {
		t.Fatalf("Pending after fire = %d, want 0", n)
	}
}

// TestWheelStop: a stopped timer never fires and Pending drops to zero.
func TestWheelStop(t *testing.T) {
	w := NewWheel(2*time.Millisecond, 64)
	var fired atomic.Int32
	tm := w.Schedule(10*time.Millisecond, func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop returned false for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if n := pendingTimers(w); n != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", n)
	}
	time.Sleep(40 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("stopped timer fired")
	}
}

// TestWheelStopAfterFire: calling Stop on an already-fired timer is safe
// and must not disturb other timers (the reason timer nodes aren't pooled).
func TestWheelStopAfterFire(t *testing.T) {
	w := NewWheel(time.Millisecond, 64)
	done := make(chan struct{})
	tm := w.Schedule(2*time.Millisecond, func() { close(done) })
	<-done
	var other atomic.Int32
	w.Schedule(30*time.Millisecond, func() { other.Add(1) })
	if tm.Stop() {
		t.Fatal("Stop returned true for a fired timer")
	}
	time.Sleep(60 * time.Millisecond)
	if other.Load() != 1 {
		t.Fatalf("unrelated timer fired %d times, want 1", other.Load())
	}
}

// TestWheelManyTimers: hundreds of timers across several rotations all
// fire exactly once; stopped ones never do.
func TestWheelManyTimers(t *testing.T) {
	w := NewWheel(time.Millisecond, 16) // tiny ring: forces multi-rotation ticks
	const n = 400
	var fired atomic.Int32
	var wg sync.WaitGroup
	wg.Add(n / 2)
	for i := 0; i < n; i++ {
		d := time.Duration(1+i%40) * time.Millisecond
		tm := w.Schedule(d, func() { fired.Add(1); wg.Done() })
		if i%2 == 1 {
			if !tm.Stop() {
				wg.Done() // raced with a fire: rare, but account for it
			}
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d timers fired", fired.Load())
	}
	if p := pendingTimers(w); p != 0 {
		t.Fatalf("Pending after all fired = %d, want 0", p)
	}
}

// TestWheelParksWhenIdle: after all timers resolve the wheel goroutine
// parks; a new Schedule wakes it and still fires.
func TestWheelParksWhenIdle(t *testing.T) {
	w := NewWheel(time.Millisecond, 64)
	ch := make(chan struct{}, 2)
	w.Schedule(2*time.Millisecond, func() { ch <- struct{}{} })
	<-ch
	time.Sleep(20 * time.Millisecond) // let it park
	w.Schedule(2*time.Millisecond, func() { ch <- struct{}{} })
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("timer scheduled on a parked wheel never fired")
	}
}

// TestWheelTimeoutDeadlineExceeded: the wheel-backed context must yield
// exactly context.DeadlineExceeded — the sentinel the SPI watchdog fault
// classification switches on.
func TestWheelTimeoutDeadlineExceeded(t *testing.T) {
	w := NewWheel(2*time.Millisecond, 64)
	ctx, cancel := WheelTimeout(context.Background(), w, 10*time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("wheel context never expired")
	}
	if err := ctx.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatal("errors.Is(Err, DeadlineExceeded) = false")
	}
	if d, ok := ctx.Deadline(); !ok || time.Until(d) > 10*time.Millisecond {
		t.Fatalf("Deadline() = %v, %v", d, ok)
	}
}

// TestWheelTimeoutCancel: the CancelFunc yields context.Canceled and
// releases the wheel timer.
func TestWheelTimeoutCancel(t *testing.T) {
	w := NewWheel(2*time.Millisecond, 64)
	ctx, cancel := WheelTimeout(context.Background(), w, time.Hour)
	cancel()
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Done not closed after cancel")
	}
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	if n := pendingTimers(w); n != 0 {
		t.Fatalf("Pending after cancel = %d, want 0 (timer leaked)", n)
	}
}

// TestWheelTimeoutParentCancel: cancelling the parent propagates the
// parent's error, as with context.WithTimeout.
func TestWheelTimeoutParentCancel(t *testing.T) {
	w := NewWheel(2*time.Millisecond, 64)
	parent, pcancel := context.WithCancel(context.Background())
	ctx, cancel := WheelTimeout(parent, w, time.Hour)
	defer cancel()
	pcancel()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("child never observed parent cancel")
	}
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
}

// TestShutdownStopsDrainAlarm: the satellite fix — a server whose drain
// completes early must leave no alarm pending on the shared wheel.
func TestShutdownStopsDrainAlarm(t *testing.T) {
	before := pendingTimers(DefaultWheel())
	srv := &Server{Handler: func(ctx context.Context, req *Request) *Response {
		return NewResponse(200, []byte("ok"))
	}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	if err := srv.Shutdown(time.Hour); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The hour-long drain alarm must have been stopped the moment the
	// (instant) drain finished.
	deadline := time.Now().Add(time.Second)
	for pendingTimers(DefaultWheel()) > before {
		if time.Now().After(deadline) {
			t.Fatalf("wheel still holds %d pending timers (was %d): drain alarm leaked",
				pendingTimers(DefaultWheel()), before)
		}
		time.Sleep(time.Millisecond)
	}
}
