package stage

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsTasks(t *testing.T) {
	p, _ := NewPool("test", 4, 16)
	defer p.Close()
	var n atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.Submit(func() {
			n.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolConcurrencyBound(t *testing.T) {
	const workers = 3
	p, _ := NewPool("bounded", workers, 64)
	defer p.Close()
	var cur, max atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
		})
	}
	wg.Wait()
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent tasks, pool has %d workers", m, workers)
	}
}

func TestPoolCloseDrains(t *testing.T) {
	p, _ := NewPool("drain", 2, 64)
	var n atomic.Int32
	for i := 0; i < 20; i++ {
		p.Submit(func() {
			time.Sleep(time.Millisecond)
			n.Add(1)
		})
	}
	p.Close()
	if n.Load() != 20 {
		t.Errorf("after Close, %d tasks completed, want 20 (queued tasks must drain)", n.Load())
	}
	if err := p.Submit(func() {}); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestPoolCloseIdempotentAndConcurrent(t *testing.T) {
	p, _ := NewPool("close", 2, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
}

func TestTrySubmitSheds(t *testing.T) {
	p, _ := NewPool("shed", 1, 1)
	defer p.Close()
	block := make(chan struct{})
	// Occupy the worker.
	p.Submit(func() { <-block })
	// Fill the queue.
	waitFor(t, func() bool { return p.Submit(func() {}) == nil })
	// Now the queue is full (one task running, one queued).
	waitFor(t, func() bool { return p.TrySubmit(func() {}) == ErrQueueFull })
	close(block)
	st := p.Stats()
	if st.Rejected < 1 {
		t.Errorf("rejected = %d, want >= 1", st.Rejected)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPanicRecovery(t *testing.T) {
	p, _ := NewPool("panicky", 1, 4)
	defer p.Close()
	var recovered atomic.Value
	p.OnPanic = func(r any) { recovered.Store(r) }
	var ok atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	p.Submit(func() { defer wg.Done(); panic("kaboom") })
	p.Submit(func() { defer wg.Done(); ok.Store(true) })
	wg.Wait()
	if !ok.Load() {
		t.Error("worker died after panic")
	}
	if recovered.Load() != "kaboom" {
		t.Errorf("OnPanic got %v", recovered.Load())
	}
	if p.Stats().Panics != 1 {
		t.Errorf("panics = %d", p.Stats().Panics)
	}
}

func TestStats(t *testing.T) {
	p, _ := NewPool("stats", 2, 8)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		p.Submit(func() { wg.Done() })
	}
	wg.Wait()
	p.Close()
	st := p.Stats()
	if st.Submitted != 10 || st.Completed != 10 {
		t.Errorf("stats = %+v", st)
	}
	if st.Workers != 2 || st.QueueCap != 8 {
		t.Errorf("config stats = %+v", st)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := NewPool("x", 0, 1); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := NewPool("x", 1, -1); err == nil {
		t.Error("negative queue accepted")
	}
	if p, _ := NewPool("x", 1, 0); p.Submit(nil) == nil {
		t.Error("nil task accepted")
	}
}

func TestSubmitBlockedDuringCloseReturnsErr(t *testing.T) {
	p, _ := NewPool("race", 1, 0)
	block, started := make(chan struct{}), make(chan struct{})
	p.Submit(func() { close(started); <-block })
	<-started

	idle := parkedInEnqueue()
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			errs <- p.Submit(func() {})
		}()
	}
	// One of the eight takes the queue's one slot; the other seven park.
	waitFor(t, func() bool { return parkedInEnqueue() == idle+7 })
	close(block)
	p.Close()
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil && err != ErrClosed {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if st := p.Stats(); st.Completed != st.Submitted {
		t.Errorf("after Close: %d of %d accepted tasks ran", st.Completed, st.Submitted)
	}
}

// TestCloseWakesEveryParkedSubmitter holds the worker so the queue stays
// full, parks submitters of both blocking kinds, and closes: every one must
// wake with ErrClosed — none is left parked on a wake-up Close never sent —
// and Close must still run every task it had accepted.
func TestCloseWakesEveryParkedSubmitter(t *testing.T) {
	p, release := heldPool(t)
	const each = 4
	idle := parkedInEnqueue()
	errs := make(chan error, 2*each)
	for i := 0; i < each; i++ {
		go func() { errs <- p.Submit(func() {}) }()
		go func() { errs <- p.SubmitCtx(context.Background(), func() {}) }()
	}
	waitFor(t, func() bool { return parkedInEnqueue() == idle+2*each })
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	for i := 0; i < 2*each; i++ {
		if err := <-errs; err != ErrClosed {
			t.Errorf("parked submitter got %v, want ErrClosed", err)
		}
	}
	release()
	<-closed
	if st := p.Stats(); st.Submitted != 2 || st.Completed != st.Submitted || st.Rejected != 0 {
		t.Errorf("after Close: submitted %d, completed %d, rejected %d; want 2, 2, 0",
			st.Submitted, st.Completed, st.Rejected)
	}
}
