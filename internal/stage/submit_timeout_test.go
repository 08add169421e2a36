package stage

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitTimeoutAdmitsWhenSpaceFrees parks a SubmitCtx under a deadline
// on a full queue: space that frees before the deadline admits it.
func TestSubmitTimeoutAdmitsWhenSpaceFrees(t *testing.T) {
	p, _ := NewPool("admit2", 1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() { close(started); <-block })
	<-started
	waitFor(t, func() bool { return p.TrySubmit(func() {}) == ErrQueueFull })

	var ran atomic.Bool
	done := make(chan error, 1)
	idle := parkedInEnqueue()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	go func() { done <- p.SubmitCtx(ctx, func() { ran.Store(true) }) }()
	waitFor(t, func() bool { return parkedInEnqueue() == idle+1 })
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("SubmitCtx = %v after space freed", err)
	}
	waitFor(t, func() bool { return ran.Load() })
}

func TestSubmitTimeoutClosedPool(t *testing.T) {
	p, _ := NewPool("admit4", 1, 1)
	p.Close()
	if err := p.SubmitCtx(context.Background(), func() {}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
