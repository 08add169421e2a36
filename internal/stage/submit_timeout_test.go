package stage

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitTimeoutShedsWhenFull(t *testing.T) {
	p, _ := NewPool("admit", 1, 1)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	p.Submit(func() { close(started); <-block })
	<-started // the worker holds this task; the queue is truly empty now
	waitFor(t, func() bool { return p.TrySubmit(func() {}) == ErrQueueFull })

	start := time.Now()
	err := p.SubmitCtx(context.Background(), func() {}, 20*time.Millisecond)
	if err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("waited %v, want ~20ms of admission patience", elapsed)
	}
	if p.Stats().Rejected < 1 {
		t.Error("shed admission not counted as rejected")
	}
}

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
	go func() { done <- p.SubmitCtx(context.Background(), func() { ran.Store(true) }, 2*time.Second) }()
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
	if err := p.SubmitCtx(context.Background(), func() {}, 10*time.Millisecond); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
