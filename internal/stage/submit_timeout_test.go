package stage

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitTimeoutShedsWhenFull(t *testing.T) {
	p := MustPool("admit", 1, 1)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	p.Submit(func() { close(started); <-block })
	<-started // the worker holds this task; the queue is truly empty now
	waitFor(t, func() bool { return p.TrySubmit(func() {}) == ErrQueueFull })

	start := time.Now()
	err := p.SubmitTimeout(func() {}, 20*time.Millisecond)
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
	p := MustPool("admit2", 1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() { close(started); <-block })
	<-started
	waitFor(t, func() bool { return p.TrySubmit(func() {}) == ErrQueueFull })

	var ran atomic.Bool
	done := make(chan error, 1)
	go func() { done <- p.SubmitTimeout(func() { ran.Store(true) }, 2*time.Second) }()
	time.Sleep(10 * time.Millisecond) // let it block on the full queue
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("SubmitTimeout = %v after space freed", err)
	}
	waitFor(t, func() bool { return ran.Load() })
}

func TestSubmitTimeoutZeroDegeneratesToTrySubmit(t *testing.T) {
	p := MustPool("admit3", 1, 1)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	p.Submit(func() { close(started); <-block })
	<-started // the worker holds this task; the queue is truly empty now
	waitFor(t, func() bool { return p.TrySubmit(func() {}) == ErrQueueFull })
	start := time.Now()
	if err := p.SubmitTimeout(func() {}, 0); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("zero timeout should not block")
	}
}

func TestSubmitTimeoutClosedPool(t *testing.T) {
	p := MustPool("admit4", 1, 1)
	p.Close()
	if err := p.SubmitTimeout(func() {}, 10*time.Millisecond); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
