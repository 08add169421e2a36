package stage

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

// heldPool returns a one-worker pool whose worker is held inside a task and
// whose one-slot queue is full, plus the release that lets the worker go.
func heldPool(t *testing.T) (p *Pool, release func()) {
	t.Helper()
	p, _ = NewPool("held", 1, 1)
	block, started := make(chan struct{}), make(chan struct{})
	if err := p.Submit(func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started // the worker has taken the blocker off the queue
	if err := p.Submit(func() {}); err != nil {
		t.Fatal(err)
	}
	if got := p.QueueLen(); got != 1 {
		t.Fatalf("QueueLen = %d after filling the queue, want 1", got)
	}
	var once sync.Once
	return p, func() { once.Do(func() { close(block) }) }
}

// parkedInEnqueue counts the goroutines waiting on a pool's condition
// variable inside enqueue — what "a submitter is parked" means, read off the
// goroutine dump because sync.Cond does not tell.
func parkedInEnqueue() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	parked := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("sync.(*Cond).Wait")) && bytes.Contains(g, []byte("(*Pool).enqueue")) {
			parked++
		}
	}
	return parked
}

// TestEnqueueTable pins the one enqueue behind the three entry points: the
// error each returns and what it does to Submitted and Rejected in every
// state the queue can be in. A full queue given up on counts as Rejected; a
// closed pool never does, whether the caller found it closed or was parked
// when it closed.
func TestEnqueueTable(t *testing.T) {
	type entry struct {
		name   string
		blocks bool // parks on a full queue for longer than the test takes
		submit func(*Pool) error
	}
	submit := entry{"Submit", true, func(p *Pool) error { return p.Submit(func() {}) }}
	try := entry{"TrySubmit", false, func(p *Pool) error { return p.TrySubmit(func() {}) }}
	short := entry{"SubmitTimeout-5ms", false, func(p *Pool) error { return p.SubmitTimeout(func() {}, 5*time.Millisecond) }}
	long := entry{"SubmitTimeout-1m", true, func(p *Pool) error { return p.SubmitTimeout(func() {}, time.Minute) }}

	rows := []struct {
		state               string
		entry               entry
		want                error
		submitted, rejected int64
	}{
		{"space", submit, nil, 1, 0},
		{"space", try, nil, 1, 0},
		{"space", short, nil, 1, 0},
		// Submit (and a patient SubmitTimeout) wait out a full queue: they
		// are released once parked and get in.
		{"full", submit, nil, 1, 0},
		{"full", long, nil, 1, 0},
		{"full", try, ErrQueueFull, 0, 1},
		{"full", short, ErrQueueFull, 0, 1},
		{"closed before the call", submit, ErrClosed, 0, 0},
		{"closed before the call", try, ErrClosed, 0, 0},
		{"closed before the call", short, ErrClosed, 0, 0},
		{"closed while blocked", submit, ErrClosed, 0, 0},
		{"closed while blocked", long, ErrClosed, 0, 0},
		// TrySubmit cannot be parked; its row is a queue both full and
		// closed, where closed wins and nothing is counted.
		{"closed while blocked", try, ErrClosed, 0, 0},
	}
	for _, r := range rows {
		t.Run(r.entry.name+"/"+r.state, func(t *testing.T) {
			var p *Pool
			release := func() {}
			switch r.state {
			case "space":
				p, _ = NewPool("space", 1, 1)
			case "closed before the call":
				p, _ = NewPool("closed", 1, 1)
				p.Close()
			default:
				p, release = heldPool(t)
			}
			defer p.Close()
			defer release()
			before := p.Stats()

			closed := make(chan struct{})
			closePool := func() {
				go func() { p.Close(); close(closed) }()
			}
			done := make(chan error, 1)
			if r.entry.blocks && (r.state == "full" || r.state == "closed while blocked") {
				idle := parkedInEnqueue()
				go func() { done <- r.entry.submit(p) }()
				waitFor(t, func() bool { return parkedInEnqueue() == idle+1 })
				if r.state == "full" {
					release()
				} else {
					closePool()
				}
			} else {
				if r.state == "closed while blocked" {
					// Close has marked the pool and waits for the held worker.
					closePool()
					waitFor(t, func() bool { p.mu.Lock(); defer p.mu.Unlock(); return p.closed })
				}
				done <- r.entry.submit(p)
			}

			if err := <-done; err != r.want {
				t.Errorf("err = %v, want %v", err, r.want)
			}
			after := p.Stats()
			if got := after.Submitted - before.Submitted; got != r.submitted {
				t.Errorf("Submitted moved by %d, want %d", got, r.submitted)
			}
			if got := after.Rejected - before.Rejected; got != r.rejected {
				t.Errorf("Rejected moved by %d, want %d", got, r.rejected)
			}
			if r.state == "closed while blocked" {
				// Close drains what was accepted before it returns.
				release()
				<-closed
				if st := p.Stats(); st.Completed != st.Submitted || st.Queued != 0 {
					t.Errorf("after Close: %d of %d accepted tasks ran, %d still queued", st.Completed, st.Submitted, st.Queued)
				}
			}
		})
	}
}
