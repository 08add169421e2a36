package stage

import (
	"bytes"
	"context"
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

// parkedInEnqueue counts the goroutines parked in enqueue's select on a full
// queue — what "a submitter is parked" means, read off the goroutine dump
// because a channel does not tell who waits on it.
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
		if bytes.Contains(g, []byte(" [select")) && bytes.Contains(g, []byte("(*Pool).enqueue")) {
			parked++
		}
	}
	return parked
}

// TestEnqueueTable pins the one enqueue behind the three entry points: the
// error each returns and what it does to Submitted and Rejected in every
// state the queue can be in. A full queue given up on counts as Rejected; a
// closed pool never does, whether the caller found it closed or was parked
// when it closed, and neither does a ctx that ends while the caller is parked.
// The SubmitTimeout entries are SubmitCtx under a deadline that far off; the
// SubmitCtx entry's ctx has none. Only the pool or ctx ends a wait, so a
// deadline that passes on a full queue is ctx done, not a shed.
func TestEnqueueTable(t *testing.T) {
	type entry struct {
		name   string
		blocks bool // parks on a full queue for longer than the test takes
		submit func(context.Context, *Pool) error
	}
	submit := entry{"Submit", true, func(_ context.Context, p *Pool) error { return p.Submit(func() {}) }}
	try := entry{"TrySubmit", false, func(_ context.Context, p *Pool) error { return p.TrySubmit(func() {}) }}
	within := func(d time.Duration) func(context.Context, *Pool) error {
		return func(ctx context.Context, p *Pool) error {
			ctx, cancel := context.WithTimeout(ctx, d)
			defer cancel()
			return p.SubmitCtx(ctx, func() {})
		}
	}
	short := entry{"SubmitTimeout-5ms", false, within(5 * time.Millisecond)}
	long := entry{"SubmitTimeout-1m", true, within(time.Minute)}
	patient := entry{"SubmitCtx", true, func(ctx context.Context, p *Pool) error { return p.SubmitCtx(ctx, func() {}) }}

	rows := []struct {
		state               string
		entry               entry
		want                error
		submitted, rejected int64
	}{
		{"space", submit, nil, 1, 0},
		{"space", try, nil, 1, 0},
		{"space", short, nil, 1, 0},
		{"space", patient, nil, 1, 0},
		// Submit (and a patient SubmitCtx) wait out a full queue: they are
		// released once parked and get in.
		{"full", submit, nil, 1, 0},
		{"full", long, nil, 1, 0},
		{"full", patient, nil, 1, 0},
		{"full", try, ErrQueueFull, 0, 1},
		{"full", short, context.DeadlineExceeded, 0, 0},
		{"closed before the call", submit, ErrClosed, 0, 0},
		{"closed before the call", try, ErrClosed, 0, 0},
		{"closed before the call", short, ErrClosed, 0, 0},
		{"closed before the call", patient, ErrClosed, 0, 0},
		{"closed while blocked", submit, ErrClosed, 0, 0},
		{"closed while blocked", long, ErrClosed, 0, 0},
		{"closed while blocked", patient, ErrClosed, 0, 0},
		// TrySubmit cannot be parked; its row is a queue both full and
		// closed, where closed wins and nothing is counted.
		{"closed while blocked", try, ErrClosed, 0, 0},
		// A caller that stops waiting did not give up on the queue: the
		// pool sheds nothing, and the task never runs.
		{"ctx done while blocked", long, context.Canceled, 0, 0},
		{"ctx done while blocked", patient, context.Canceled, 0, 0},
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
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			if r.entry.blocks && r.state != "space" && r.state != "closed before the call" {
				idle := parkedInEnqueue()
				go func() { done <- r.entry.submit(ctx, p) }()
				waitFor(t, func() bool { return parkedInEnqueue() == idle+1 })
				switch r.state {
				case "full":
					release()
				case "closed while blocked":
					closePool()
				default:
					cancel()
				}
			} else {
				if r.state == "closed while blocked" {
					// Close has begun and waits for the held worker.
					closePool()
					<-p.closing
				}
				done <- r.entry.submit(ctx, p)
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
