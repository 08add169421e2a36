// Package stage implements bounded, event-driven worker pools — the
// "staged independent thread pool" architecture of the paper's §3.3,
// borrowed from SEDA.
//
// The SPI server runs two stages: a protocol stage (HTTP + SOAP processing,
// one event per connection) and an application stage (service operation
// execution). Decoupling them through queues is what lets one SOAP message
// drive many concurrent service executions: the protocol thread parses the
// packed message, submits one task per request to the application stage,
// sleeps, and is woken when the assembler has gathered every response.
//
// The pool is thread-pool-based and event-driven rather than
// thread-per-task because, as the paper puts it, "too many concurrent
// threads will degrade throughput rapidly due to the frequent switch among
// threads" — the pool gives explicit, bounded concurrency instead. Its event
// queue is a buffered channel the workers range over: a submit wakes at most
// one parked worker, so a packed message's M submits wake at most M workers.
package stage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Task is one unit of work executed by a pool worker.
type Task func()

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("stage: pool closed")

// ErrQueueFull is returned by TrySubmit on a full event queue.
var ErrQueueFull = errors.New("stage: queue full")

// Stats is a snapshot of pool counters.
type Stats struct {
	Submitted int64 // tasks accepted
	Completed int64 // tasks finished (including panicked ones)
	Rejected  int64 // TrySubmits refused by a full queue
	Panics    int64 // tasks that panicked
	Workers   int   // configured worker count
	QueueCap  int   // configured queue capacity
	Queued    int   // tasks currently waiting
	Busy      int64 // workers currently running a task
}

// Occupancy is the fraction of workers busy at snapshot time, in [0, 1] —
// the worker-utilization number the per-stage latency reports print next
// to queue depth.
func (s Stats) Occupancy() float64 {
	if s.Workers <= 0 {
		return 0
	}
	occ := float64(s.Busy) / float64(s.Workers)
	if occ > 1 {
		occ = 1
	}
	return occ
}

// Pool is a fixed-size worker pool fed by a bounded event queue.
//
// Closing the pool stops intake immediately but drains tasks already
// accepted: every Submit that returned nil is guaranteed to execute.
type Pool struct {
	workers int
	queue   chan Task

	// closing is closed when Close begins, which wakes every submitter
	// parked on a full queue. A submitter holds intake's read side from its
	// check of closing until its send is done or given up; Close takes the
	// write side before it closes queue, so no send meets a closed channel.
	closing   chan struct{}
	intake    sync.RWMutex
	closeOnce sync.Once

	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	panics    atomic.Int64
	busy      atomic.Int64

	wg sync.WaitGroup

	// OnPanic, if set, observes recovered task panics (for logging).
	OnPanic func(recovered any)
}

// NewPool starts a pool with the given number of workers and queue depth.
// workers must be >= 1. queueDepth is clamped to at least 1.
func NewPool(name string, workers, queueDepth int) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("stage: pool %q needs >= 1 worker, got %d", name, workers)
	}
	if queueDepth < 0 {
		return nil, fmt.Errorf("stage: pool %q queue depth %d < 0", name, queueDepth)
	}
	if queueDepth == 0 {
		queueDepth = 1
	}
	p := &Pool{
		workers: workers,
		queue:   make(chan Task, queueDepth),
		closing: make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p, nil
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for task := range p.queue {
		p.busy.Add(1)
		p.run(task)
		p.busy.Add(-1)
		p.completed.Add(1)
	}
}

func (p *Pool) run(task Task) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			if p.OnPanic != nil {
				p.OnPanic(r)
			}
		}
	}()
	task()
}

// Submit enqueues a task, blocking while the queue is full. It returns
// ErrClosed if the pool is closed (including while blocked waiting for
// space). A nil return guarantees the task will run.
func (p *Pool) Submit(task Task) error { return p.enqueue(context.Background(), task, true) }

// TrySubmit enqueues a task without blocking; it returns ErrQueueFull when
// the queue is at capacity (overload shedding).
func (p *Pool) TrySubmit(task Task) error { return p.enqueue(context.Background(), task, false) }

// SubmitCtx enqueues a task, waiting while the queue is full until ctx is
// done or the pool closes; it returns ctx.Err() or ErrClosed respectively.
// The wait has no bound but ctx: a request's deadline is its admission
// budget. A nil return guarantees the task will run.
func (p *Pool) SubmitCtx(ctx context.Context, task Task) error { return p.enqueue(ctx, task, true) }

// enqueue is the one way into the queue. A full queue is waited on only past
// the first, non-blocking send, and only when wait is set, so a submit that
// finds space allocates nothing and never asks ctx for its Done channel.
// Refusing a full queue counts as Rejected; finding the pool closed, or ctx
// done, does not.
func (p *Pool) enqueue(ctx context.Context, task Task, wait bool) error {
	if task == nil {
		return errors.New("stage: nil task")
	}
	p.intake.RLock()
	defer p.intake.RUnlock()
	select {
	case <-p.closing:
		return ErrClosed
	default:
	}
	select {
	case p.queue <- task:
		p.submitted.Add(1)
		return nil
	default:
	}
	if !wait {
		p.rejected.Add(1)
		return ErrQueueFull
	}
	select {
	case p.queue <- task:
		p.submitted.Add(1)
		return nil
	case <-p.closing:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting tasks, lets queued tasks drain, and waits for all
// workers to exit. It is idempotent and safe to call concurrently.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.closing)
		p.intake.Lock()
		close(p.queue)
		p.intake.Unlock()
	})
	p.wg.Wait()
}

// QueueLen returns the current queue length.
func (p *Pool) QueueLen() int { return len(p.queue) }

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		Rejected:  p.rejected.Load(),
		Panics:    p.panics.Load(),
		Workers:   p.workers,
		QueueCap:  cap(p.queue),
		Queued:    len(p.queue),
		Busy:      p.busy.Load(),
	}
}
