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
// threads" — the pool gives explicit, bounded concurrency instead.
package stage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one unit of work executed by a pool worker.
type Task func()

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("stage: pool closed")

// ErrQueueFull is returned by TrySubmit when the event queue is at capacity.
var ErrQueueFull = errors.New("stage: queue full")

// Stats is a snapshot of pool counters.
type Stats struct {
	Submitted int64 // tasks accepted
	Completed int64 // tasks finished (including panicked ones)
	Rejected  int64 // submits given up on a full queue
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
	name     string
	workers  int
	queueCap int

	mu     sync.Mutex
	notAll *sync.Cond // signals queue state changes (space or items or close)
	queue  []Task
	closed bool

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
		name:     name,
		workers:  workers,
		queueCap: queueDepth,
	}
	p.notAll = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p, nil
}

// MustPool is NewPool that panics on bad configuration, for initialization
// paths where the sizes are constants.
func MustPool(name string, workers, queueDepth int) *Pool {
	p, err := NewPool(name, workers, queueDepth)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.notAll.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.notAll.Broadcast() // space freed: wake blocked submitters
		p.mu.Unlock()

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
func (p *Pool) Submit(task Task) error { return p.enqueue(task, forever) }

// TrySubmit enqueues a task without blocking; it returns ErrQueueFull when
// the queue is at capacity (overload shedding).
func (p *Pool) TrySubmit(task Task) error { return p.enqueue(task, 0) }

// SubmitTimeout enqueues a task, blocking at most timeout while the queue
// is full. It returns ErrQueueFull when space does not free up in time and
// ErrClosed if the pool closes while waiting — the queue-admission guard
// of the server's resilience layer. A timeout <= 0 degenerates to
// TrySubmit.
func (p *Pool) SubmitTimeout(task Task, timeout time.Duration) error {
	if timeout < 0 {
		timeout = 0
	}
	return p.enqueue(task, timeout)
}

// forever is enqueue's wait for Submit: no deadline.
const forever time.Duration = -1

// enqueue is the one way into the queue. While the queue is full it waits
// for space: not at all (wait == 0), until wait has passed, or until the pool
// closes (forever). Giving up on a full queue counts as Rejected; finding the
// pool closed does not.
func (p *Pool) enqueue(task Task, wait time.Duration) error {
	if task == nil {
		return errors.New("stage: nil task")
	}
	var deadline time.Time
	if wait > 0 {
		deadline = time.Now().Add(wait)
	}
	p.mu.Lock()
	for len(p.queue) >= p.queueCap && !p.closed {
		if wait == forever {
			p.notAll.Wait()
		} else if wait == 0 || !waitUntil(p.notAll, deadline) {
			p.mu.Unlock()
			p.rejected.Add(1)
			return ErrQueueFull
		}
	}
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.queue = append(p.queue, task)
	p.notAll.Broadcast()
	p.mu.Unlock()
	p.submitted.Add(1)
	return nil
}

// waitUntil waits on cond (whose lock the caller holds) until a broadcast
// or roughly the deadline; it reports false once the deadline has passed.
// sync.Cond has no native timed wait, so a timer broadcast bounds the
// sleep; spurious wakeups are fine because every caller re-checks its
// predicate in a loop.
func waitUntil(cond *sync.Cond, deadline time.Time) bool {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return false
	}
	timer := time.AfterFunc(remaining, cond.Broadcast)
	cond.Wait()
	timer.Stop()
	return time.Now().Before(deadline)
}

// Close stops accepting tasks, lets queued tasks drain, and waits for all
// workers to exit. It is idempotent and safe to call concurrently.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.notAll.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// QueueLen returns the current queue length.
func (p *Pool) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	queued := len(p.queue)
	p.mu.Unlock()
	return Stats{
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		Rejected:  p.rejected.Load(),
		Panics:    p.panics.Load(),
		Workers:   p.workers,
		QueueCap:  p.queueCap,
		Queued:    queued,
		Busy:      p.busy.Load(),
	}
}
