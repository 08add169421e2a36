package httpx

import (
	"context"
	"sync"
	"time"
)

// Wheel is a coarse-grained hashed timing wheel: timers land in one of
// nslots buckets hashed by expiry tick and a single goroutine advances the
// wheel once per granularity, firing every timer whose tick has passed.
// Scheduling and cancelling are O(1) under one mutex, and — unlike
// time.AfterFunc — a cancelled timer leaves nothing behind in the runtime
// timer heap. That is the trade the transport tier wants: per-request
// read/write/watchdog deadlines are scheduled and cancelled millions of
// times but almost never fire, so they should cost two list operations,
// not two runtime heap operations, and their expiry may be late by up to
// one granularity without anyone noticing.
//
// The wheel goroutine parks when no timers are pending (the advance loop
// blocks on a wake channel instead of ticking), so an idle wheel costs
// nothing. Ticks are derived from wall-clock elapsed time rather than
// counted, so parking and ticker jitter never skew expiry.
type Wheel struct {
	gran  time.Duration
	epoch time.Time

	mu      sync.Mutex
	slots   []wheelList // ring of per-tick timer lists, indexed by tick % len
	cur     uint64      // last tick fully processed
	pending int
	started bool
	wake    chan struct{} // buffered(1): nudges a parked wheel goroutine
}

// wheelList is a doubly-linked list head; links live in the timers so
// Stop unlinks in O(1).
type wheelList struct {
	head, tail *WheelTimer
}

// WheelTimer is one scheduled callback. Stop cancels it if it has not
// fired yet. Nodes are deliberately not pooled: a deferred Stop may run
// after the timer fired, and recycling would let that late Stop unlink a
// stranger's timer. One 64-byte allocation per Schedule is the price of
// making Stop always safe; it is still far cheaper than a runtime
// timer-heap insert/delete pair.
type WheelTimer struct {
	wheel      *Wheel
	fn         func()
	tick       uint64
	linked     bool
	prev, next *WheelTimer
}

// NewWheel builds a wheel with the given tick granularity and slot count
// (rounded up to a power of two). The wheel goroutine starts lazily on the
// first Schedule.
func NewWheel(granularity time.Duration, slots int) *Wheel {
	if granularity <= 0 {
		granularity = 5 * time.Millisecond
	}
	n := 1
	for n < slots || n < 8 {
		n <<= 1
	}
	return &Wheel{
		gran:  granularity,
		epoch: time.Now(),
		slots: make([]wheelList, n),
		wake:  make(chan struct{}, 1),
	}
}

var (
	defaultWheelOnce sync.Once
	defaultWheel     *Wheel
)

// DefaultWheel returns the process-wide shared wheel (5ms granularity,
// 1024 slots) used by Server, Client and the SPI watchdogs. It is created
// on first use and never stopped.
func DefaultWheel() *Wheel {
	defaultWheelOnce.Do(func() { defaultWheel = NewWheel(5*time.Millisecond, 1024) })
	return defaultWheel
}

// tickAt converts an absolute time to a wheel tick (rounding up, so a
// timer never fires early).
func (w *Wheel) tickAt(t time.Time) uint64 {
	d := t.Sub(w.epoch)
	if d <= 0 {
		return 0
	}
	return uint64((d + w.gran - 1) / w.gran)
}

// Schedule runs fn once after at least d has elapsed (late by at most one
// granularity plus scheduler noise). fn runs on the wheel goroutine and
// must not block; closing a net.Conn or cancelling a context is the
// intended shape. The returned timer's Stop cancels it.
func (w *Wheel) Schedule(d time.Duration, fn func()) *WheelTimer {
	t := &WheelTimer{wheel: w, fn: fn}
	t.tick = w.tickAt(time.Now().Add(d)) + 1 // +1: current tick may be mostly spent

	w.mu.Lock()
	slot := &w.slots[t.tick&uint64(len(w.slots)-1)]
	t.linked = true
	t.prev = slot.tail
	t.next = nil
	if slot.tail != nil {
		slot.tail.next = t
	} else {
		slot.head = t
	}
	slot.tail = t
	w.pending++
	if !w.started {
		w.started = true
		go w.run()
	}
	w.mu.Unlock()

	select {
	case w.wake <- struct{}{}:
	default:
	}
	return t
}

// Stop cancels the timer, reporting whether it did (false means the timer
// already fired or was already stopped). Safe to call any number of times,
// including after the timer fired.
func (t *WheelTimer) Stop() bool {
	w := t.wheel
	w.mu.Lock()
	if !t.linked {
		w.mu.Unlock()
		return false
	}
	w.unlink(t)
	w.mu.Unlock()
	t.fn, t.prev, t.next = nil, nil, nil
	return true
}

// unlink removes t from its slot list. Caller holds w.mu.
func (w *Wheel) unlink(t *WheelTimer) {
	slot := &w.slots[t.tick&uint64(len(w.slots)-1)]
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		slot.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		slot.tail = t.prev
	}
	t.linked = false
	w.pending--
}

// run is the wheel goroutine: tick while timers are pending, park when
// none are.
func (w *Wheel) run() {
	ticker := time.NewTicker(w.gran)
	defer ticker.Stop()
	for {
		w.mu.Lock()
		idle := w.pending == 0
		w.mu.Unlock()
		if idle {
			<-w.wake // park: no timers, nothing to advance
			continue
		}
		select {
		case <-ticker.C:
			w.advance(time.Now())
		case <-w.wake:
			// New timer; loop re-checks state. No advance needed: a freshly
			// scheduled timer is at least one tick away.
		}
	}
}

// advance fires every timer whose tick is <= the tick of now. Fired
// callbacks run on the wheel goroutine, outside the lock.
func (w *Wheel) advance(now time.Time) {
	nowTick := w.tickAt(now)
	var fired []func()
	w.mu.Lock()
	if nowTick > w.cur+uint64(len(w.slots)) {
		// Parked (or stalled) past a full rotation: every slot is due at
		// most once, so scan the ring once instead of tick-by-tick.
		w.cur = nowTick - uint64(len(w.slots))
	}
	for w.cur < nowTick {
		w.cur++
		slot := &w.slots[w.cur&uint64(len(w.slots)-1)]
		t := slot.head
		for t != nil {
			next := t.next
			if t.tick <= nowTick {
				w.unlink(t)
				fired = append(fired, t.fn)
				t.fn, t.prev, t.next = nil, nil, nil
			}
			t = next
		}
	}
	w.mu.Unlock()
	for _, fn := range fired {
		fn()
	}
}

// wheelCtx is a context whose deadline is enforced by a Wheel instead of a
// runtime timer. Its observable behaviour matches context.WithTimeout —
// Err returns context.DeadlineExceeded after expiry and context.Canceled
// after cancel — so fault classification built on those sentinel errors
// (the SPI watchdog's pinned Server.Timeout texts) is unaffected by the
// swap.
type wheelCtx struct {
	parent   context.Context
	deadline time.Time
	done     chan struct{}

	mu         sync.Mutex
	err        error
	timer      *WheelTimer
	stopParent func() bool
}

// WheelTimeout is context.WithTimeout with the deadline tracked on w:
// scheduling and cancelling cost two list operations on the wheel instead
// of two runtime timer-heap operations, and expiry may be late by up to
// one wheel granularity. The CancelFunc must be called to release the
// timer, exactly as with context.WithTimeout.
func WheelTimeout(parent context.Context, w *Wheel, d time.Duration) (context.Context, context.CancelFunc) {
	c := &wheelCtx{
		parent:   parent,
		deadline: time.Now().Add(d),
		done:     make(chan struct{}),
	}
	// The wheel can fire the callback before Schedule's result is even
	// assigned, so the timer is published under the mutex; if cancel
	// already won the race the timer is stopped here instead (a no-op
	// after fire). The parent watcher gets the same treatment.
	timer := w.Schedule(d, func() { c.cancel(context.DeadlineExceeded) })
	c.mu.Lock()
	if c.err == nil {
		c.timer, timer = timer, nil
	}
	c.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	if parent.Done() != nil {
		stop := context.AfterFunc(parent, func() { c.cancel(parent.Err()) })
		c.mu.Lock()
		if c.err == nil {
			c.stopParent, stop = stop, nil
		}
		c.mu.Unlock()
		if stop != nil {
			stop()
		}
	}
	return c, func() { c.cancel(context.Canceled) }
}

func (c *wheelCtx) cancel(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	timer, stopParent := c.timer, c.stopParent
	c.timer, c.stopParent = nil, nil
	close(c.done)
	c.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	if stopParent != nil {
		stopParent()
	}
}

// Deadline implements context.Context.
func (c *wheelCtx) Deadline() (time.Time, bool) {
	if pd, ok := c.parent.Deadline(); ok && pd.Before(c.deadline) {
		return pd, true
	}
	return c.deadline, true
}

// Done implements context.Context.
func (c *wheelCtx) Done() <-chan struct{} { return c.done }

// Err implements context.Context.
func (c *wheelCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Value implements context.Context.
func (c *wheelCtx) Value(key any) any { return c.parent.Value(key) }
