package core

import (
	"sync"
	"time"
)

// BatchWindow forms batches of items, one batch forming per key, and hands
// each sealed batch to its flush function on a goroutine of its own. A batch
// is sealed a delay after its first item, or as soon as it holds maxItems
// items or maxBytes bytes. It is the one assembler behind both automatic
// packers: the client's AutoBatcher (one key, no byte cap) and the gateway's
// coalescer (a key per service, operation and SOAP version).
//
// Safe for concurrent use.
type BatchWindow[K comparable, T any] struct {
	delay    time.Duration
	maxItems int
	maxBytes int // no byte cap when <= 0
	flush    func(K, []T)

	mu      sync.Mutex
	forming map[K]*formingBatch[T]
	closed  bool
	flushes sync.WaitGroup
}

// formingBatch is one batch still taking items.
type formingBatch[T any] struct {
	items []T
	bytes int
	timer *time.Timer
}

// NewBatchWindow builds a window that passes every sealed batch to flush,
// with the key it formed under. maxBytes <= 0 sets no byte cap.
func NewBatchWindow[K comparable, T any](delay time.Duration, maxItems, maxBytes int, flush func(K, []T)) *BatchWindow[K, T] {
	return &BatchWindow[K, T]{
		delay:    delay,
		maxItems: maxItems,
		maxBytes: maxBytes,
		flush:    flush,
		forming:  make(map[K]*formingBatch[T]),
	}
}

// Add puts item, size bytes of it, into key's forming batch, starting one if
// there is none, and seals the batch once it reaches a cap. It reports false,
// having kept nothing, once the window is closed.
func (w *BatchWindow[K, T]) Add(key K, item T, size int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	b := w.forming[key]
	if b == nil {
		b = &formingBatch[T]{}
		w.forming[key] = b
	}
	b.items = append(b.items, item)
	b.bytes += size
	switch {
	case len(b.items) >= w.maxItems || w.maxBytes > 0 && b.bytes >= w.maxBytes:
		w.sealLocked(key, b)
	case b.timer == nil:
		b.timer = time.AfterFunc(w.delay, func() { w.expire(key, b) })
	}
	return true
}

// expire is the timer of b, armed with its first item: it seals b if b is
// still forming. A timer that fired while a cap or Flush was sealing b — too
// late to be stopped — finds a later batch under key, or none, and leaves it.
func (w *BatchWindow[K, T]) expire(key K, b *formingBatch[T]) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.forming[key] == b {
		w.sealLocked(key, b)
	}
}

// Flush seals key's forming batch now, if there is one.
func (w *BatchWindow[K, T]) Flush(key K) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if b := w.forming[key]; b != nil {
		w.sealLocked(key, b)
	}
}

// Close stops taking items, seals every forming batch and returns once every
// sealed batch has been flushed. Closing again only waits.
func (w *BatchWindow[K, T]) Close() {
	w.mu.Lock()
	w.closed = true
	for key, b := range w.forming {
		w.sealLocked(key, b)
	}
	w.mu.Unlock()
	w.flushes.Wait()
}

// sealLocked takes b, key's forming batch, out of the window and flushes it on
// its own goroutine. The caller holds w.mu.
func (w *BatchWindow[K, T]) sealLocked(key K, b *formingBatch[T]) {
	delete(w.forming, key)
	if b.timer != nil {
		b.timer.Stop()
	}
	w.flushes.Add(1)
	go func() {
		defer w.flushes.Done()
		w.flush(key, b.items)
	}()
}
