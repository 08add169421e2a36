package core

import "sync"

// BatchWindow forms batches of items, one batch forming per key, and hands
// each sealed batch to its flush function. The item that opens a batch starts
// its settle step on a goroutine of its own: the step yields the processor for
// as long as each yield brings the batch a further item, seals the batch once
// a yield brings none, and flushes it. A batch that reaches maxItems items or
// maxBytes bytes is sealed at once, and so are the batches Flush and Close
// seal; each of those is flushed on a goroutine of its own. It is the one
// assembler behind both automatic packers: the client's AutoBatcher (one key,
// no byte cap) and the gateway's coalescer (a key per service, operation and
// SOAP version).
//
// Safe for concurrent use.
type BatchWindow[K comparable, T any] struct {
	maxItems int
	maxBytes int    // no byte cap when <= 0
	yield    func() // the settle step's yield: runtime.Gosched but in tests
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
}

// NewBatchWindow builds a window that passes every sealed batch to flush,
// with the key it formed under. maxBytes <= 0 sets no byte cap. yield is the
// settle step's yield of the processor; both packers pass runtime.Gosched.
func NewBatchWindow[K comparable, T any](maxItems, maxBytes int, yield func(), flush func(K, []T)) *BatchWindow[K, T] {
	return &BatchWindow[K, T]{
		maxItems: maxItems,
		maxBytes: maxBytes,
		yield:    yield,
		flush:    flush,
		forming:  make(map[K]*formingBatch[T]),
	}
}

// Add puts item, size bytes of it, into key's forming batch, opening one if
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
	case len(b.items) == 1:
		go w.settle(key, b)
	}
	return true
}

// settle is the settle step of b, the batch key's first item opened: it
// yields until a yield brings b no further item, then seals b and flushes it
// on this goroutine. A cap, Flush or Close that seals b first also flushes
// it, and settle only returns.
func (w *BatchWindow[K, T]) settle(key K, b *formingBatch[T]) {
	w.mu.Lock()
	for n := 0; w.forming[key] == b && len(b.items) > n; {
		n = len(b.items)
		w.mu.Unlock()
		w.yield()
		w.mu.Lock()
	}
	if w.forming[key] != b {
		w.mu.Unlock()
		return
	}
	delete(w.forming, key)
	w.flushes.Add(1)
	w.mu.Unlock()
	defer w.flushes.Done()
	w.flush(key, b.items)
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
	w.flushes.Add(1)
	go func() {
		defer w.flushes.Done()
		w.flush(key, b.items)
	}()
}
