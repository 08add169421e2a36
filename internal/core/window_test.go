package core

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// windowRecorder collects the batches a BatchWindow flushes.
type windowRecorder struct {
	mu      sync.Mutex
	batches map[string][][]int
	flushed chan struct{} // one send per flush
}

func newWindowRecorder() *windowRecorder {
	return &windowRecorder{batches: make(map[string][][]int), flushed: make(chan struct{}, 64)}
}

func (r *windowRecorder) flush(key string, items []int) {
	r.mu.Lock()
	r.batches[key] = append(r.batches[key], items)
	r.mu.Unlock()
	r.flushed <- struct{}{}
}

// got returns key's flushed batches once n flushes in all have happened.
func (r *windowRecorder) got(t *testing.T, n int, key string) [][]int {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-r.flushed:
		case <-time.After(5 * time.Second):
			t.Fatalf("flush %d of %d never happened", i+1, n)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.batches[key])
}

// formingItems returns the items of key's forming batch, nil when there is none.
func (w *BatchWindow[K, T]) formingItems(key K) []T {
	w.mu.Lock()
	defer w.mu.Unlock()
	if b := w.forming[key]; b != nil {
		return slices.Clone(b.items)
	}
	return nil
}

// TestBatchWindowCaps: a batch is sealed the moment it reaches the count cap
// or the byte cap, whichever comes first, and each key forms its own batch.
func TestBatchWindowCaps(t *testing.T) {
	r := newWindowRecorder()
	w := NewBatchWindow(time.Hour, 3, 100, r.flush)
	defer w.Close()
	for i := 1; i <= 3; i++ {
		w.Add("count", i, 1)
	}
	w.Add("bytes", 1, 60)
	w.Add("other", 9, 1)
	w.Add("bytes", 2, 40) // 100 bytes: sealed at two items
	if got := r.got(t, 2, "count"); !slices.EqualFunc(got, [][]int{{1, 2, 3}}, slices.Equal) {
		t.Errorf("count cap flushed %v, want [[1 2 3]]", got)
	}
	if got := r.got(t, 0, "bytes"); !slices.EqualFunc(got, [][]int{{1, 2}}, slices.Equal) {
		t.Errorf("byte cap flushed %v, want [[1 2]]", got)
	}
	if got := w.formingItems("other"); !slices.Equal(got, []int{9}) {
		t.Errorf("another key's batch holds %v, want [9] still forming", got)
	}
}

// TestBatchWindowNoByteCap: maxBytes <= 0 sets no byte cap.
func TestBatchWindowNoByteCap(t *testing.T) {
	r := newWindowRecorder()
	w := NewBatchWindow(time.Hour, 2, 0, r.flush)
	w.Add("k", 1, 1<<30)
	if got := w.formingItems("k"); !slices.Equal(got, []int{1}) {
		t.Fatalf("forming %v, want [1]", got)
	}
	w.Close()
	if got := r.got(t, 1, "k"); !slices.EqualFunc(got, [][]int{{1}}, slices.Equal) {
		t.Errorf("Close flushed %v, want [[1]]", got)
	}
}

// TestBatchWindowDelay: a batch is sealed a delay after its first item, not
// after its last, and the next item starts a new batch.
func TestBatchWindowDelay(t *testing.T) {
	const delay = 20 * time.Millisecond
	r := newWindowRecorder()
	w := NewBatchWindow(delay, 100, 0, r.flush)
	defer w.Close()
	start := time.Now()
	w.Add("k", 1, 0)
	w.Add("k", 2, 0)
	got := r.got(t, 1, "k")
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("batch sealed after %v, before its delay of %v", elapsed, delay)
	}
	if !slices.EqualFunc(got, [][]int{{1, 2}}, slices.Equal) {
		t.Errorf("flushed %v, want [[1 2]]", got)
	}
	w.Add("k", 3, 0)
	if got := w.formingItems("k"); !slices.Equal(got, []int{3}) {
		t.Errorf("after the seal the window holds %v, want a new batch [3]", got)
	}
}

// TestBatchWindowFlush: Flush seals one key's batch at once and leaves the
// others forming; with nothing forming it does nothing.
func TestBatchWindowFlush(t *testing.T) {
	r := newWindowRecorder()
	w := NewBatchWindow(time.Hour, 100, 0, r.flush)
	defer w.Close()
	w.Add("a", 1, 0)
	w.Add("b", 2, 0)
	w.Flush("a")
	w.Flush("none")
	if got := r.got(t, 1, "a"); !slices.EqualFunc(got, [][]int{{1}}, slices.Equal) {
		t.Errorf("Flush sent %v, want [[1]]", got)
	}
	if got := w.formingItems("b"); !slices.Equal(got, []int{2}) {
		t.Errorf("Flush of another key left %v, want [2]", got)
	}
}

// TestBatchWindowClose: Close seals every forming batch, returns only after
// every flush has, refuses later items, and may be called again.
func TestBatchWindowClose(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var flushed []string
	w := NewBatchWindow(time.Hour, 100, 0, func(key string, _ []int) {
		<-release
		mu.Lock()
		flushed = append(flushed, key)
		mu.Unlock()
	})
	w.Add("a", 1, 0)
	w.Add("b", 2, 0)
	closed := make(chan struct{})
	go func() {
		w.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned before its flushes finished")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-closed
	mu.Lock()
	slices.Sort(flushed)
	if !slices.Equal(flushed, []string{"a", "b"}) {
		t.Errorf("Close flushed %v, want [a b]", flushed)
	}
	mu.Unlock()
	if w.Add("a", 3, 0) {
		t.Error("Add after Close kept an item")
	}
	w.Close()
}

// TestBatchWindowStaleTimer: the timer of a batch that a cap sealed can have
// fired already, its callback waiting for the lock the sealing Add holds, so
// Stop cannot cancel it. When it runs, a later batch is forming under the
// same key; it must leave that batch to its own window. The test runs the
// late callback by hand, after the second batch has formed, so the
// interleaving is the same on every run.
func TestBatchWindowStaleTimer(t *testing.T) {
	r := newWindowRecorder()
	w := NewBatchWindow(time.Hour, 2, 0, r.flush)
	defer w.Close()
	w.Add("k", 1, 0)
	w.mu.Lock()
	first := w.forming["k"]
	w.mu.Unlock()
	w.Add("k", 2, 0) // the count cap seals the first batch
	w.Add("k", 3, 0) // the second batch forms, with an hour to go
	w.expire("k", first)
	if got := r.got(t, 1, "k"); !slices.EqualFunc(got, [][]int{{1, 2}}, slices.Equal) {
		t.Errorf("flushed %v, want [[1 2]]", got)
	}
	if got := w.formingItems("k"); !slices.Equal(got, []int{3}) {
		t.Errorf("the first batch's timer sealed the second batch early: forming %v, want [3]", got)
	}
}
