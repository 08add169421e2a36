package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holdYield is a settle step's yield that returns only when the test ends, so
// every batch it settles stays open until a cap, Flush or Close seals it.
func holdYield(t *testing.T) func() {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	return func() { <-release }
}

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
	w := NewBatchWindow(3, 100, holdYield(t), r.flush)
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
	w := NewBatchWindow(2, 0, holdYield(t), r.flush)
	w.Add("k", 1, 1<<30)
	if got := w.formingItems("k"); !slices.Equal(got, []int{1}) {
		t.Fatalf("forming %v, want [1]", got)
	}
	w.Close()
	if got := r.got(t, 1, "k"); !slices.EqualFunc(got, [][]int{{1}}, slices.Equal) {
		t.Errorf("Close flushed %v, want [[1]]", got)
	}
}

// TestBatchWindowLoneItemSealsAfterOneYield: an item with no companion is
// sealed after one yield that brings none, and flushed on the goroutine that
// yielded.
func TestBatchWindowLoneItemSealsAfterOneYield(t *testing.T) {
	r := newWindowRecorder()
	var yields atomic.Int32
	w := NewBatchWindow(100, 0, func() { yields.Add(1); runtime.Gosched() }, r.flush)
	defer w.Close()
	w.Add("k", 1, 0)
	if got := r.got(t, 1, "k"); !slices.EqualFunc(got, [][]int{{1}}, slices.Equal) {
		t.Errorf("flushed %v, want [[1]]", got)
	}
	if n := yields.Load(); n != 1 {
		t.Errorf("sealed after %d yields, want 1", n)
	}
	w.Add("k", 2, 0)
	if got := r.got(t, 1, "k"); !slices.EqualFunc(got, [][]int{{1}, {2}}, slices.Equal) {
		t.Errorf("the next item flushed %v, want a batch of its own", got)
	}
}

// TestBatchWindowUnpausedStreamSealsAtCap: a batch that every yield brings a
// further item never settles; the count cap seals it, and the settle step
// leaves it to the flush the cap started.
func TestBatchWindowUnpausedStreamSealsAtCap(t *testing.T) {
	const maxItems = 5
	r := newWindowRecorder()
	var w *BatchWindow[string, int]
	next := 1
	w = NewBatchWindow(maxItems, 0, func() {
		// Only the first batch's settle step yields here: it runs alone.
		if next < maxItems {
			next++
			w.Add("k", next, 0)
		}
	}, r.flush)
	w.Add("k", 1, 0)
	r.got(t, 1, "k")
	if got := w.formingItems("k"); got != nil {
		t.Errorf("after the cap the window holds %v, want nothing forming", got)
	}
	w.Close()
	if got := r.got(t, 0, "k"); !slices.EqualFunc(got, [][]int{{1, 2, 3, 4, 5}}, slices.Equal) {
		t.Errorf("flushed %v, want [[1 2 3 4 5]] once", got)
	}
}

// TestBatchWindowFlush: Flush seals one key's held batch at once and leaves
// the others forming; with nothing forming it does nothing.
func TestBatchWindowFlush(t *testing.T) {
	r := newWindowRecorder()
	w := NewBatchWindow(100, 0, holdYield(t), r.flush)
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

// TestBatchWindowClose: Close seals every held batch, returns only after
// every flush has, refuses later items, and may be called again.
func TestBatchWindowClose(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var flushed []string
	w := NewBatchWindow(100, 0, holdYield(t), func(key string, _ []int) {
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
