package stage

import (
	"math/rand"
	"testing"
)

// TestRingMatchesFIFOModel drives push and pop directly in a random order
// against a slice model: tasks come out in the order they went in across
// every wrap and growth, the ring never holds more than queueCap slots, and it
// never shrinks.
func TestRingMatchesFIFOModel(t *testing.T) {
	const queueCap = 12 // not a power of two: the last growth is clamped
	p := &Pool{queueCap: queueCap}
	rng := rand.New(rand.NewSource(1))
	var model []int
	next, popped := 0, -1
	for step := 0; step < 10_000; step++ {
		if p.queued < queueCap && (p.queued == 0 || rng.Intn(2) == 0) {
			id := next
			next++
			p.push(func() { popped = id })
			model = append(model, id)
		} else {
			size := len(p.ring)
			p.pop()()
			if popped != model[0] {
				t.Fatalf("step %d: popped task %d, want %d", step, popped, model[0])
			}
			model = model[1:]
			if len(p.ring) != size {
				t.Fatalf("step %d: pop resized the ring %d -> %d", step, size, len(p.ring))
			}
		}
		if p.queued != len(model) {
			t.Fatalf("step %d: queued = %d, model holds %d", step, p.queued, len(model))
		}
		if len(p.ring) > queueCap {
			t.Fatalf("step %d: ring of %d slots, queueCap %d", step, len(p.ring), queueCap)
		}
	}
	if len(p.ring) != queueCap {
		t.Errorf("ring ends at %d slots, want it grown to queueCap %d", len(p.ring), queueCap)
	}
	for i, task := range p.ring {
		if task != nil && (i-p.head+len(p.ring))%len(p.ring) >= p.queued {
			t.Errorf("slot %d holds a popped task", i)
		}
	}
}

// TestSteadyStateSubmitAllocatesNothing holds the queue to no allocation once
// its ring has grown: neither a lone Submit on an idle pool nor a burst of 16
// on a one-worker pool allocates, as a slice popped by reslicing did on every
// refill. The task is built once, so what is counted is the queue's own.
func TestSteadyStateSubmitAllocatesNothing(t *testing.T) {
	p, _ := NewPool("steady", 1, 64)
	defer p.Close()
	done := make(chan struct{}, 16)
	task := func() { done <- struct{}{} }
	burst := func(n int) {
		for i := 0; i < n; i++ {
			if err := p.Submit(task); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			<-done
		}
	}
	if n := testing.AllocsPerRun(200, func() { burst(1) }); n != 0 {
		t.Errorf("a lone Submit and its run allocate %v times", n)
	}
	// Grow the ring to hold a whole burst: with the worker held, all 16 queue.
	release := make(chan struct{})
	if err := p.Submit(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := p.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	for i := 0; i < 16; i++ {
		<-done
	}
	if n := testing.AllocsPerRun(50, func() { burst(16) }); n != 0 {
		t.Errorf("a burst of 16 Submits and their runs allocate %v times", n)
	}
}
