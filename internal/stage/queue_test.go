package stage

import (
	"sync"
	"testing"
)

// TestQueueRunsTasksInSubmitOrder holds the one worker, queues n tasks behind
// it, and lets it go: the tasks must run in the order they were submitted.
func TestQueueRunsTasksInSubmitOrder(t *testing.T) {
	const n = 12
	p, _ := NewPool("fifo", 1, n)
	block, started := make(chan struct{}), make(chan struct{})
	if err := p.Submit(func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started
	var ran []int // written by the one worker only; read after Close
	for i := 0; i < n; i++ {
		if err := p.Submit(func() { ran = append(ran, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.QueueLen(); got != n {
		t.Fatalf("QueueLen = %d with the worker held, want %d", got, n)
	}
	close(block)
	p.Close()
	if len(ran) != n {
		t.Fatalf("%d of %d queued tasks ran", len(ran), n)
	}
	for i, id := range ran {
		if id != i {
			t.Fatalf("run order %v, want 0..%d in order", ran, n-1)
		}
	}
}

// TestSteadyStateSubmitAllocatesNothing holds the queue to no allocation:
// neither a lone Submit on an idle pool, nor a burst of 16 on a one-worker
// pool, nor the server's fan-out — 16 submits to 32 idle workers — allocates.
// The task is built once, so what is counted is the queue's own.
func TestSteadyStateSubmitAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name       string
		workers, n int
		runs       int
	}{
		{"lone Submit", 1, 1, 200},
		{"burst of 16, one worker", 1, 16, 50},
		{"fan-out of 16, 32 workers", 32, 16, 50},
	} {
		p, _ := NewPool("steady", tc.workers, 64)
		var wg sync.WaitGroup
		task := func() { wg.Done() }
		burst := func() {
			wg.Add(tc.n)
			for i := 0; i < tc.n; i++ {
				if err := p.Submit(task); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
		}
		burst() // let every worker park once
		if allocs := testing.AllocsPerRun(tc.runs, burst); allocs != 0 {
			t.Errorf("%s: the submits and their runs allocate %v times", tc.name, allocs)
		}
		p.Close()
	}
}
