package stage

import (
	"testing"
	"time"
)

func TestOccupancy(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Stats
		want float64
	}{
		{"idle", Stats{Workers: 4, Busy: 0}, 0},
		{"half", Stats{Workers: 4, Busy: 2}, 0.5},
		{"full", Stats{Workers: 4, Busy: 4}, 1},
		{"over (transient busy > workers)", Stats{Workers: 4, Busy: 5}, 1},
		{"no workers", Stats{Workers: 0, Busy: 3}, 0},
	} {
		if got := tc.s.Occupancy(); got != tc.want {
			t.Errorf("%s: Occupancy = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestQueueLenObservesBacklog(t *testing.T) {
	// One worker parked on a gate; two more tasks must sit in the queue
	// where QueueLen can see them.
	p, _ := NewPool("q", 1, 8)
	defer p.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if err := p.Submit(func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.QueueLen(); got != 2 {
		t.Errorf("QueueLen = %d, want 2", got)
	}
	if occ := p.Stats().Occupancy(); occ != 1 {
		t.Errorf("Occupancy = %v, want 1 (single worker busy)", occ)
	}
	close(gate)
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
}
