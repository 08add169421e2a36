package gateway

import (
	"fmt"
	"time"

	"repro/internal/admin"
)

// startDrain flags the backend and parks one waiter that releases its idle
// keep-alive connections once it has no sub-batch in flight, and counts the
// drain complete. A resume ends the wait without releasing anything; gateway
// shutdown releases at once. The waiter polls: drains are rare,
// operator-scale events, and a poll loop stays trivially correct against
// concurrent resume/re-drain cycles where a condition-variable handoff
// would need careful sequencing.
func (g *Gateway) startDrain(b *backend) {
	if b.draining.Swap(true) {
		return // already draining; the existing waiter is parked
	}
	g.drainWG.Add(1)
	go func() {
		defer g.drainWG.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stopCh:
				b.client.CloseIdle()
				return
			case <-t.C:
			}
			if !b.draining.Load() {
				return // resumed before the drain completed
			}
			if b.inflight.Load() == 0 {
				b.client.CloseIdle()
				g.drained.Inc()
				return
			}
		}
	}()
}

// Backend gives the gateway's Admin SetState the routing state of the named
// backend, so a backend parameter sets that backend's weight and drain
// instead of the gateway's own.
func (g *Gateway) Backend(name string) (admin.Target, bool) {
	for _, b := range g.backends {
		if b.name == name {
			return backendState{g, b}, true
		}
	}
	return nil, false
}

// backendState is one backend's weight and drain flag as an admin.Target.
type backendState struct {
	g *Gateway
	b *backend
}

func (s backendState) Snapshot() (int64, bool) { return s.b.weight.Load(), s.b.draining.Load() }

func (s backendState) SetWeight(w int64) error {
	if w > maxWeight {
		return fmt.Errorf("weight %d exceeds %d", w, maxWeight)
	}
	s.b.weight.Store(w)
	return nil
}

// SetDraining drains or resumes the backend. A drain stops new shards and
// proxies at once, lets in-flight sub-batches finish, then releases the
// keep-alive pool; a resume rejoins assignment at once and re-dials on
// demand (CloseIdle leaves the client usable).
func (s backendState) SetDraining(d bool) {
	if d {
		s.g.startDrain(s.b)
	} else {
		s.b.draining.Store(false)
	}
}
