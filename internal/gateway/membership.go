package gateway

import (
	"fmt"
	"time"

	"repro/internal/admin"
)

// AddBackend joins a new backend to the live membership set; it becomes
// assignable immediately.
func (g *Gateway) AddBackend(bc BackendConfig) error {
	_, err := g.newBackend(bc)
	return err
}

// DrainBackend starts a graceful drain: the named backend stops receiving
// new shards and proxies at once, in-flight sub-batches run to completion,
// and once the last one finishes its keep-alive pool is released. The
// backend stays a member — ResumeBackend undoes the drain at any point.
func (g *Gateway) DrainBackend(name string) error {
	b, err := g.backendByName(name)
	if err != nil {
		return err
	}
	g.startDrain(b)
	return nil
}

// startDrain flags the backend and parks a waiter that releases its idle
// keep-alive connections once in-flight work hits zero.
func (g *Gateway) startDrain(b *backend) {
	if b.draining.Swap(true) {
		return // already draining; the existing waiter is parked
	}
	g.releaseWhenIdle(b, b.client.CloseIdle)
}

// ResumeBackend reverses a drain: the backend immediately rejoins
// assignment. Connections are re-dialed on demand (CloseIdle leaves the
// client usable).
func (g *Gateway) ResumeBackend(name string) error {
	b, err := g.backendByName(name)
	if err != nil {
		return err
	}
	b.draining.Store(false)
	return nil
}

// RemoveBackend takes a backend out of the membership set permanently: it
// vanishes from new snapshots at once (no new work), in-flight sub-batches
// finish against it, and its client closes once they have. Unlike a drain
// this is terminal — the closed client cannot be resumed.
func (g *Gateway) RemoveBackend(name string) error {
	g.bmu.Lock()
	var b *backend
	for i, cand := range g.backends {
		if cand.name == name {
			b = cand
			g.backends = append(g.backends[:i], g.backends[i+1:]...)
			break
		}
	}
	g.bmu.Unlock()
	if b == nil {
		return fmt.Errorf("gateway: no backend named %q", name)
	}
	// Draining for good: keeps failover from re-picking it via held
	// snapshots, and nothing can resume a backend that left the set.
	b.draining.Store(true)
	g.releaseWhenIdle(b, b.client.Close)
	return nil
}

// releaseWhenIdle parks one waiter that calls release once the draining
// backend has no sub-batch in flight, and counts the drain complete. A
// resume ends the wait without releasing anything; gateway shutdown
// releases at once. The waiter polls: drains are rare, operator-scale
// events, and a poll loop stays trivially correct against concurrent
// resume/re-drain cycles where a condition-variable handoff would need
// careful sequencing.
func (g *Gateway) releaseWhenIdle(b *backend, release func()) {
	g.drainWG.Add(1)
	go func() {
		defer g.drainWG.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stopCh:
				release()
				return
			case <-t.C:
			}
			if !b.draining.Load() {
				return // resumed before the drain completed
			}
			if b.inflight.Load() == 0 {
				release()
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
	b, err := g.backendByName(name)
	if err != nil {
		return nil, false
	}
	return backendState{g, b}, true
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

// SetDraining drains or resumes the backend, as DrainBackend and
// ResumeBackend do.
func (s backendState) SetDraining(d bool) {
	if d {
		s.g.startDrain(s.b)
	} else {
		s.b.draining.Store(false)
	}
}
