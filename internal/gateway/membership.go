package gateway

import (
	"fmt"

	"repro/internal/admin"
)

// A backend's drain states: serving, draining with work in flight, drained
// (its idle pool released and the drain counted).
const (
	drainOff int32 = iota
	drainPending
	drainDone
)

// startDrain stops new work to b. The drain completes when the last entry
// reserved on b is released (release), or here at once when none is.
func (g *Gateway) startDrain(b *backend) {
	if b.drain.CompareAndSwap(drainOff, drainPending) && b.entriesInflight.Load() == 0 {
		g.completeDrain(b)
	}
}

// release gives back n entries reserved on b. Entries are reserved where
// b.draining() is checked — by assign for a shard, by relay for a whole
// request — so a shard built but not yet sent keeps a drain pending. The
// last one out of a draining backend completes its drain.
func (g *Gateway) release(b *backend, n int) {
	if b.entriesInflight.Add(int64(-n)) == 0 && b.draining() {
		g.completeDrain(b)
	}
}

// completeDrain counts a pending drain once (startDrain and the last release
// may both get here; one wins the swap) and releases b's idle keep-alive
// pool — again for work handed b as its drain began. A resumed b keeps it.
func (g *Gateway) completeDrain(b *backend) {
	if b.drain.CompareAndSwap(drainPending, drainDone) {
		g.drained.Inc()
	}
	if b.drain.Load() == drainDone {
		b.client.CloseIdle()
	}
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

func (s backendState) Snapshot() (int64, bool) { return s.b.weight.Load(), s.b.draining() }

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
		s.b.drain.Store(drainOff)
	}
}
