package gateway

import (
	"slices"
	"sync"
	"time"
)

// fleet is the backends' lifecycle — drain, reserved entries and the
// ejection circuit — as one machine under one lock. It does no I/O, reads no
// clock and starts nothing: each method is an event, given the time where it
// matters, that returns an act for its interpreter, the gateway, to carry
// out. Choosing a backend and reserving on it are one event, so no drain
// completes between the two.
type fleet struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that open a circuit
	window    time.Duration // how long an opened circuit stays open
	closed    bool
	ms        []member // by backend index
	cands     []int    // scratch
	load      []int64  // scratch
}

// member is one backend's lifecycle.
type member struct {
	drain     uint8     // serving, draining or drained
	reserved  int64     // entries reserved from assignment until their outcome is known
	fails     int       // consecutive failed exchanges, up to the threshold
	until     time.Time // the ejection window's end; zero while the circuit is closed
	probing   bool      // a probe is running
	ejections int64     // circuit openings
	drains    int64     // completed drains
}

const (
	serving  uint8 = iota
	draining       // takes no new work; waits out its reservations and its probe
	drained        // counted in drains, and its idle pool released
)

// act is what an event asks of the interpreter, for the event's backend.
type act struct {
	arm       time.Time // arm the window timer to fire then
	probe     bool      // probe the backend
	closeIdle bool      // release the idle keep-alive pool
	settled   bool      // the last probe running at close has ended
}

// routable lists the members other than skip that new work may go to:
// serving, with the circuit closed or its window ended (half-open: every
// caller is let through, and the first failure re-opens it). When none is,
// it fails open to the serving ones, and when none serves and skip is -1, to
// every member: an ejected backend gets a chance instead of every entry
// failing. Lock held.
func (f *fleet) routable(now time.Time, skip int) []int {
	c := f.cands[:0]
	for pass := 0; pass < 3 && len(c) == 0; pass++ {
		for i, m := range f.ms {
			if i != skip && (m.drain == serving && (pass > 0 || !now.Before(m.until)) || pass == 2 && skip < 0) {
				c = append(c, i)
			}
		}
	}
	f.cands = c
	return c
}

// reserve is a request's assignment: place spreads its entries over the
// routable members by adding to load, their reserved counts, which are kept.
// place runs under the lock, so it must not block or call the fleet.
func (f *fleet) reserve(now time.Time, place func(cands []int, load []int64)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, load := f.routable(now, -1), f.load[:0]
	for _, i := range c {
		load = append(load, f.ms[i].reserved)
	}
	place(c, load)
	for k, i := range c {
		f.ms[i].reserved = load[k]
	}
	f.load = load
}

// pick is a forward's routing: it reserves n entries on the routable member
// turn selects, and returns it. A relay passes from -1. A failover passes the
// member holding the entries: they move to the one picked, or stay when no
// other can take them.
func (f *fleet) pick(now time.Time, turn uint64, from int, n int64) (int, act) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.routable(now, from)
	if len(c) == 0 {
		return from, act{}
	}
	to := c[turn%uint64(len(c))]
	f.ms[to].reserved += n
	if from < 0 {
		return to, act{}
	}
	return to, f.put(from, n)
}

// release gives back n entries reserved on member i.
func (f *fleet) release(i int, n int64) act {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.put(i, n)
}

// put gives back n entries. A drain completes once nothing is reserved and no
// probe runs; a member already drained, which the fail-open handed work, has
// its pool released again. Lock held.
func (f *fleet) put(i int, n int64) (a act) {
	m := &f.ms[i]
	if m.reserved -= n; m.drain != serving && m.reserved == 0 && !m.probing {
		if m.drain == draining {
			m.drains++
		}
		a.closeIdle, m.drain = true, drained
	}
	return a
}

// exchanged is an exchange with member i ending at now, ok or not.
func (f *fleet) exchanged(i int, now time.Time, ok bool) act {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.note(i, now, ok)
}

// note is an exchange's or a probe's outcome: success closes the circuit; the
// threshold-th consecutive failure opens it, and each one after re-opens it,
// until now plus the window, whose end is armed unless the fleet is closed.
func (f *fleet) note(i int, now time.Time, ok bool) (a act) {
	m := &f.ms[i]
	if m.fails = min(m.fails+1, f.threshold); ok {
		m.fails, m.until = 0, time.Time{}
	} else if m.fails == f.threshold {
		if m.until.IsZero() {
			m.ejections++
		}
		m.until = now.Add(f.window)
		if !f.closed {
			a.arm = m.until
		}
	}
	return a
}

// windowEnded is member i's window timer firing at now: a serving member
// whose window has ended is probed, and a window a later failure moved on is
// re-armed. A draining member is not probed; it is half-open once resumed.
func (f *fleet) windowEnded(i int, now time.Time) (a act) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch m := &f.ms[i]; {
	case f.closed || m.until.IsZero() || m.probing:
	case now.Before(m.until):
		a.arm = m.until
	case m.drain == serving:
		m.probing, a.probe = true, true
	}
	return a
}

// probed is member i's probe ending at now, ok or not. A drain that waited
// for it completes.
func (f *fleet) probed(i int, now time.Time, ok bool) act {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ms[i].probing = false
	a := f.note(i, now, ok)
	a.closeIdle = f.put(i, 0).closeIdle
	a.settled = f.closed && !slices.ContainsFunc(f.ms, probing)
	return a
}

// setDrain drains member i, or returns it to assignment. A drain completes
// here when nothing is reserved and no probe runs, else with the last
// release or the probe.
func (f *fleet) setDrain(i int, on bool) act {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case !on:
		f.ms[i].drain = serving
	case f.ms[i].drain == serving:
		f.ms[i].drain = draining
		return f.put(i, 0)
	}
	return act{}
}

// close ends the fleet: no window is armed and no probe starts after it. It
// reports whether a probe still runs; the last one to end says settled.
func (f *fleet) close() (wait bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return slices.ContainsFunc(f.ms, probing)
}

func probing(m member) bool { return m.probing }

// snapshot copies every member and lists the ones assign places on.
func (f *fleet) snapshot(now time.Time) ([]member, []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.ms), slices.Clone(f.routable(now, -1))
}
