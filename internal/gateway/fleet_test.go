package gateway

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// The fleet takes time as an input, so its transitions are asserted here with
// now fed, and TestFleetExhaustive walks every order of its events.

var epoch = time.Unix(1_000_000, 0)

const testWindow = 30 * time.Millisecond

func testFleet(n int) *fleet {
	return &fleet{threshold: 2, window: testWindow, ms: make([]member, n)}
}

func (f *fleet) routableNow(now time.Time) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.routable(now, -1))
}

// TestFleetEjection walks one circuit through its states: two failures open
// it, a failure while it is open moves its window on, its timer firing early
// re-arms, half-open lets every caller through, the first failure re-opens
// it, and a probe's success or an exchange's closes it.
func TestFleetEjection(t *testing.T) {
	f := testFleet(2)
	if a := f.exchanged(0, epoch, false); a != (act{}) {
		t.Fatalf("first failure: %+v, want nothing", a)
	}
	end := epoch.Add(testWindow)
	if a := f.exchanged(0, epoch, false); a.arm != end {
		t.Fatalf("second failure arms %v, want %v", a.arm, end)
	}
	if got := f.routableNow(epoch); !slices.Equal(got, []int{1}) {
		t.Errorf("routable while open: %v, want [1]", got)
	}
	if to, _ := f.pick(epoch, 0, -1, 1); to != 1 {
		t.Errorf("a relay picked %d while 0 is ejected", to)
	}
	f.release(1, 1)

	// A failure while open (a fail-open exchange) moves the window on; the
	// timer armed for the first end re-arms for the new one.
	later := epoch.Add(testWindow / 2)
	moved := later.Add(testWindow)
	if a := f.exchanged(0, later, false); a.arm != moved {
		t.Fatalf("failure while open arms %v, want %v", a.arm, moved)
	}
	if a := f.windowEnded(0, end); a != (act{arm: moved}) {
		t.Fatalf("stale timer: %+v, want a re-arm at %v", a, moved)
	}
	if m := f.ms[0]; m.ejections != 1 {
		t.Errorf("ejections %d, want 1: the window moved, it did not open again", m.ejections)
	}

	// Half-open: every caller is let through, the first failure re-opens.
	if got := f.routableNow(moved); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("routable half-open: %v, want [0 1]", got)
	}
	for turn := uint64(0); turn < 2; turn++ {
		if to, _ := f.pick(moved, turn, -1, 1); to != int(turn) {
			t.Errorf("turn %d picked %d", turn, to)
		}
	}
	f.release(0, 1)
	f.release(1, 1)
	reopened := moved.Add(testWindow)
	if a := f.exchanged(0, moved, false); a.arm != reopened {
		t.Fatalf("half-open failure arms %v, want %v", a.arm, reopened)
	}
	if a := f.windowEnded(0, reopened); !a.probe {
		t.Fatalf("window end: %+v, want a probe", a)
	}
	if a := f.windowEnded(0, reopened); a != (act{}) {
		t.Errorf("second timer firing during the probe: %+v, want nothing", a)
	}
	if a := f.probed(0, reopened, true); a != (act{}) {
		t.Errorf("successful probe: %+v, want nothing", a)
	}
	if m := f.ms[0]; m.fails != 0 || !m.until.IsZero() {
		t.Errorf("after the probe: fails %d, until %v; want a closed circuit", m.fails, m.until)
	}

	// A probe's failure re-opens; traffic's success closes.
	f.exchanged(0, reopened, false)
	f.exchanged(0, reopened, false)
	probeAt := reopened.Add(testWindow)
	f.windowEnded(0, probeAt)
	if a := f.probed(0, probeAt, false); a.arm != probeAt.Add(testWindow) {
		t.Errorf("failed probe arms %v, want %v", a.arm, probeAt.Add(testWindow))
	}
	f.exchanged(0, probeAt, true)
	if m := f.ms[0]; m.fails != 0 || !m.until.IsZero() || m.ejections != 2 {
		t.Errorf("after a success: fails %d, until %v, ejections %d; want 0, zero, 2 (re-opening a half-open circuit is no new ejection)", m.fails, m.until, m.ejections)
	}
}

// TestFleetDrainAndProbe: a window that ends while its backend drains starts
// no probe, and the backend is half-open when resumed; a drain begun during a
// probe waits for it; close waits for the probe that runs, and nothing starts
// after it.
func TestFleetDrainAndProbe(t *testing.T) {
	f := testFleet(2)
	f.exchanged(0, epoch, false)
	f.exchanged(0, epoch, false)
	if a := f.setDrain(0, true); a != (act{counted: true, closeIdle: true}) {
		t.Fatalf("idle drain: %+v, want it counted and the pool released", a)
	}
	end := epoch.Add(testWindow)
	if a := f.windowEnded(0, end); a != (act{}) {
		t.Fatalf("window end while drained: %+v, want no probe", a)
	}
	f.setDrain(0, false)
	if got := f.routableNow(end); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("routable after the resume: %v, want [0 1] (half-open)", got)
	}

	// A drain while the probe runs completes when the probe ends.
	f.exchanged(0, end, false)
	next := end.Add(testWindow)
	if a := f.windowEnded(0, next); !a.probe {
		t.Fatalf("window end: %+v, want a probe", a)
	}
	if a := f.setDrain(0, true); a != (act{}) {
		t.Fatalf("drain during the probe: %+v, want it pending", a)
	}
	if a := f.probed(0, next, true); a != (act{counted: true, closeIdle: true}) {
		t.Fatalf("probe end: %+v, want the drain counted and the pool released", a)
	}

	// Close waits for a running probe; nothing is armed or started after.
	f.setDrain(0, false)
	f.exchanged(1, next, false)
	f.exchanged(1, next, false)
	last := next.Add(testWindow)
	f.windowEnded(1, last)
	if !f.close() {
		t.Fatal("close with a probe running did not ask to wait")
	}
	if a := f.probed(1, last, false); a != (act{settled: true}) {
		t.Errorf("the last probe after close: %+v, want settled and nothing armed", a)
	}
	f.exchanged(0, last, false)
	if a := f.exchanged(0, last, false); a != (act{}) {
		t.Errorf("failure after close: %+v, want nothing armed", a)
	}
	if a := f.windowEnded(0, last.Add(testWindow)); a != (act{}) {
		t.Errorf("window end after close: %+v, want no probe", a)
	}
}

// variant is the fleet's event table, so that the exhaustive check also runs
// on mutated copies. A variant whose reserve or pick is due only chooses; the
// reservation is made by a later commit event.
type variant struct {
	reserve     func(f *fleet, now time.Time, place func([]int, []int64))
	pick        func(f *fleet, now time.Time, turn uint64, from int, n int64) (int, act)
	windowEnded func(f *fleet, i int, now time.Time) act
	reserveDue  bool
	pickDue     bool
}

var fleetEvents = variant{reserve: (*fleet).reserve, pick: (*fleet).pick, windowEnded: (*fleet).windowEnded}

// commit is the second step of a due variant: n entries chosen for to are
// reserved there, and moved off from when a failover chose them.
func (f *fleet) commit(to, from int, n int64) act {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ms[to].reserved += n
	if from < 0 {
		return act{}
	}
	return f.put(from, n)
}

// The check's states hold no pointer and count time in half windows from
// now, so that the set of them stays small and states that differ only in
// the clock are one.
const half = testWindow / 2

// token is a reservation the check holds: n entries on member on or, while
// due, chosen for on and still reserved on from (-1: nowhere).
type token struct {
	on, from, n int8
	due         bool
}

// memberState is a member with its window end in half windows from now: -1
// while the circuit is closed, 0 once the window has ended.
type memberState struct {
	drain           uint8
	reserved, fails int8
	until           int8
	probing         bool
}

// fleetState is one state of a two-member fleet and of what its interpreter
// holds: the window timers (in half windows from now; -1: not armed), the
// reservations, and whether Close waits for a probe.
type fleetState struct {
	ms              [2]memberState
	armed           [2]int8
	tokens          [3]token // sorted, empty ones (n 0) last
	closed, waiting bool
}

const maxReserved = 3

func (s fleetState) room() int {
	n := maxReserved
	for _, t := range s.tokens {
		n -= int(t.n)
	}
	return n
}

// world is a state being stepped: the fleet, and the interpreter's timers
// and reservations, at now.
type world struct {
	f       *fleet
	now     time.Time
	armed   [2]time.Time
	tokens  [3]token
	waiting bool
}

func at(h int8) time.Time {
	if h < 0 {
		return time.Time{}
	}
	return epoch.Add(time.Duration(h) * half)
}

func (w *world) load(s fleetState) {
	w.now, w.tokens, w.waiting, w.f.closed = epoch, s.tokens, s.waiting, s.closed
	for i, m := range s.ms {
		w.f.ms[i] = member{drain: m.drain, reserved: int64(m.reserved), fails: int(m.fails), until: at(m.until), probing: m.probing}
		w.armed[i] = at(s.armed[i])
	}
}

// halves is t in half windows from now: -1 for the zero time, 0 for the past.
func (w *world) halves(t time.Time) int8 {
	if t.IsZero() {
		return -1
	}
	return int8(max(0, t.Sub(w.now)/half))
}

func (w *world) state() fleetState {
	s := fleetState{tokens: w.tokens, closed: w.f.closed, waiting: w.waiting}
	for i, m := range w.f.ms {
		s.ms[i] = memberState{m.drain, int8(m.reserved), int8(m.fails), w.halves(m.until), m.probing}
		s.armed[i] = w.halves(w.armed[i])
	}
	slices.SortFunc(s.tokens[:], func(a, b token) int {
		if (a.n == 0) != (b.n == 0) {
			return int(b.n) - int(a.n)
		}
		return cmp.Or(cmp.Compare(a.on, b.on), cmp.Compare(a.from, b.from), cmp.Compare(a.n, b.n), cmp.Compare(boolInt(a.due), boolInt(b.due)))
	})
	return s
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (w *world) add(t token) {
	for k := range w.tokens {
		if w.tokens[k].n == 0 {
			w.tokens[k] = t
			return
		}
	}
	panic("more tokens than entries")
}

// event names a step by its kind and operands; it is formatted only for a
// report.
type event struct{ kind, x, y int8 }

var eventFormats = [...]string{
	"assign %d on candidate %d", "assign 1 on each candidate", "relay turn %d",
	"commit token %d", "release token %d", "exchange on %d fails", "exchange on %d succeeds",
	"fail token %d over, turn %d", "window timer %d fires", "probe of %d fails",
	"probe of %d succeeds", "resume %d", "drain %d", "half a window passes", "close",
}

const (
	evAssign int8 = iota
	evAssignEach
	evRelay
	evCommit
	evRelease
	evExchange // + 1 when it succeeds
	_
	evFailover
	evTimer
	evProbed // + 1 when it succeeds
	_
	evDrain // + 0 resumes, + 1 drains
	_
	evTick
	evClose
)

func (e event) String() string {
	f := eventFormats[e.kind]
	return fmt.Sprintf(f, []any{e.x, e.y}[:strings.Count(f, "%")]...)
}

// landing is n entries reserved on member on, taking effect; skip is the
// member a failover moves them from (-1: none).
type landing struct{ on, skip, n int }

// step is one event applied to a state: the state after, what the fleet
// asked of the interpreter for backend i, and the reservations it made.
type step struct {
	ev   event
	next fleetState
	a    act
	i    int
	land []landing
}

// successors applies every event enabled in s, on w.
func successors(v variant, w *world, s fleetState) []step {
	var out []step
	emit := func(ev event, i int, apply func() (act, []landing)) {
		w.load(s)
		a, land := apply()
		if !a.arm.IsZero() {
			w.armed[i] = a.arm // the interpreter resets the timer
		}
		if a.settled {
			w.waiting = false
		}
		out = append(out, step{ev, w.state(), a, i, land})
	}
	// assign reserves through the variant what place puts on the candidates.
	assign := func(place func(c []int, load []int64) []landing) (act, []landing) {
		var land []landing
		v.reserve(w.f, w.now, func(c []int, load []int64) { land = place(c, load) })
		for _, l := range land {
			w.add(token{on: int8(l.on), from: -1, n: int8(l.n), due: v.reserveDue})
		}
		if v.reserveDue {
			return act{}, nil
		}
		return act{}, land
	}
	room := s.room()
	for n := 1; n <= room; n++ {
		for k := 0; k < 2; k++ {
			emit(event{evAssign, int8(n), int8(k)}, -1, func() (act, []landing) {
				return assign(func(c []int, load []int64) []landing {
					if k >= len(c) {
						return nil
					}
					load[k] += int64(n)
					return []landing{{c[k], -1, n}}
				})
			})
		}
	}
	if room >= 2 {
		emit(event{kind: evAssignEach}, -1, func() (act, []landing) {
			return assign(func(c []int, load []int64) (land []landing) {
				for k := range c {
					load[k]++
					land = append(land, landing{c[k], -1, 1})
				}
				return land
			})
		})
	}
	for turn := 0; turn < 2 && room >= 1; turn++ {
		emit(event{evRelay, int8(turn), 0}, -1, func() (act, []landing) {
			to, a := v.pick(w.f, w.now, uint64(turn), -1, 1)
			w.add(token{on: int8(to), from: -1, n: 1, due: v.pickDue})
			if v.pickDue {
				return a, nil
			}
			return a, []landing{{to, -1, 1}}
		})
	}
	for k, t := range s.tokens {
		on, from, n := int(t.on), int(t.from), int64(t.n)
		switch {
		case t.n == 0:
			continue
		case t.due:
			emit(event{evCommit, int8(k), 0}, from, func() (act, []landing) {
				w.tokens[k].due, w.tokens[k].from = false, -1
				return w.f.commit(on, from, n), []landing{{on, from, int(n)}}
			})
			continue
		}
		emit(event{evRelease, int8(k), 0}, on, func() (act, []landing) {
			w.tokens[k] = token{}
			return w.f.release(on, n), nil
		})
		for ok := int8(0); ok < 2; ok++ {
			emit(event{evExchange + ok, int8(on), 0}, on, func() (act, []landing) {
				return w.f.exchanged(on, w.now, ok == 1), nil
			})
		}
		for turn := 0; turn < 2; turn++ {
			emit(event{evFailover, int8(k), int8(turn)}, on, func() (act, []landing) {
				to, a := v.pick(w.f, w.now, uint64(turn), on, n)
				switch {
				case to == on:
					return a, nil
				case v.pickDue:
					w.tokens[k] = token{on: int8(to), from: int8(on), n: t.n, due: true}
					return a, nil
				}
				w.tokens[k].on = int8(to)
				return a, []landing{{to, on, int(n)}}
			})
		}
	}
	for i, m := range s.ms {
		if s.armed[i] >= 0 {
			emit(event{evTimer, int8(i), 0}, i, func() (act, []landing) {
				w.now, w.armed[i] = w.armed[i], time.Time{}
				return v.windowEnded(w.f, i, w.now), nil
			})
		}
		for ok := int8(0); ok < 2 && m.probing; ok++ {
			emit(event{evProbed + ok, int8(i), 0}, i, func() (act, []landing) {
				return w.f.probed(i, w.now, ok == 1), nil
			})
		}
		for on := int8(0); on < 2; on++ {
			emit(event{evDrain + on, int8(i), 0}, i, func() (act, []landing) {
				return w.f.setDrain(i, on == 1), nil
			})
		}
	}
	if s.armed[0] > 0 || s.armed[1] > 0 || s.ms[0].until > 0 || s.ms[1].until > 0 {
		emit(event{kind: evTick}, -1, func() (act, []landing) {
			w.now = w.now.Add(half)
			return act{}, nil
		})
	}
	if !s.closed {
		emit(event{kind: evClose}, -1, func() (act, []landing) {
			w.waiting = w.f.close()
			return act{}, nil
		})
	}
	return out
}

// check reports what a step breaks: nothing starts after close; no probe of
// a backend that drains; a drain is counted once, and a pool released only
// with nothing on it; settled comes only to a waiting close; and a
// reservation lands on a draining backend only when every backend drains,
// and inside an ejection window only when no other backend is routable.
func check(pre fleetState, st step) error {
	post, a := st.next, st.a
	if pre.closed && (!a.arm.IsZero() || a.probe) {
		return fmt.Errorf("%+v started after close", a)
	}
	if a.probe && pre.ms[st.i].drain != serving {
		return fmt.Errorf("probe of a backend whose drain is %d", pre.ms[st.i].drain)
	}
	if a.counted && (pre.ms[st.i].drain == drained || post.ms[st.i].drain != drained) {
		return fmt.Errorf("drain counted going %d -> %d", pre.ms[st.i].drain, post.ms[st.i].drain)
	}
	if a.closeIdle {
		if m := post.ms[st.i]; m.drain != drained || m.reserved != 0 || m.probing {
			return fmt.Errorf("idle pool released with work on it: %+v", m)
		}
	}
	if a.settled && !pre.waiting {
		return fmt.Errorf("settled with no close waiting")
	}
	for _, l := range st.land {
		serves, routable := false, false
		for j, m := range pre.ms {
			if j != l.skip && m.drain == serving {
				serves, routable = true, routable || m.until <= 0
			}
		}
		m := pre.ms[l.on]
		if m.drain != serving && (serves || l.skip >= 0) {
			return fmt.Errorf("reservation landed on backend %d whose drain is %d", l.on, m.drain)
		}
		if m.until > 0 && routable {
			return fmt.Errorf("reservation landed on backend %d inside its ejection window", l.on)
		}
	}
	return nil
}

// invariants are what every reachable state holds: each backend's reserved
// count is what its reservations hold, so never negative; a pending drain
// waits for something; no drained backend is probed; an ejected backend has
// its window timer armed; and Close waits exactly while a probe runs.
func invariants(s fleetState) error {
	var want [2]int8
	for _, t := range s.tokens {
		switch {
		case t.n == 0:
		case !t.due:
			want[t.on] += t.n
		case t.from >= 0:
			want[t.from] += t.n
		}
	}
	probing := false
	for i, m := range s.ms {
		switch {
		case m.reserved != want[i]:
			return fmt.Errorf("backend %d has %d reserved, its reservations hold %d", i, m.reserved, want[i])
		case m.drain == draining && m.reserved == 0 && !m.probing:
			return fmt.Errorf("backend %d drains with nothing left to wait for", i)
		case m.probing && m.drain == drained:
			return fmt.Errorf("backend %d is probed after its drain completed", i)
		case !s.closed && m.until > 0 && s.armed[i] < 0:
			return fmt.Errorf("backend %d is ejected with no window timer armed", i)
		}
		probing = probing || m.probing
	}
	if s.waiting != (s.closed && probing) {
		return fmt.Errorf("close waiting %v with a probe running %v", s.waiting, probing)
	}
	return nil
}

// explore visits, breadth first, every state reachable from a fresh
// two-member fleet, and returns how many there are, or the first broken
// rule with the events that lead to it.
func explore(v variant) (int, error) {
	type node struct {
		s      fleetState
		parent int32
		ev     event
	}
	start := fleetState{armed: [2]int8{-1, -1}}
	for i := range start.ms {
		start.ms[i].until = -1
	}
	nodes := []node{{start, -1, event{}}}
	seen := map[fleetState]bool{start: true}
	w := &world{f: testFleet(2)}
	for k := 0; k < len(nodes); k++ {
		pre := nodes[k].s
		for _, st := range successors(v, w, pre) {
			err := check(pre, st)
			if err == nil {
				err = invariants(st.next)
			}
			if err != nil {
				path := []string{st.ev.String()}
				for j := k; j > 0; j = int(nodes[j].parent) {
					path = append(path, nodes[j].ev.String())
				}
				slices.Reverse(path)
				return len(seen), fmt.Errorf("%v\n  after: %s", err, strings.Join(path, "; "))
			}
			if !seen[st.next] {
				seen[st.next] = true
				nodes = append(nodes, node{st.next, int32(k), st.ev})
			}
		}
	}
	return len(seen), nil
}

// TestFleetExhaustive checks every state a two-member fleet can reach, with
// up to three entries reserved and a failure threshold of two, against the
// lifecycle's invariants, and requires the check to find each of four
// mutations: a reservation made at dispatch rather than at assignment, a
// probe started after close, a forward's choice and reservation in two
// steps, and a probe of a draining backend.
func TestFleetExhaustive(t *testing.T) {
	start := time.Now()
	n, err := explore(fleetEvents)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states in %v", n, time.Since(start))

	for _, m := range fleetMutants() {
		if _, err := explore(m.v); err == nil {
			t.Errorf("%s: the check found nothing", m.name)
		} else {
			t.Logf("%s: %v", m.name, err)
		}
	}
}

type mutant struct {
	name string
	v    variant
}

// fleetMutants are copies of the fleet's events, each with one bug.
func fleetMutants() []mutant {
	reserveAtDispatch := fleetEvents
	reserveAtDispatch.reserveDue = true
	reserveAtDispatch.reserve = func(f *fleet, now time.Time, place func([]int, []int64)) {
		f.mu.Lock()
		defer f.mu.Unlock()
		c := f.routable(now, -1)
		load := make([]int64, len(c))
		place(c, load) // chosen; reserved by commit, when the shard is sent
	}

	probeAfterClose := fleetEvents
	probeAfterClose.windowEnded = func(f *fleet, i int, now time.Time) (a act) {
		f.mu.Lock()
		defer f.mu.Unlock()
		switch m := &f.ms[i]; {
		case m.until.IsZero() || m.probing: // no check of f.closed
		case now.Before(m.until):
			a.arm = m.until
		case m.drain == serving:
			m.probing, a.probe = true, true
		}
		return a
	}

	checkThenReserve := fleetEvents
	checkThenReserve.pickDue = true
	checkThenReserve.pick = func(f *fleet, now time.Time, turn uint64, from int, n int64) (int, act) {
		f.mu.Lock()
		defer f.mu.Unlock()
		c := f.routable(now, from)
		if len(c) == 0 {
			return from, act{}
		}
		return c[turn%uint64(len(c))], act{} // reserved by commit, a step later
	}

	probeDraining := fleetEvents
	probeDraining.windowEnded = func(f *fleet, i int, now time.Time) (a act) {
		f.mu.Lock()
		defer f.mu.Unlock()
		switch m := &f.ms[i]; {
		case f.closed || m.until.IsZero() || m.probing:
		case now.Before(m.until):
			a.arm = m.until
		default: // no check of m.drain
			m.probing, a.probe = true, true
		}
		return a
	}
	return []mutant{
		{"reserve at dispatch", reserveAtDispatch},
		{"probe after close", probeAfterClose},
		{"check then reserve", checkThenReserve},
		{"probe while draining", probeDraining},
	}
}
