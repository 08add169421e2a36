package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/soap"
)

// TestDispatchExhaustive walks every order in which the interpreter's
// goroutines — the protocol goroutine reading, verifying and draining one
// message, and the application stage's workers — and the request's context
// can run the events of one dispatch, and asserts the dispatcher's rules at
// every step. A single call is the run of one held slot.

// dcase is one message and the server it reaches.
type dcase struct {
	name     string
	n        int      // entries
	refused  int      // the entry refused as it is read; -1 for none
	deps     [][2]int // plan links: step [0] reads step [1]
	hold     bool     // signed, a plan, or a single call
	here     bool     // a Coupled server, or an Admin call
	waits    bool     // the request has a deadline, so a submit waits for queue space
	capacity int      // the stage's queue
	workers  int
	reject   bool // the document may fault whole once read
	failable bool // a write may fail
}

// Protocol goroutine program counters.
const (
	pcRead   uint8 = iota // read entry k
	pcFinish              // the document is read: verify it, or fault it whole
	pcBegin               // begin held slot k
	pcDrain               // ask what to write
	pcWrite               // write slot ws
	pcWait                // wait for an answer or the context's end
	pcDone                // answered every slot
	pcWhole               // answered with one fault
)

// What a goroutine is doing.
const (
	gIdle   uint8 = iota // begins the next slot on its list, or (a worker) takes a task
	gSubmit              // hands slot to the stage
	gStart               // is about to run slot
	gExec                // runs slot
)

// gor is one goroutine: the protocol goroutine or a worker.
type gor struct {
	cur  uint8
	slot int8
	wake bool   // slot was begun woken
	todo []int8 // slots to begin, last first; a woken one has bit 6 set
}

// world is one state of the message, its goroutines and its stage.
type world struct {
	m       dispatch
	pc      uint8
	k       int8
	ws      int8
	gs      []gor // [0] the protocol goroutine
	queue   []int8
	wake    bool // the drain's wake-up is pending
	ended   bool // the request's context ended
	runs    []uint8
	counted []bool // a refusal was counted for the slot
	writes  []uint8
	fills   []int8 // slots in the order they were answered
}

func (w *world) clone() world {
	c := *w
	c.m.slots = slices.Clone(w.m.slots)
	c.m.wait = slices.Clone(w.m.wait)
	if w.m.next != nil {
		c.m.next = make([][]int32, len(w.m.next))
		for i, nx := range w.m.next {
			c.m.next[i] = slices.Clone(nx)
		}
	}
	c.gs = slices.Clone(w.gs)
	for i := range c.gs {
		c.gs[i].todo = slices.Clone(w.gs[i].todo)
	}
	c.queue = slices.Clone(w.queue)
	c.runs = slices.Clone(w.runs)
	c.counted = slices.Clone(w.counted)
	c.writes = slices.Clone(w.writes)
	c.fills = slices.Clone(w.fills)
	return c
}

// key is w, for the set of states seen.
func (w *world) key() string {
	m := &w.m
	b := make([]byte, 0, 128)
	b = append(b, byte(m.filled), byte(m.written), flagBits(m.verified, m.ended, m.rejected, w.wake, w.ended), w.pc, byte(w.k), byte(w.ws))
	for i, s := range m.slots {
		b = append(b, s.phase, s.how, flagBits(s.woken), byte(s.order))
		if m.next != nil {
			b = append(b, byte(m.wait[i]))
			for _, j := range m.next[i] {
				b = append(b, byte(j))
			}
			b = append(b, 0xff)
		}
	}
	for _, g := range w.gs {
		b = append(b, 0xfe, g.cur, byte(g.slot), flagBits(g.wake))
		for _, t := range g.todo {
			b = append(b, byte(t))
		}
	}
	b = append(b, 0xfd)
	for _, q := range w.queue {
		b = append(b, byte(q))
	}
	b = append(b, 0xfd)
	for i := range w.runs {
		b = append(b, w.runs[i], flagBits(w.counted[i]), w.writes[i])
	}
	for _, f := range w.fills {
		b = append(b, byte(f))
	}
	return string(b)
}

// flagBits packs bs into one byte.
func flagBits(bs ...bool) (n byte) {
	for i, b := range bs {
		if b {
			n |= 1 << i
		}
	}
	return n
}

// devent names a step for a report: who did what to which slot (-1: none).
type devent struct {
	who, what string
	slot      int
}

func (e devent) String() string {
	if e.slot < 0 {
		return e.who + " " + e.what
	}
	return fmt.Sprintf("%s %s %d", e.who, e.what, e.slot)
}

// dstep is one event applied to a state.
type dstep struct {
	what devent
	next world
}

// exploreDispatch visits, breadth first, every state reachable in c,
// checking each step, and returns how many states there are, or the first
// broken rule with the events that lead to it.
func exploreDispatch(c dcase) (int, error) {
	start := world{k: 0, gs: make([]gor, 1+c.workers), runs: make([]uint8, c.n), counted: make([]bool, c.n), writes: make([]uint8, c.n)}
	start.m.hold, start.m.here = c.hold, c.here
	if len(c.deps) > 0 {
		start.m.next = [][]int32{}
	}
	type node struct {
		w      world
		parent int32
		what   devent
	}
	nodes := []node{{start, -1, devent{}}}
	seen := map[string]bool{start.key(): true}
	for k := 0; k < len(nodes); k++ {
		steps, err := func() (steps []dstep, err error) {
			defer func() {
				if p := recover(); p != nil { // a machine that answers a slot twice overruns its fill order
					err = fmt.Errorf("the machine panicked: %v", p)
				}
			}()
			return dispatchSteps(c, &nodes[k].w)
		}()
		for _, st := range steps {
			if key := st.next.key(); !seen[key] {
				seen[key] = true
				nodes = append(nodes, node{st.next, int32(k), st.what})
			}
		}
		if err != nil {
			var path []string
			for j := k; j > 0; j = int(nodes[j].parent) {
				path = append(path, nodes[j].what.String())
			}
			slices.Reverse(path)
			return len(seen), fmt.Errorf("%s: %v\n  after: %s", c.name, err, strings.Join(path, "; "))
		}
	}
	return len(seen), nil
}

// dispatchSteps applies every event enabled in s, as the interpreter
// carries it out, and reports the first rule a step breaks.
func dispatchSteps(c dcase, s *world) (out []dstep, err error) {
	fail := func(what devent, format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("%v: %s", what, fmt.Sprintf(format, args...))
		}
	}
	var w world
	// emit records w as the state after what, and checks what the step
	// changed.
	emit := func(what devent) {
		for i := range w.m.slots {
			var b uint8
			if i < len(s.m.slots) {
				b = s.m.slots[i].how
			}
			if a := w.m.slots[i].how; b != 0 && a != b {
				fail(what, "slot %d answered twice (how %d, then %d)", i, b, a)
			}
			if a := w.m.slots[i].how; b == 0 && a == fAdmit && !w.counted[i] {
				fail(what, "slot %d answered with a refusal that was not counted", i)
			}
		}
		for k := s.m.filled; k < w.m.filled; k++ {
			w.fills = append(w.fills, int8(w.m.slots[k].order))
		}
		n := 0
		for i := range w.m.slots {
			if w.m.slots[i].how != 0 {
				n++
			}
		}
		if n != w.m.filled || len(w.fills) != n {
			fail(what, "%d slots answered, the machine counts %d, the fill order has %d", n, w.m.filled, len(w.fills))
		}
		out = append(out, dstep{what, w})
	}
	// acts carries out the acts a slot's event returned on goroutine g.
	acts := func(what devent, g int, i int, a dact) {
		if a&aFill != 0 {
			w.wake = true
		}
		gr := &w.gs[g]
		switch {
		case a&aSubmit != 0 && a&aHere != 0:
			fail(what, "slot %d both handed to the stage and run here", i)
		case a&aSubmit != 0:
			gr.cur, gr.slot = gSubmit, int8(i)
		case a&aHere != 0:
			gr.cur, gr.slot = gStart, int8(i)
		}
	}
	// release puts the steps slot i's answer may release on g's list, the
	// first read first.
	release := func(g, i int) {
		if w.m.next == nil {
			return
		}
		nx := w.m.next[i]
		for k := len(nx) - 1; k >= 0; k-- {
			w.gs[g].todo = append(w.gs[g].todo, int8(nx[k])|0x40)
		}
	}

	enabled := 0 // steps other than the context's end
	for g := range s.gs {
		gr := &s.gs[g]
		who := "worker"
		if g == 0 {
			who = "protocol"
		}
		switch gr.cur {
		case gIdle:
			switch {
			case len(gr.todo) > 0:
				w = s.clone()
				t := w.gs[g].todo[len(gr.todo)-1]
				w.gs[g].todo = w.gs[g].todo[:len(gr.todo)-1]
				i, woken := int(t&0x3f), t&0x40 != 0
				what := devent{who, "begins", i}
				w.gs[g].wake = woken
				acts(what, g, i, w.m.begin(i, woken))
				emit(what)
				enabled++
			case g > 0 && len(s.queue) > 0:
				w = s.clone()
				i := w.queue[0]
				w.queue = w.queue[1:]
				w.gs[g].cur, w.gs[g].slot, w.gs[g].wake = gStart, i, true
				emit(devent{who, "takes", int(i)})
				enabled++
			}
		case gSubmit:
			i := int(gr.slot)
			if len(s.queue) < c.capacity {
				w = s.clone()
				w.queue = append(w.queue, int8(i))
				w.gs[g].cur = gIdle
				emit(devent{who, "submits", i})
				enabled++
				break
			}
			waits := c.waits && !gr.wake
			if waits && !s.ended {
				break // it waits for queue space, or for the deadline
			}
			w = s.clone()
			what := devent{who, "finds the queue full for", i}
			if waits {
				what = devent{who, "ends with the request its wait to submit", i}
			}
			w.gs[g].cur = gIdle
			a := w.m.refused(i, !waits)
			if a&aFill != 0 {
				w.counted[i] = true
				if w.m.slots[i].how != fAdmit {
					fail(what, "slot %d: a refusal counted, but the slot answered as %d", i, w.m.slots[i].how)
				}
			}
			if a&aHere == 0 {
				release(g, i)
			}
			acts(what, g, i, a)
			emit(what)
			enabled++
		case gStart:
			i := int(gr.slot)
			w = s.clone()
			what := devent{who, "starts", i}
			a := w.m.started(i, s.ended)
			w.gs[g].cur = gIdle
			if a&aRun != 0 {
				w.gs[g].cur = gExec
				if w.runs[i]++; w.runs[i] > 1 {
					fail(what, "slot %d ran twice", i)
				}
				switch {
				case s.m.hold && !s.m.verified:
					fail(what, "slot %d ran before the document was verified", i)
				case s.ended || s.m.rejected:
					fail(what, "slot %d ran after the request ended or the message faulted whole", i)
				case w.m.slots[i].how != 0:
					fail(what, "slot %d ran once it was answered", i)
				}
				for _, d := range c.deps {
					if d[0] == i && w.m.slots[d[1]].how != fResult {
						fail(what, "step %d ran before its input %d had its result (answered %d)", i, d[1], w.m.slots[d[1]].how)
					}
				}
			}
			acts(what, g, i, a)
			emit(what)
			enabled++
		case gExec:
			i := int(gr.slot)
			w = s.clone()
			what := devent{who, "returns from", i}
			a := w.m.done(i, fResult)
			w.gs[g].cur = gIdle
			if (a&aFill != 0) != (s.m.slots[i].how == 0) || a&aFill != 0 && w.m.slots[i].how != fResult {
				fail(what, "slot %d: result act %b, answered %d before and %d after", i, a, s.m.slots[i].how, w.m.slots[i].how)
			}
			release(g, i)
			acts(what, g, i, a)
			emit(what)
			enabled++
		}
	}

	// The protocol goroutine's own program, once its list is done.
	if pg := &s.gs[0]; pg.cur == gIdle && len(pg.todo) == 0 {
		switch s.pc {
		case pcRead:
			w = s.clone()
			var f *soap.Fault
			req := &rpcRequest{id: int(s.k)}
			if int(s.k) == c.refused {
				req, f = nil, &soap.Fault{}
			}
			w.m.add(req, f)
			i := len(w.m.slots) - 1
			w.gs[0].todo = append(w.gs[0].todo, int8(i))
			if w.k++; int(w.k) == c.n {
				w.pc = pcFinish
			}
			emit(devent{"protocol", "reads", i})
			enabled++
		case pcFinish:
			if c.reject {
				w = s.clone()
				w.m.verify(false)
				w.pc = pcWhole
				emit(devent{"the document", "faults whole", -1})
			}
			w = s.clone()
			for _, d := range c.deps { // as linkPlan links them
				w.m.next[d[1]] = append(w.m.next[d[1]], int32(d[0]))
				w.m.wait[d[0]]++
			}
			w.m.verify(true)
			w.pc, w.k = pcBegin, 0
			emit(devent{"the document", "is verified", -1})
			enabled++
		case pcBegin:
			w = s.clone()
			w.gs[0].todo = append(w.gs[0].todo, w.k)
			if w.k++; int(w.k) == c.n {
				w.pc = pcDrain
			}
			emit(devent{"protocol", "offers", int(w.k - 1)})
			enabled++
		case pcDrain, pcWrite:
			for _, ok := range []bool{true, false} {
				if s.pc == pcDrain && !ok || !ok && !c.failable {
					continue
				}
				w = s.clone()
				what := devent{"protocol", "asks what to write", -1}
				if s.pc == pcWrite {
					what = devent{"protocol", "wrote", int(s.ws)}
					if !ok {
						what = devent{"protocol", "failed to write", int(s.ws)}
					}
					i := int(s.ws)
					if w.writes[i]++; w.writes[i] > 1 {
						fail(what, "slot %d written twice", i)
					}
					switch n := int(s.m.written); {
					case s.m.slots[i].how == 0:
						fail(what, "slot %d written before it was answered", i)
					case n >= len(s.fills) || int(s.fills[n]) != i:
						fail(what, "slot %d written %d-th, the answers came in order %v", i, n, s.fills)
					}
					w.m.wrote(ok)
					if !ok {
						w.pc = pcWhole
						emit(what)
						continue
					}
				}
				i, a := w.m.writable()
				switch {
				case a&aWrite != 0:
					w.pc, w.ws = pcWrite, int8(i)
				case a&aDone != 0:
					w.pc = pcDone
				default:
					w.pc = pcWait
				}
				emit(what)
			}
			enabled++
		case pcWait:
			if s.wake {
				w = s.clone()
				w.wake = false
				w.pc = pcDrain
				emit(devent{"protocol", "wakes", -1})
				enabled++
			}
			if s.ended {
				w = s.clone()
				a := w.m.end()
				acts(devent{"protocol", "ends the request", -1}, 0, 0, a)
				w.pc = pcDrain
				emit(devent{"protocol", "ends the request", -1})
				enabled++
			}
		}
	}

	if !s.ended && s.pc != pcDone && s.pc != pcWhole {
		w = s.clone()
		w.ended = true
		emit(devent{"the request's context", "ends", -1})
	}
	if enabled == 0 && s.pc != pcWhole && (s.pc != pcDone || len(s.queue) > 0) {
		fail(devent{"nothing", "can move", -1}, "no goroutine can move, at pc %d, %d of %d answered, %d written", s.pc, s.m.filled, c.n, s.m.written)
	}
	if s.pc == pcDone {
		for i, n := range s.writes {
			if n != 1 {
				fail(devent{"the drain", "is done", -1}, "slot %d written %d times", i, n)
			}
		}
	}
	return out, err
}

// dispatchCases are the messages the check explores: a pack of four with one
// entry refused as it is read, held and not; a plan of four steps, one a
// two-step chain, held as every plan is; a single call staged and run here;
// and the Coupled server's pack and plan — each at queue capacities 1 and 2,
// with and without a deadline for a submit to wait until, on a stage of two
// workers. Under the race detector, which slows the walk sixfold, the stage
// has one worker, which leaves out the orders in which two runs overlap.
func dispatchCases() []dcase {
	workers := 2
	if raceEnabled {
		workers = 1
	}
	var cs []dcase
	for _, capacity := range []int{1, 2} {
		for _, waits := range []bool{false, true} {
			name := fmt.Sprintf("cap%d/waits=%t/", capacity, waits)
			base := dcase{refused: -1, waits: waits, capacity: capacity, workers: workers}
			pack := base
			pack.name, pack.n, pack.refused, pack.reject, pack.failable = name+"pack", 4, 2, true, true
			held := pack
			held.name, held.hold = name+"held pack", true
			plan := base
			plan.name, plan.n, plan.hold, plan.deps, plan.reject = name+"plan", 4, true, [][2]int{{1, 0}}, true
			single := base
			single.name, single.n, single.hold, single.failable = name+"single", 1, true, true
			admin := single
			admin.name, admin.here = name+"single here", true
			cs = append(cs, pack, held, plan, single, admin)
		}
	}
	coupled := dcase{name: "coupled pack", n: 4, refused: 1, here: true, reject: true}
	coupledPlan := dcase{name: "coupled plan", n: 4, refused: -1, here: true, hold: true, deps: [][2]int{{1, 0}, {3, 1}}}
	return append(cs, coupled, coupledPlan)
}

func TestDispatchExhaustive(t *testing.T) {
	start := time.Now()
	total := 0
	for _, c := range dispatchCases() {
		n, err := exploreDispatch(c)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		t.Logf("%s: %d states", c.name, n)
	}
	t.Logf("%d states in %v", total, time.Since(start))
}
