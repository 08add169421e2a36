package httpx

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestTurnsExhaustive walks every order in which the interpreters and their
// peers can run the events of up to four exchanges at each end of one
// connection, and asserts the connection's rules at every step.

// variant is the events the mutants below change, so that the exhaustive
// check also runs on mutated copies of the machine.
type variant struct {
	join        func(*turns, *slot)
	writeBegun  func(*turns, *slot) act
	readBegun   func(*turns, bool) act
	requestRead func(*turns, bool, bool) (uint64, act)
	writeWanted func(*turns, uint64, bool) act
	shutdown    func(*turns) act
}

var turnsEvents = variant{
	join:        (*turns).join,
	writeBegun:  (*turns).writeBegun,
	readBegun:   (*turns).readBegun,
	requestRead: (*turns).requestRead,
	writeWanted: (*turns).writeWanted,
	shutdown:    (*turns).shutdown,
}

const exchanges = 4

// The client's exchanges, by what each is doing.
const (
	cOut   uint8 = iota // not on the connection: not joined, or returned
	cToken              // joined; waits for the write token (its write turn)
	cWrite              // writes its request
	cWait               // waits for the read turn
	cRead               // holds the read turn; no byte of its response yet
	cBody               // reads its response
)

// cExchange is one client exchange and what the check records of it.
type cExchange struct {
	pc     uint8
	x      slot
	may    bool // it may go again: it joined the connection with no exchange on it, was written when every response ahead had been read, and no byte of its response came back
	ended  bool // its context ended
	fired  bool // and the function context.AfterFunc runs then has run
	cut    bool // the context's end cut the write or read it is in
	asleep bool // it waits on the connection's condition variable
}

// client is one state of a pooled client connection, its exchanges and its
// wire: requests written and responses read off it.
type client struct {
	t          turns
	xs         [exchanges]cExchange // sorted, so that states differing only in which exchange is which are one
	token      bool                 // the write token (wsem) is held
	broken     bool                 // the connection is closed or the peer closed it: every read and write fails
	closed     bool                 // the client is closed, so no connection turns idle
	sent, read uint8                // requests written, responses read (or read past)
	abandoned  uint8                // bit s: the exchange of seq s gave its place up
}

// The server's goroutines, by what each is doing.
const (
	sNone   uint8 = iota // no goroutine
	sRead                // holds the read turn and begins to wait for a request
	sWait                // waits in the read for a request
	sHandle              // runs its handler
	sWant                // waits for its write turn
	sWrite               // writes its response
)

// Kinds of request the peer sends.
const (
	kKeep uint8 = iota
	kClose
	kMalformed
)

// sGoroutine is one goroutine serving the connection.
type sGoroutine struct {
	pc     uint8
	seq    uint8
	shut   bool // its response closes the connection
	keeps  bool // it kept the read turn, and reads on after its response
	idle   bool // it waits for a request with nothing buffered
	asleep bool
}

// server is one state of a server connection, its goroutines and its peer.
type server struct {
	t          turns
	gs         [exchanges]sGoroutine // sorted, empty ones last
	kinds      [exchanges]uint8      // of the requests sent
	sent, read uint8                 // requests the peer sent, and the server read
	seqs       uint8                 // places in the response order handed out
	handled    uint8                 // bit s: request s's handler ran
	wrote      uint8                 // bit s: response s was written
	armed      bool                  // ReadTimeout is armed
	broken     bool                  // the connection is closed or the peer closed it
	lossy      bool                  // a write failed or Close ran: responses owed may be lost
	shutdown   bool
	closed     bool
}

// event names a step for a report: what the n-th of who did, or what
// happened when who is empty.
type event struct {
	who  string
	n    int8
	what string
}

func (e event) String() string {
	if e.who == "" {
		return e.what
	}
	return strings.TrimSpace(fmt.Sprintf("%s %d %s", e.who, e.n, e.what))
}

// step is one event applied to a state.
type step[S comparable] struct {
	ev   event
	next S
}

// explore visits, breadth first, every state reachable from start, checking
// each step with next, and returns how many states there are, or the first
// broken rule with the events that lead to it.
func explore[S comparable](start S, next func(S) ([]step[S], error)) (int, error) {
	type node struct {
		s      S
		parent int32
		ev     event
	}
	nodes := []node{{start, -1, event{}}}
	seen := map[S]bool{start: true}
	for k := 0; k < len(nodes); k++ {
		steps, err := next(nodes[k].s)
		for _, st := range steps {
			if !seen[st.next] {
				seen[st.next] = true
				nodes = append(nodes, node{st.next, int32(k), st.ev})
			}
		}
		if err != nil {
			var path []string
			for j := k; j > 0; j = int(nodes[j].parent) {
				path = append(path, nodes[j].ev.String())
			}
			slices.Reverse(path)
			return len(seen), fmt.Errorf("%v\n  after: %s", err, strings.Join(path, "; "))
		}
	}
	return len(seen), nil
}

// clientSteps applies every event enabled in s, and reports the first rule
// a step breaks.
func clientSteps(v variant, s client) (out []step[client], err error) {
	var w client
	fail := func(ev event, format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("%v: %s", ev, fmt.Sprintf(format, args...))
		}
	}
	emit := func(ev event) {
		slices.SortFunc(w.xs[:], func(a, b cExchange) int { return cmp.Compare(a.order(), b.order()) })
		out = append(out, step[client]{ev, w})
		if e := clientInvariants(w); e != nil {
			fail(ev, "%v", e)
		}
	}
	// do carries out a, asked for x, as the interpreter does.
	do := func(ev event, x *cExchange, a act) {
		if a&aWrite != 0 && a&aSetWrite == 0 {
			fail(ev, "a request written with no deadline")
		}
		if a&aResend != 0 && !x.may {
			fail(ev, "a re-send from an exchange that may not go again, at %d", x.pc)
		}
		if a&aClose != 0 {
			w.broken = true
			if a&aWake == 0 && slices.ContainsFunc(w.xs[:], func(y cExchange) bool { return y.asleep }) {
				fail(ev, "the connection closed with a waiter left asleep")
			}
		}
		if a&aWake != 0 {
			for k := range w.xs {
				w.xs[k].asleep = false
			}
		}
	}
	// end returns x from its exchange.
	end := func(x *cExchange) { *x = cExchange{} }
	// wantRead is x's wait for the read turn, once.
	wantRead := func(ev event, x *cExchange) {
		a := w.t.readWanted(&x.x, x.ended)
		switch do(ev, x, a); {
		case a == 0:
			x.asleep = true
		case a&aRead != 0:
			if a&aSetRead == 0 {
				fail(ev, "a response read with no deadline")
			}
			for s := w.read; s < uint8(x.x.seq); s++ {
				if w.abandoned&(1<<s) == 0 {
					fail(ev, "seq %d takes the read turn with response %d, whose exchange waits for it, ahead", x.x.seq, s)
				}
			}
			if uint8(x.x.seq) < w.read {
				fail(ev, "seq %d takes the read turn after response %d was read", x.x.seq, w.read-1)
			}
			x.pc = cRead
		default:
			if a&aClose == 0 {
				w.abandoned |= 1 << x.x.seq
			}
			end(x)
		}
	}
	on := 0
	for _, x := range s.xs {
		if x.pc != cOut {
			on++
		}
	}
	for i, x0 := range s.xs {
		ev := func(what string) event { return event{"exchange", int8(x0.x.seq), what} }
		switch x0.pc {
		case cOut:
			if s.t.closed || s.closed || s.t.load() >= s.t.window || int(s.sent) >= exchanges {
				continue
			}
			w = s
			x := &w.xs[i]
			x.pc, x.may = cToken, on == 0
			v.join(&w.t, &x.x)
			emit(event{what: "an exchange joins"})
		case cToken:
			if s.t.window == 1 || !s.token {
				w = s
				x := &w.xs[i]
				if s.t.window > 1 {
					w.token = true
				}
				a := v.writeBegun(&w.t, &x.x)
				do(ev("begins its write"), x, a)
				if a&aWrite != 0 {
					x.may = x.may && w.sent == w.read
					if uint8(x.x.seq) != w.sent {
						fail(ev("begins its write"), "seq %d for request %d on the wire", x.x.seq, w.sent)
					}
					w.sent++
					x.pc = cWrite
				} else {
					w.token = false
					end(x)
				}
				emit(ev("begins its write"))
			}
			if s.t.window > 1 && x0.ended {
				w = s
				x := &w.xs[i]
				do(ev("gives up waiting to write"), x, w.t.release(!w.closed))
				end(x)
				emit(ev("gives up waiting to write"))
			}
		case cWrite:
			for ok := 0; ok < 2; ok++ {
				if ok == 1 && (s.broken || x0.cut) {
					continue
				}
				w = s
				x := &w.xs[i]
				w.t.writeEnded()
				w.token = false
				if ok == 0 {
					do(ev("fails its write"), x, w.t.failed(&x.x))
					end(x)
					emit(ev("fails its write"))
					continue
				}
				x.pc = cWait
				wantRead(ev("ends its write"), x)
				emit(ev("ends its write"))
			}
		case cWait:
			if !x0.asleep {
				w = s
				wantRead(ev("wants the read turn"), &w.xs[i])
				emit(ev("wants the read turn"))
			}
		case cRead:
			// Its first byte comes, or the read fails, or — once its
			// context has ended — its deadline passes with the
			// connection whole.
			for k, what := range []string{"reads its first byte", "fails to read", "is cut before its first byte"} {
				if k == 0 && (s.broken || x0.cut) || k == 2 && (s.broken || !x0.ended) {
					continue
				}
				w = s
				x := &w.xs[i]
				a := w.t.responseBegun(&x.x, k == 0, k == 2)
				do(ev(what), x, a)
				w.read = uint8(x.x.seq)
				switch {
				case a&aRead != 0:
					x.pc, x.may = cBody, false
				case a&aClose == 0:
					w.abandoned |= 1 << x.x.seq
					end(x)
				default:
					end(x)
				}
				emit(ev(what))
			}
		case cBody:
			for k, what := range []string{"reads its response", "reads a response that closes", "fails mid-response"} {
				if k < 2 && (s.broken || x0.cut) {
					continue
				}
				w = s
				x := &w.xs[i]
				if k == 2 {
					do(ev(what), x, w.t.failed(&x.x))
				} else {
					w.read++
					a := w.t.responseEnded(k == 1, !w.closed)
					do(ev(what), x, a)
					if k == 1 && a&aClose == 0 {
						fail(ev(what), "a response that closes left the connection open")
					}
				}
				end(x)
				emit(ev(what))
			}
		}
		if x0.pc != cOut && !x0.ended {
			w = s
			w.xs[i].ended = true
			emit(ev("ends its context"))
		}
		if x0.pc >= cWrite && x0.ended && !x0.fired {
			w = s
			x := &w.xs[i]
			x.fired = true
			a := w.t.ctxEnded(x.x.seq)
			do(ev("is interrupted"), x, a)
			x.cut = a&(aCutWrite|aCutRead) != 0
			if a&aCutWrite != 0 && x.pc != cWrite || a&aCutRead != 0 && x.pc < cRead {
				fail(ev("is interrupted"), "cut I/O it is not in")
			}
			emit(ev("is interrupted"))
		}
	}
	if !s.broken {
		w = s
		w.broken = true
		emit(event{what: "the peer closes the connection"})
	}
	if s.t.users == 0 && !s.t.closed {
		w = s
		do(event{what: "CloseIdle"}, nil, w.t.closeIdle())
		if !w.t.closed {
			fail(event{what: "CloseIdle"}, "left an idle connection open")
		}
		emit(event{what: "CloseIdle"})
	}
	if !s.closed {
		w = s
		w.closed = true
		do(event{what: "Close"}, nil, w.t.closeIdle())
		emit(event{what: "Close"})
	}
	return out, err
}

// order packs every field of x into a number to sort by.
func (x cExchange) order() uint64 {
	return uint64(x.pc)<<16 | x.x.seq<<8 | flags(x.x.resend, x.may, x.ended, x.fired, x.cut, x.asleep)
}

// order packs every field of g into a number to sort by, empty ones last.
func (g sGoroutine) order() uint64 {
	if g.pc == sNone {
		return ^uint64(0)
	}
	return uint64(g.pc)<<16 | uint64(g.seq)<<8 | flags(g.shut, g.keeps, g.idle, g.asleep)
}

func flags(bs ...bool) (n uint64) {
	for _, b := range bs {
		if n <<= 1; b {
			n |= 1
		}
	}
	return n
}

// clientInvariants are what every reachable client state holds: a
// connection left with no exchange on it and a response given up still due
// is closed, and an exchange asleep has another to wake it.
func clientInvariants(s client) error {
	on, awake, asleep := 0, 0, 0
	for _, x := range s.xs {
		switch {
		case x.pc == cOut:
			continue
		case x.asleep:
			asleep++
		default:
			awake++
		}
		on++
	}
	if on == 0 && s.sent != s.read && !s.t.closed {
		return fmt.Errorf("a connection with no exchange on it and %d responses given up still due is open", s.sent-s.read)
	}
	if asleep > 0 && awake == 0 {
		return fmt.Errorf("%d exchanges asleep with none to wake them", asleep)
	}
	return nil
}

// serverSteps applies every event enabled in s, and reports the first rule
// a step breaks.
func serverSteps(v variant, s server) (out []step[server], err error) {
	var w server
	fail := func(ev event, format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("%v: %s", ev, fmt.Sprintf(format, args...))
		}
	}
	emit := func(ev event) {
		slices.SortFunc(w.gs[:], func(a, b sGoroutine) int { return cmp.Compare(a.order(), b.order()) })
		out = append(out, step[server]{ev, w})
		if e := serverInvariants(w); e != nil {
			fail(ev, "%v", e)
		}
	}
	do := func(ev event, a act) {
		if a&aWrite != 0 && a&aSetWrite == 0 {
			fail(ev, "a response written with no deadline")
		}
		if a&aSetRead != 0 {
			w.armed = true
		}
		if a&aClearRead != 0 {
			w.armed = false
		}
		if a&aClose != 0 && a&aWrite == 0 {
			w.broken = true
			if a&aWake == 0 && slices.ContainsFunc(w.gs[:], func(g sGoroutine) bool { return g.asleep }) {
				fail(ev, "the connection closed with a writer left asleep")
			}
		}
		if a&aWake != 0 {
			for k := range w.gs {
				w.gs[k].asleep = false
			}
		}
	}
	// exit ends goroutine g.
	exit := func(ev event, g *sGoroutine) {
		*g = sGoroutine{}
		do(ev, w.t.release(false))
	}
	for i, g0 := range s.gs {
		ev := func(what string) event { return event{"goroutine", int8(i), what} }
		switch g0.pc {
		case sRead:
			w = s
			g := &w.gs[i]
			a := v.readBegun(&w.t, w.sent > w.read)
			do(ev("begins to read"), a)
			if a&aClose != 0 {
				exit(ev("begins to read"), g)
			} else {
				g.pc, g.idle = sWait, w.sent == w.read
			}
			emit(ev("begins to read"))
		case sWait:
			if s.sent > s.read && !s.broken {
				w = s
				g := &w.gs[i]
				kind := w.kinds[w.read]
				w.read++
				var seq uint64
				var a act
				if kind == kMalformed {
					seq, a = w.t.malformed(), aRead // stands for no act
				} else {
					seq, a = v.requestRead(&w.t, kind == kClose, w.sent > w.read)
				}
				do(ev("reads a request"), a)
				switch {
				case kind == kMalformed:
					*g = sGoroutine{pc: sWant, seq: w.seqs, shut: true}
					w.seqs++
				case a&aClose != 0:
					exit(ev("reads a request"), g)
				case uint8(seq) != w.seqs:
					fail(ev("reads a request"), "seq %d for request %d", seq, w.seqs)
				default:
					if kind == kClose && (a&aWatch == 0 || a&aSpawn != 0) {
						fail(ev("reads a request that closes"), "act %b: its peer is not watched, or the read turn is handed on", a)
					}
					*g = sGoroutine{pc: sHandle, seq: w.seqs, shut: kind == kClose, keeps: a&aSpawn == 0}
					w.handled |= 1 << w.seqs
					w.seqs++
					if a&aSpawn != 0 {
						k := slices.IndexFunc(w.gs[:], func(g sGoroutine) bool { return g.pc == sNone })
						if k < 0 {
							fail(ev("reads a request"), "more goroutines than the window")
							break
						}
						w.gs[k] = sGoroutine{pc: sRead}
					}
				}
				emit(ev("reads a request"))
			}
			w = s
			w.t.peerGone()
			exit(ev("fails to read"), &w.gs[i])
			emit(ev("fails to read"))
		case sHandle:
			w = s
			w.gs[i].pc = sWant
			emit(ev("returns from its handler"))
		case sWant:
			if g0.asleep {
				continue
			}
			w = s
			g := &w.gs[i]
			a := v.writeWanted(&w.t, uint64(g.seq), g.shut)
			do(ev("wants the write turn"), a)
			switch {
			case a == 0:
				g.asleep = true
			case a&aWrite != 0:
				if w.wrote&(1<<g.seq) != 0 {
					fail(ev("wants the write turn"), "response %d is written again", g.seq)
				}
				if w.wrote != 1<<g.seq-1 {
					fail(ev("wants the write turn"), "response %d is written with %b written", g.seq, w.wrote)
				}
				g.pc, g.shut = sWrite, a&aClose != 0
			default:
				if w.handled&(1<<g.seq) != 0 && !w.lossy {
					fail(ev("wants the write turn"), "response %d, whose handler ran, is dropped", g.seq)
				}
				exit(ev("wants the write turn"), g)
			}
			emit(ev("wants the write turn"))
		case sWrite:
			for ok := 0; ok < 2; ok++ {
				if ok == 1 && s.broken {
					continue
				}
				w = s
				g := &w.gs[i]
				a := w.t.written(ok == 1)
				if ok == 1 {
					w.wrote |= 1 << g.seq
				} else {
					w.lossy = true
				}
				do(ev("ends its write"), a)
				if open := !g.shut && a&aClose == 0; open && g.keeps {
					*g = sGoroutine{pc: sRead}
				} else {
					if !open {
						w.broken = true
					}
					exit(ev("ends its write"), g)
				}
				emit(ev("ends its write"))
			}
		}
	}
	last := uint8(kKeep)
	if s.sent > 0 {
		last = s.kinds[s.sent-1]
	}
	for kind := kKeep; kind <= kMalformed && !s.broken && last == kKeep && int(s.sent) < exchanges; kind++ {
		w = s
		w.kinds[w.sent] = kind
		w.sent++
		emit(event{"the peer sends a request of kind", int8(kind), ""})
	}
	if !s.broken {
		w = s
		w.broken = true
		emit(event{what: "the peer closes the connection"})
	}
	if !s.shutdown {
		w = s
		w.shutdown = true
		a := v.shutdown(&w.t)
		if owed := w.handled &^ w.wrote; a&aClose != 0 && owed != 0 {
			fail(event{what: "Shutdown"}, "closed a connection that owes %b", owed)
		}
		do(event{what: "Shutdown"}, a)
		emit(event{what: "Shutdown"})
	}
	if !s.closed {
		w = s
		w.closed, w.lossy = true, true
		do(event{what: "Close"}, w.t.close())
		emit(event{what: "Close"})
	}
	return out, err
}

// serverInvariants are what every reachable server state holds: ReadTimeout
// is armed for a waiting reader exactly when no response is owed; a drain
// leaves no connection open whose reader waits with nothing owed or
// buffered; a goroutine asleep has another to wake it; and the connection's
// last goroutine leaves no response owed behind unless responses could be
// lost.
func serverInvariants(s server) error {
	owed := s.seqs - uint8(popcount(s.wrote))
	live, busy, asleep := 0, 0, 0
	for _, g := range s.gs {
		switch {
		case g.pc == sNone:
			continue
		case g.asleep:
			asleep++
		case g.pc == sWait: // it waits on the peer
			if s.armed != (owed == 0) && !s.broken {
				return fmt.Errorf("ReadTimeout armed %v for a reader with %d responses owed", s.armed, owed)
			}
			if s.shutdown && g.idle && owed == 0 && !s.broken {
				return fmt.Errorf("a drain left a connection open whose reader waits with nothing owed")
			}
		default:
			busy++
		}
		live++
	}
	if asleep > 0 && busy == 0 {
		return fmt.Errorf("%d goroutines asleep with none to wake them", asleep)
	}
	if live == 0 && s.handled&^s.wrote != 0 && !s.lossy {
		return fmt.Errorf("the connection closed with responses %b owed", s.handled&^s.wrote)
	}
	return nil
}

func popcount(b uint8) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// check explores both ends at windows 1 and 4, the smaller server first.
func check(v variant) (int, error) {
	total := 0
	for _, window := range []int{1, exchanges} {
		start := server{t: turns{window: window, users: 1}}
		start.gs[0].pc = sRead
		n, err := explore(start, func(s server) ([]step[server], error) { return serverSteps(v, s) })
		if total += n; err != nil {
			return total, fmt.Errorf("server at window %d: %w", window, err)
		}
	}
	for _, window := range []int{1, exchanges} {
		n, err := explore(client{t: turns{window: window}}, func(s client) ([]step[client], error) { return clientSteps(v, s) })
		if total += n; err != nil {
			return total, fmt.Errorf("client at window %d: %w", window, err)
		}
	}
	return total, nil
}

// TestTurnsExhaustive checks every state that one connection's turns reach
// with up to four exchanges at each end, at windows 1 and 4, and requires the
// check to find each of six mutations.
func TestTurnsExhaustive(t *testing.T) {
	start := time.Now()
	n, err := check(turnsEvents)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states in %v", n, time.Since(start))
	for _, m := range turnsMutants() {
		if _, err := check(m.v); err == nil {
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

// turnsMutants are copies of the machine's events, each with one bug.
func turnsMutants() []mutant {
	noWriteDeadline := turnsEvents
	noWriteDeadline.writeBegun = func(t *turns, x *slot) act {
		a := t.writeBegun(x)
		if t.window > 1 {
			a &^= aSetWrite // the pipelined writer sets none
		}
		return a
	}

	drainLoses := turnsEvents
	drainLoses.writeWanted = func(t *turns, seq uint64, shut bool) act {
		if !t.closed && seq == t.done && t.draining {
			t.closed = true // the first response of a drain closes the connection
			return aWrite | aSetWrite | aClose
		}
		return t.writeWanted(seq, shut)
	}

	readTimeoutOwed := turnsEvents
	readTimeoutOwed.readBegun = func(t *turns, buffered bool) act {
		if a := t.readBegun(buffered); a&aClearRead != 0 {
			return a&^aClearRead | aSetRead // armed with responses owed
		} else {
			return a
		}
	}

	closeUnwatched := turnsEvents
	closeUnwatched.requestRead = func(t *turns, shut, buffered bool) (uint64, act) {
		return t.requestRead(false, buffered) // a closing request is read as any other
	}

	busyResend := turnsEvents
	busyResend.join = func(t *turns, x *slot) {
		t.join(x)
		x.resend = true // whether or not the connection was idle
	}

	drainLeavesIdle := turnsEvents
	drainLeavesIdle.shutdown = func(t *turns) act {
		t.draining = true // and nothing is closed
		return 0
	}
	return []mutant{
		{"pipelined writer with no deadline", noWriteDeadline},
		{"a drain that loses responses", drainLoses},
		{"ReadTimeout set with responses owed", readTimeoutOwed},
		{"a closing request that does not watch its peer", closeUnwatched},
		{"a re-send from a busy join", busyResend},
		{"a shutdown that leaves idle connections open", drainLeavesIdle},
	}
}
