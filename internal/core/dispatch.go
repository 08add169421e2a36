package core

import "repro/internal/soap"

// dispatch is the bookkeeping of one message's dispatcher and assembler
// (PAPER.md §1, techniques 1 and 3) as one machine, for a Parallel_Method, an
// Execution_Plan and a single call (a run of one held slot) alike, and for the
// gateway's gather. It holds plain fields under its interpreter's lock
// (answers.mu) and does no I/O: each method is an event that returns an act
// for the interpreter, stream.go, to carry out.
type dispatch struct {
	slots    []dslot
	next     [][]int32 // plan: by slot, the steps that read it, linked before it is verified; nil for a pack
	wait     []int32   // plan: by slot, the inputs not yet answered
	filled   int       // slots answered; slots[k].order is the one answered k-th
	written  int       // answered slots written, in the order they were answered
	hold     bool      // nothing starts before verified: signed messages, plans, single calls
	here     bool      // every slot runs on the goroutine that begins it: a Coupled server, or an Admin call
	verified bool      // the document is whole and its headers passed
	ended    bool      // the request's deadline passed or its caller went away
	rejected bool      // the message faulted whole, or its response failed to write
}

// dslot is one entry: how far its run got, and its answer.
type dslot struct {
	phase uint8
	how   uint8 // how it was answered; 0 while it is open
	woken bool  // begun by the worker whose result released it: it never waits for queue space
	order int32
	req   *rpcRequest // nil when the entry was refused, and in the gateway's gather
	res   *rpcResult  // the answer, stored by the interpreter on aFill; a refused entry's from the start
}

// Phases of a slot's run.
const (
	pNew     uint8 = iota // read; not begun
	pRefused              // refused as it was read; not answered yet
	pQueued               // begun: handed to the stage, or to run here
	pDone                 // ran, or never will
)

// How a slot was answered.
const (
	fResult   uint8 = iota + 1 // by its run's result
	fRefused                   // by the fault its entry was read with
	fAdmit                     // by the stage's refusal of its task
	fDegraded                  // by the end of the request, first
)

// dact is what a dispatch event asks of its interpreter.
type dact uint8

const (
	aSubmit dact = 1 << iota // hand the slot's run to the application stage
	aHere                    // run the slot on this goroutine
	aRun                     // run it now
	aFill                    // the slot was answered: store its answer, wake the drain
	aWrite                   // write the slot named
	aDone                    // every slot is written
)

// add: the protocol goroutine read the next entry, decoded into req or
// refused with the fault f. Its slot is the next one.
func (d *dispatch) add(req *rpcRequest, f *soap.Fault) {
	s := dslot{req: req}
	if f != nil {
		s.phase, s.res = pRefused, &rpcResult{id: len(d.slots), fault: f}
	}
	d.slots = append(d.slots, s)
	if d.next != nil {
		d.next, d.wait = append(d.next, nil), append(d.wait, 0)
	}
}

// verify: the document is whole and its headers passed; or, not ok, the
// message is answered with one fault and nothing more starts.
func (d *dispatch) verify(ok bool) { d.verified, d.rejected = ok, !ok }

// begin: slot i may start. The protocol goroutine offers each entry as it is
// read and again, in slot order, once verified; a worker offers the steps its
// result released (woken). A refused entry is answered with its fault, one
// begun after the request ended is degraded, and any other starts, here or on
// the stage, once verified where it must be and with its inputs answered.
func (d *dispatch) begin(i int, woken bool) dact {
	s := &d.slots[i]
	switch {
	case s.how != 0 || s.phase > pRefused || d.rejected || d.next != nil && d.wait[i] > 0 || d.hold && !d.verified:
		return 0
	case s.phase == pRefused:
		s.phase = pDone
		return d.fill(i, fRefused)
	case d.ended:
		s.phase = pDone
		return d.fill(i, fDegraded)
	}
	s.phase, s.woken = pQueued, woken
	if d.here {
		return aHere
	}
	return aSubmit
}

// refused: the stage refused slot i's task; full when its queue was full. A
// woken step then runs here — waiting for space could leave every worker
// waiting on another — and any other slot is done, answered by the refusal.
func (d *dispatch) refused(i int, full bool) dact {
	if full && d.slots[i].woken {
		return aHere
	}
	return d.done(i, fAdmit)
}

// started: slot i is about to run; ended when the request's context has
// ended, which ends the request first. It runs unless it was answered or
// nothing more may start.
func (d *dispatch) started(i int, ended bool) (a dact) {
	if ended {
		a = d.end()
	}
	if s := &d.slots[i]; s.how != 0 || d.rejected {
		s.phase = pDone
		return a
	}
	return a | aRun
}

// done: slot i will not run again — its run returned (fResult) or the stage
// refused it — and how answers it unless it was answered first, as a slot
// degraded before its result was. Each step whose last input it was may begin.
func (d *dispatch) done(i int, how uint8) dact {
	d.slots[i].phase = pDone
	if d.next != nil {
		for _, j := range d.next[i] {
			d.wait[j]--
		}
	}
	return d.fill(i, how)
}

// end: the request's deadline passed or its caller went away. Nothing more
// starts, and every open slot is degraded; a refused one keeps its fault.
func (d *dispatch) end() (a dact) {
	for i := 0; i < len(d.slots) && !d.ended; i++ {
		switch {
		case d.slots[i].phase == pRefused:
			a |= d.fill(i, fRefused)
		case d.slots[i].phase != pDone:
			a |= d.fill(i, fDegraded)
		}
	}
	d.ended = true
	return a
}

// fill answers slot i, how, unless it was answered.
func (d *dispatch) fill(i int, how uint8) dact {
	if d.slots[i].how != 0 {
		return 0
	}
	d.slots[i].how = how
	d.slots[d.filled].order = int32(i)
	d.filled++
	return aFill
}

// writable: the drain asks what to write next: the first answered of the
// slots not yet written, aDone once every slot is, or 0 to wait.
func (d *dispatch) writable() (int, dact) {
	switch {
	case d.rejected:
		return 0, 0
	case d.written < d.filled:
		return int(d.slots[d.written].order), aWrite
	case d.written == len(d.slots):
		return 0, aDone
	}
	return 0, 0
}

// wrote: the slot writable named was written, or its write failed, which
// rejects the message.
func (d *dispatch) wrote(ok bool) {
	d.rejected = d.rejected || !ok
	d.written++
}
