package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/stage"
	"repro/internal/trace"
	"repro/internal/xmldom"
)

// The server decodes every request envelope from a pooled arena and, for
// packed messages and plans, reads each entry as its subtree closes, so a
// Parallel_Method entry runs while later ones are still being parsed.
// EntryInterceptors hook each entry as it closes; header processors (WSSE)
// verify over the verbatim body spans teed out of the decoder once the
// document is complete. A message that has anything to verify — processors
// configured, or header blocks present — and every plan hold every execution
// until the whole document has passed: authenticate, then act.
//
// Whole-message faults (malformed envelope, header rejection, two entries
// claiming one correlation id) are decided by readPacked, which the gateway's
// scatter reads packed requests with too, before any response byte is
// emitted. The one side-effect caveat: on a batch with nothing to verify,
// entries that a worker took before a late syntax error or a colliding spi:id
// have run when the whole-message fault goes out (idempotency is the
// application's concern, as with any at-least-once delivery).

// cloneHeaders deep-copies header blocks off the request arena. Clone also
// pulls inherited namespace declarations onto the copies, so they resolve
// identically without their (arena-owned) ancestors.
func cloneHeaders(hs []*xmldom.Element) []*xmldom.Element {
	if len(hs) == 0 {
		return nil
	}
	out := make([]*xmldom.Element, len(hs))
	for i, h := range hs {
		out[i] = h.Clone()
	}
	return out
}

// canonicalFromSpans concatenates the decoder's body spans into the
// canonical body the header processors verify. The overwhelmingly common
// single-span case is zero-copy.
func canonicalFromSpans(spans [][]byte) []byte {
	if len(spans) == 1 {
		return spans[0]
	}
	n := 0
	for _, sp := range spans {
		n += len(sp)
	}
	out := make([]byte, 0, n)
	for _, sp := range spans {
		out = append(out, sp...)
	}
	return out
}

// dispatchPacked fans a Parallel_Method message or an Execution_Plan out to
// the application stage, fused with decoding on the way in and assembly on the
// way out: each entry begins the moment its subtree closes, and once the
// document has validated, each answer is written to the pooled response
// buffer the moment it comes in. It sleeps in the drain — the sleep/wake
// handoff of §3.3 — until the last answer or the envelope's deadline, which
// degrades unfinished slots to per-item Server.Timeout faults.
func (s *Server) dispatchPacked(ctx context.Context, d *soap.StreamDecoder, pm *xmldom.Element, headers []*xmldom.Element, defaultService, target string) (*httpx.Response, dispatchTimes, *soap.Fault) {
	// A plan has no batch default: its steps run on the URL's service, and
	// its response declares no xmlns:m.
	plan := pm.Name.Local == ElemExecutionPlan
	kind, defaultNS, service := "plan", "", defaultService
	if !plan {
		kind, defaultNS, service = "packed", requestDefaultNS(pm), packDefaultService(pm, defaultService)
	}
	// Authenticate, then act: with anything to verify, no entry starts until
	// verifyHeaders has passed. A plan is held too: one step's fault is the
	// whole plan's, and then none may have run.
	r := s.newRun(ctx, headers, plan || len(s.cfg.HeaderProcessors) > 0 || len(headers) > 0, !s.staged())
	r.m.slots = make([]dslot, 0, 16)
	if plan {
		r.m.next, r.m.wait = make([][]int32, 0, 16), make([]int32, 0, 16)
	}
	h := packedHooks{
		entry: func(i int, _ *xmldom.Element, req *rpcRequest, f *soap.Fault) {
			r.mu.Lock()
			r.m.add(req, f)
			r.mu.Unlock()
			s.start(r, i, false, false, time.Time{})
		},
		verify: func(env *soap.Envelope) *soap.Fault { return s.verifyHeaders(env, d) },
	}
	if ics := s.cfg.EntryInterceptors; len(ics) > 0 {
		info := EntryInfo{Target: target, DefaultService: defaultService, Version: d.Envelope().Version, Packed: true}
		h.intercept = func(i int, el *xmldom.Element) (*xmldom.Element, *soap.Fault) {
			ei := info
			ei.Index = i
			return runEntryInterceptors(ics, el, &ei)
		}
	}
	decode, fault := readPacked(d, pm, service, h)
	if fault == nil && plan {
		fault = linkPlan(&r.m)
	}
	r.mu.Lock()
	r.m.verify(fault == nil)
	r.mu.Unlock()
	if fault != nil {
		return nil, dispatchTimes{decode: decode}, fault
	}
	for i := range r.m.slots { // only this goroutine adds slots
		s.start(r, i, false, false, time.Time{})
	}

	asm := newPackedAssembler(defaultNS)
	asm.tally = &s.tally
	defer asm.release()
	if err := r.drain(ctx, func(i int) error { return asm.encodeEntry(r.answer(i), s.namespaceOf) }); err != nil {
		return nil, dispatchTimes{decode: decode, encode: asm.encDur}, soap.ServerFault("assembling %s response: %v", kind, err)
	}

	resp, err := asm.finish(d.Envelope().Version, r.rctx.ResponseHeaders(), nil, nil)
	if err != nil {
		resp = encodeFailureResponse()
	}
	return resp, dispatchTimes{decode: decode, encode: asm.encDur}, nil
}

// answers is a dispatch machine under its lock, with the wake-up its drain
// sleeps on: a server's run and the gateway's GatherCollector each keep one.
type answers struct {
	mu   sync.Mutex
	m    dispatch
	wake chan struct{} // made by the drain when it first waits
}

// signal wakes the drain, if it waits, when an event answered a slot. It is
// called under the lock.
func (x *answers) signal(a dact) {
	if a&aFill != 0 && x.wake != nil {
		select {
		case x.wake <- struct{}{}:
		default:
		}
	}
}

// drain writes each slot with write as it is answered, in that order, until
// every slot is written or a write fails. When ctx ends first, every open slot
// is degraded (how) and written in turn. An answered slot does not change, so
// write reads it without the lock.
func (x *answers) drain(ctx context.Context, write func(i int) error) error {
	var err error
	for wrote := false; ; {
		x.mu.Lock()
		if wrote {
			x.m.wrote(err == nil)
		}
		i, a := x.m.writable()
		if a == 0 && x.wake == nil {
			x.wake = make(chan struct{}, 1)
		}
		wake := x.wake
		x.mu.Unlock()
		switch {
		case err != nil:
			return err
		case a&aDone != 0:
			return nil
		case a&aWrite != 0:
			err, wrote = write(i), true
			continue
		}
		wrote = false
		select {
		case <-wake:
		case <-ctx.Done():
			x.mu.Lock()
			x.m.end()
			x.mu.Unlock()
		}
	}
}

// run is one message's dispatch on the server: its answers, and what the
// goroutines running its slots share. A single call's slot lives in one.
type run struct {
	answers
	ctx  context.Context
	rctx registry.Context
	one  [1]dslot
}

// newRun readies the dispatch of one message under ctx, with the request's
// header blocks; hold and here are the machine's.
func (s *Server) newRun(ctx context.Context, headers []*xmldom.Element, hold, here bool) *run {
	return &run{answers: answers{m: dispatch{hold: hold, here: here}},
		ctx: ctx, rctx: registry.Context{Ctx: ctx, RequestHeaders: headers}}
}

// answer is slot i's answer to write: its own, or, degraded, the abandon fault.
func (r *run) answer(i int) *rpcResult {
	sl := &r.m.slots[i]
	if sl.how == fDegraded {
		return sl.req.faulted(AbandonFault(r.ctx, sl.req.service, sl.req.op))
	}
	return sl.res
}

// start begins slot i on this goroutine — woken on the worker whose result
// released it — or, when picked, runs the slot a worker took off the queue,
// handed to the stage at submitted (zero when untraced). A slot run here goes
// from its started event to its result, a plan step reading its inputs'
// answers as it starts; then each step its result or its refusal by the stage
// releases begins in turn, so that a chain of steps run here is a loop, not a
// recursion.
func (s *Server) start(r *run, i int, woken, picked bool, submitted time.Time) {
	var stack [8]int32
	for todo := stack[:0]; ; {
		r.mu.Lock()
		a := aHere
		if !picked {
			a = r.m.begin(i, woken)
		}
		if a&aHere != 0 {
			a |= r.m.started(i, r.ctx.Err() != nil)
		}
		req, res := r.m.slots[i].req, (*rpcResult)(nil)
		if a&aRun != 0 && r.m.next != nil {
			res = stepInputs(&r.m, i, req)
		}
		r.signal(a)
		r.mu.Unlock()
		done := a&aRun != 0
		var err error
		if a&aSubmit != 0 {
			if s.cfg.Tracer.Enabled() {
				submitted = time.Now()
			}
			slot, at := i, submitted
			err = s.submitApp(r.ctx, func() { s.start(r, slot, true, true, at) }, !woken)
		}
		if err != nil {
			r.mu.Lock()
			if a = r.m.refused(i, errors.Is(err, stage.ErrQueueFull)); a&aFill != 0 {
				r.m.slots[i].res = req.faulted(admissionFault(r.ctx, req, err))
			}
			r.signal(a)
			r.mu.Unlock()
			if picked = a&aHere != 0; picked {
				continue
			}
			done = true
		}
		if a&aRun != 0 {
			start := submitted
			if !submitted.IsZero() {
				start = time.Now()
			}
			if res == nil {
				res = s.execute(r.ctx, req, &r.rctx)
			}
			if !submitted.IsZero() {
				s.cfg.Tracer.Record(trace.Span{Trace: trace.FromContext(r.ctx), Stage: trace.StageApp, ID: req.id,
					Op: req.service + "." + req.op, Start: start, Queue: start.Sub(submitted), Service: time.Since(start)})
			}
			r.mu.Lock()
			if a = r.m.done(i, fResult); a&aFill != 0 {
				r.m.slots[i].res = res
			}
			r.signal(a)
			r.mu.Unlock()
		}
		if done && r.m.next != nil { // a plan's links are fixed before it begins
			for k := len(r.m.next[i]) - 1; k >= 0; k-- {
				todo = append(todo, r.m.next[i][k])
			}
		}
		if len(todo) == 0 {
			return
		}
		i, todo = int(todo[len(todo)-1]), todo[:len(todo)-1]
		woken, picked, submitted = true, false, time.Time{}
	}
}

// packedHooks are what a caller plugs into readPacked; a nil intercept or
// verify does nothing.
type packedHooks struct {
	intercept func(slot int, el *xmldom.Element) (*xmldom.Element, *soap.Fault)  // replaces or faults an entry before it is decoded
	entry     func(slot int, el *xmldom.Element, req *rpcRequest, f *soap.Fault) // each entry as it closes: decoded, or faulted with f
	verify    func(env *soap.Envelope) *soap.Fault                               // checks the finished envelope's header blocks
}

// finishBody reads the rest of the envelope once its body entries have been
// read, and decides the whole-message faults any body can earn, in this
// order: a malformed document; what verify (nil: nothing to verify) finds in
// the headers; a body of other than one entry. read is the time spent in the
// decoder.
func finishBody(d *soap.StreamDecoder, verify func(*soap.Envelope) *soap.Fault) (env *soap.Envelope, read time.Duration, f *soap.Fault) {
	start := time.Now()
	env, err := d.Finish()
	read = time.Since(start)
	switch {
	case err != nil:
		return nil, read, malformedFault(err)
	case verify != nil:
		if f := verify(env); f != nil {
			return nil, read, f
		}
	}
	if len(env.Body) != 1 {
		return nil, read, soap.ClientFault("expected exactly one body entry, got %d", len(env.Body))
	}
	return env, read, nil
}

// readPacked is the one reader of a Parallel_Method and of an Execution_Plan:
// the server's dispatch and the gateway's scatter both read a packed request
// with it, so the two cannot disagree about what one means or how it faults.
// d has just started pm (NextEntryStart); service is what an entry that names
// none runs on. Each entry, or plan step (decodeStep), goes to h.entry as its
// subtree closes, so the first can run while later ones are still read. Then
// the rest of the envelope is read, and the whole-message fault is decided
// once, in this order: finishBody's (a malformed document; what h.verify
// finds in the headers; more than one body entry); a batch with no entries;
// two entries claiming one spi:id. Any of them outranks every per-item fault.
// decode is the time spent in the decoder.
func readPacked(d *soap.StreamDecoder, pm *xmldom.Element, service string, h packedHooks) (decode time.Duration, f *soap.Fault) {
	plan := pm.Name.Local == ElemExecutionPlan
	ids := make([]int, 0, 16) // effective spi:id by slot
	for {
		start := time.Now()
		el, err := d.NextChild(pm)
		decode += time.Since(start)
		if err != nil {
			return decode, malformedFault(err)
		}
		if el == nil {
			break
		}
		slot := len(ids)
		var req *rpcRequest
		var fault *soap.Fault
		if h.intercept != nil {
			el, fault = h.intercept(slot, el)
		}
		switch {
		case fault != nil:
		case plan:
			req, fault = decodeStep(el, service, slot)
		default:
			req, fault = decodeRequestElement(el, service, slot)
		}
		if fault == nil {
			ids = append(ids, req.id)
		} else {
			ids = append(ids, slot) // a faulted entry is answered positionally
		}
		h.entry(slot, el, req, fault)
	}
	_, tail, f := finishBody(d, h.verify)
	if decode += tail; f != nil {
		return decode, f
	}
	switch {
	case len(ids) == 0 && plan:
		return decode, soap.ClientFault("%s has no steps", ElemExecutionPlan)
	case len(ids) == 0:
		return decode, soap.ClientFault("%s has no requests", ElemParallelMethod)
	}
	return decode, duplicateIDFault(len(ids), func(slot int) int { return ids[slot] })
}
