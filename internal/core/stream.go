package core

import (
	"context"
	"time"

	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/stage"
	"repro/internal/xmldom"
)

// The server decodes every request envelope from a pooled arena and, for
// packed messages and plans, reads each entry as its subtree closes, so a
// Parallel_Method entry is dispatched to the application stage while later
// ones are still being parsed. Every feature operates at entry/token
// granularity:
//
//   - EntryInterceptors hook each entry as its subtree closes;
//   - header processors (WSSE) verify over the verbatim body spans teed out
//     of the decoder once the document is complete. A message that has
//     anything to verify — processors configured, or header blocks present —
//     and every plan still decode their entries as they stream, but hold
//     every execution until the whole document has passed: authenticate,
//     then act.
//
// Whole-message faults (malformed envelope, header rejection, two entries
// claiming one correlation id) are decided by readPacked, which the gateway's
// scatter reads packed requests with too, before any response byte is
// emitted. The one side-effect caveat: on a batch with nothing to verify,
// entries that closed before a late syntax error or a colliding spi:id have
// already executed when the whole-message fault goes out (idempotency is the
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
// way out: each entry is enqueued the moment its subtree closes, so the first
// operations run while later entries are still being tokenized. Once the
// document has validated, each entry's response bytes are written to the
// pooled response buffer the moment its work completes — the protocol thread
// never holds a response DOM, and no entry waits for a slower one. It sleeps
// on the collector — the sleep/wake handoff of §3.3 — until the last worker
// finishes or the envelope's deadline fires, in which case it degrades:
// unfinished slots become per-item Server.Timeout faults while completed
// companions keep their real results.
func (s *Server) dispatchPacked(ctx context.Context, d *soap.StreamDecoder, pm *xmldom.Element, rctx *registry.Context, defaultService, target string) (*httpx.Response, dispatchTimes, *soap.Fault) {
	// A plan has no batch default: its steps run on the URL's service, and
	// its response declares no xmlns:m.
	plan := pm.Name.Local == ElemExecutionPlan
	kind, defaultNS, service := "plan", "", defaultService
	if !plan {
		kind, defaultNS, service = "packed", requestDefaultNS(pm), packDefaultService(pm, defaultService)
	}
	run := &packedRun{ctx: ctx, rctx: rctx}
	run.col.init(0, 16)
	reqs := make([]*rpcRequest, 0, 8) // by slot; nil where the entry faulted before it could run
	asm := newPackedAssembler(defaultNS)
	asm.faultCodes = &s.faultCodes
	defer asm.release()

	// Authenticate, then act: when there is anything to verify, entries are
	// decoded as they stream but none is started until the document is
	// complete and verifyHeaders has passed. Until then the slots that
	// faulted wait in held, so that they complete in slot order with the
	// entries that run. Late workers deliver into the collector harmlessly —
	// they hold copies, never arena nodes. A plan is held too: one step's
	// fault is the whole plan's, and then none may have run.
	hold := plan || len(s.cfg.HeaderProcessors) > 0 || len(rctx.RequestHeaders) > 0
	var held []*rpcResult
	h := packedHooks{
		entry: func(i int, _ *xmldom.Element, req *rpcRequest, f *soap.Fault) {
			run.col.add()
			reqs = append(reqs, req)
			switch {
			case f != nil && hold:
				held = append(held, &rpcResult{id: i, fault: f})
			case f != nil:
				run.col.put(i, &rpcResult{id: i, fault: f})
			case !hold:
				s.startEntry(run, i, req, false)
			}
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
	if fault != nil {
		return nil, dispatchTimes{decode: decode}, fault
	}
	if plan {
		if run.plan, fault = newPlanGraph(reqs, held); fault != nil {
			return nil, dispatchTimes{decode: decode}, fault
		}
	}
	if hold {
		for i, req := range reqs {
			switch {
			case req == nil:
				run.col.put(i, held[0])
				held = held[1:]
			case !plan || run.plan.root[i]:
				s.startEntry(run, i, req, false)
			}
		}
	}

	// Write each entry as its work completes, while later workers are still
	// running. On deadline expiry every open slot degrades to a per-item
	// fault, which is written in turn.
	if err := run.col.drain(ctx, func(_ int, r *rpcResult) error { return asm.encodeEntry(r, s.namespaceOf) },
		func(i int) *rpcResult { return s.abandonResult(ctx, reqs[i]) }); err != nil {
		return nil, dispatchTimes{decode: decode, encode: asm.encDur}, soap.ServerFault("assembling %s response: %v", kind, err)
	}
	s.itemFaults.Add(int64(asm.itemFaults))

	resp, err := asm.finish(d.Envelope().Version, rctx.ResponseHeaders(), nil, nil)
	if err != nil {
		resp = encodeFailureResponse()
	}
	return resp, dispatchTimes{decode: decode, encode: asm.encDur}, nil
}

// packedRun is what the workers of one packed message or plan share; plan is
// nil for a Parallel_Method.
type packedRun struct {
	col  collector[*rpcResult]
	ctx  context.Context
	rctx *registry.Context
	plan *planGraph
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

// startEntry begins executing entry i, its result bound for slot i of the
// collector: on an application-stage worker, or — in the traditional coupled
// architecture — serially right here, degrading the remainder once the
// deadline has passed. A plan step woken by the last step it reads (wake)
// never waits for queue space, or workers could wait on each other: it runs
// right here instead.
func (s *Server) startEntry(run *packedRun, i int, req *rpcRequest, wake bool) {
	if !s.staged() {
		if run.ctx.Err() != nil {
			s.complete(run, i, s.abandonResult(run.ctx, req))
			return
		}
		s.complete(run, i, s.runEntry(run, i, req))
		return
	}
	task := s.appTask(run.ctx, req, func() { s.complete(run, i, s.runEntry(run, i, req)) })
	var err error
	if wake {
		s.sampleAppQueue()
		if err = s.appPool.TrySubmit(task); err == stage.ErrQueueFull {
			task()
			return
		}
	} else {
		err = s.submitApp(run.ctx, task)
	}
	if err != nil {
		s.complete(run, i, req.faulted(s.admissionFault(run.ctx, req, err)))
	}
}

// complete fills slot i with res and, in a plan, starts each step whose last
// dependency it was.
func (s *Server) complete(run *packedRun, i int, res *rpcResult) {
	run.col.put(i, res)
	if run.plan == nil {
		return
	}
	for _, next := range run.plan.next[i] {
		if run.plan.pending[next].Add(-1) == 0 {
			s.startEntry(run, next, run.plan.reqs[next], true)
		}
	}
}
