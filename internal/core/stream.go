package core

import (
	"context"
	"time"

	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/xmldom"
)

// The server decodes every request envelope from a pooled arena and, for
// packed messages, dispatches each Parallel_Method entry to the application
// stage as soon as its subtree closes — parse and execution overlap instead
// of running back to back on the protocol thread. Every feature operates at
// entry/token granularity:
//
//   - EntryInterceptors hook each entry as its subtree closes;
//   - header processors (WSSE) verify over the verbatim body spans teed out
//     of the decoder once the document is complete. A message that has
//     anything to verify — processors configured, or header blocks present —
//     still decodes its entries as they stream, but holds every execution
//     until verification has passed: authenticate, then act.
//
// Whole-message faults (malformed envelope, header rejection, two entries
// claiming one correlation id) are decided by readPacked, which the gateway's
// scatter reads packed requests with too, before any response byte is
// emitted. The one side-effect caveat: on a message with nothing to verify,
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

// dispatchPacked fans a Parallel_Method message out to the application
// stage, fused with decoding on the way in and assembly on the way out:
// each entry is enqueued the moment its subtree closes, so the first
// operations run while later entries are still being tokenized. Once the
// document has validated, each entry's response bytes are written to the
// pooled response buffer the moment its work completes — the protocol thread
// never holds a response DOM, and no entry waits for a slower one. It sleeps
// on the collector — the sleep/wake handoff of §3.3 — until the last worker
// finishes or the envelope's deadline fires, in which case it degrades:
// unfinished slots become per-item Server.Timeout faults while completed
// companions keep their real results.
func (s *Server) dispatchPacked(ctx context.Context, d *soap.StreamDecoder, pm *xmldom.Element, rctx *registry.Context, defaultService, target string) (*httpx.Response, dispatchTimes, *soap.Fault) {
	col := new(collector[*rpcResult]).init(0, 16)
	asm := newPackedAssembler(requestDefaultNS(pm))
	asm.faultCodes = &s.faultCodes
	defer asm.release()
	// reqs[i] stays nil for a slot that faulted before it could run.
	reqs := make([]*rpcRequest, 0, 8)

	// Authenticate, then act: when there is anything to verify, entries are
	// decoded as they stream but none is started until the document is
	// complete and verifyHeaders has passed. Until then the slots that
	// faulted wait in held, so that they complete in slot order with the
	// entries that run. Late workers deliver into the collector harmlessly —
	// they hold copies, never arena nodes.
	verifyFirst := len(s.cfg.HeaderProcessors) > 0 || len(rctx.RequestHeaders) > 0
	var held []*rpcResult
	h := packedHooks{
		entry: func(i int, _ *xmldom.Element, req *rpcRequest, f *soap.Fault) {
			col.add()
			reqs = append(reqs, req)
			switch {
			case f != nil && verifyFirst:
				held = append(held, &rpcResult{id: i, fault: f})
			case f != nil:
				col.put(i, &rpcResult{id: i, fault: f})
			case !verifyFirst:
				s.startEntry(ctx, col, rctx, i, req)
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
	decode, fault := readPacked(d, pm, packDefaultService(pm, defaultService), h)
	if fault != nil {
		return nil, dispatchTimes{decode: decode}, fault
	}
	if verifyFirst {
		for i, req := range reqs {
			if req != nil {
				s.startEntry(ctx, col, rctx, i, req)
			} else {
				col.put(i, held[0])
				held = held[1:]
			}
		}
	}

	// Write each entry as its work completes, while later workers are still
	// running. On deadline expiry every open slot degrades to a per-item
	// fault, which is written in turn.
	if err := col.drain(ctx, func(_ int, r *rpcResult) error { return asm.encodeEntry(r, s.namespaceOf) },
		func(i int) *rpcResult { return s.abandonResult(ctx, reqs[i]) }); err != nil {
		return nil, dispatchTimes{decode: decode, encode: asm.encDur}, soap.ServerFault("assembling packed response: %v", err)
	}
	s.itemFaults.Add(int64(asm.itemFaults))

	resp, err := asm.finish(d.Envelope().Version, rctx.ResponseHeaders(), nil, nil)
	if err != nil {
		resp = encodeFailureResponse()
	}
	return resp, dispatchTimes{decode: decode, encode: asm.encDur}, nil
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

// readPacked is the one reader of a Parallel_Method: the server's dispatch and
// the gateway's scatter both read a packed request with it, so the two cannot
// disagree about what one means or how it faults. d has just started pm
// (NextEntryStart); service is what an entry that names none runs on. Each
// entry goes to h.entry as its subtree closes, so the first can run while
// later ones are still being read. Then the rest of the envelope is read, and
// the whole-message fault is decided once, in this order: finishBody's (a
// malformed document; what h.verify finds in the headers; more than one body
// entry); a batch with no entries; two entries claiming one spi:id. Any of
// them outranks every per-item fault. decode is the time spent in the
// decoder.
func readPacked(d *soap.StreamDecoder, pm *xmldom.Element, service string, h packedHooks) (decode time.Duration, f *soap.Fault) {
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
		if fault == nil {
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
	if len(ids) == 0 {
		return decode, soap.ClientFault("%s has no requests", ElemParallelMethod)
	}
	return decode, duplicateIDFault(len(ids), func(slot int) int { return ids[slot] })
}

// startEntry begins executing one decoded packed entry, its result bound
// for slot i of the collector: on an application-stage worker, or — in the
// traditional coupled architecture — serially right here on the protocol
// thread, degrading the remainder once the deadline has passed.
func (s *Server) startEntry(ctx context.Context, col *collector[*rpcResult], rctx *registry.Context, i int, req *rpcRequest) {
	if !s.staged() {
		if ctx.Err() != nil {
			col.put(i, s.abandonResult(ctx, req))
			return
		}
		col.put(i, s.execute(ctx, req, rctx))
		return
	}
	task := s.appTask(ctx, req, func() { col.put(i, s.execute(ctx, req, rctx)) })
	if err := s.submitApp(task); err != nil {
		col.put(i, req.faulted(s.admissionFault(err)))
	}
}
