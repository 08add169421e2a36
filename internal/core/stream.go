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
//   - differential deserialization hashes each entry's raw subtree span as
//     the decoder consumes it, cloning cached parses into the arena on hits
//     (see diffCache);
//   - EntryInterceptors hook each entry as its subtree closes;
//   - header processors (WSSE) verify over the verbatim body spans teed out
//     of the decoder once the document is complete. A message that has
//     anything to verify — processors configured, or header blocks present —
//     still decodes its entries as they stream, but holds every execution
//     until verification has passed: authenticate, then act.
//
// Whole-message faults (malformed envelope, header rejection, two entries
// claiming one correlation id) are decided before any response byte is
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
	// decode is the time spent reading the body: the clock is read as each
	// entry's decoding starts and ends, and around the envelope's tail.
	var decode time.Duration
	times := func() dispatchTimes { return dispatchTimes{decode: decode, encode: asm.encDur} }
	// reqs[i] stays nil for a slot that faulted before it could run.
	reqs := make([]*rpcRequest, 0, 8)
	arena := d.Arena()
	v := d.Envelope().Version

	// Authenticate, then act: when there is anything to verify, entries are
	// decoded as they stream but none is started until the document is
	// complete and verifyHeaders has passed. Until then the slots that
	// faulted wait in held, so that they complete in slot order with the
	// entries that run.
	verifyFirst := len(s.cfg.HeaderProcessors) > 0 || len(rctx.RequestHeaders) > 0
	var held []*rpcResult
	faulted := func(i int, f *soap.Fault) {
		reqs = append(reqs, nil)
		r := &rpcResult{id: i, fault: f}
		if verifyFirst {
			held = append(held, r)
		} else {
			col.put(i, r)
		}
	}

	var ctxSum [32]byte
	if s.diff != nil {
		rootTag, bodyTag := d.RawContext()
		ctxSum = contextSum(rootTag, bodyTag, d.EntryStartTag())
	}
	attach := func(el *xmldom.Element) { pm.AddChild(el) }
	entryService := packDefaultService(pm, defaultService)
	var einfo *EntryInfo
	if len(s.cfg.EntryInterceptors) > 0 {
		einfo = &EntryInfo{Target: target, DefaultService: defaultService, Version: v, Packed: true}
	}

	for {
		var el *xmldom.Element
		var err error
		decodeStart := time.Now()
		if s.diff != nil {
			// Per-entry differential deserialization over the raw subtree
			// span the tokenizer skipped.
			var raw []byte
			raw, err = d.NextChildSpan(pm)
			if err == nil && raw != nil {
				el, err = s.diff.parse(ctxSum, raw, arena, attach)
			}
		} else {
			el, err = d.NextChild(pm)
		}
		decode += time.Since(decodeStart)
		if err != nil {
			return nil, times(), malformedFault(err)
		}
		if el == nil {
			break
		}
		i := col.add()
		if einfo != nil {
			ei := *einfo
			ei.Index = i
			repl, fault := runEntryInterceptors(s.cfg.EntryInterceptors, el, &ei)
			if fault != nil {
				faulted(i, fault)
				continue
			}
			el = repl
		}
		req, fault := decodeRequestElement(el, entryService, i)
		if fault != nil {
			faulted(i, fault)
			continue
		}
		reqs = append(reqs, req)
		if !verifyFirst {
			s.startEntry(ctx, col, rctx, i, req)
		}
	}
	// Validate the rest of the document before encoding anything: a
	// malformed tail is a whole-message fault, which takes precedence over
	// everything else. Late workers deliver into the collector harmlessly —
	// they hold copies, never arena nodes.
	extra := 0
	tailStart := time.Now()
	for {
		el, err := d.NextEntryStart()
		if err != nil {
			return nil, times(), malformedFault(err)
		}
		if el == nil {
			break
		}
		extra++
		if err := d.CompleteEntry(el); err != nil {
			return nil, times(), malformedFault(err)
		}
	}
	env, err := d.Finish()
	decode += time.Since(tailStart)
	if err != nil {
		return nil, times(), malformedFault(err)
	}

	// Header verification, now that the document is known well-formed.
	// Fault precedence is header fault > extra-entry fault > empty batch >
	// duplicate correlation id > per-item dispatch faults.
	if fault := s.verifyHeaders(env, d); fault != nil {
		return nil, times(), fault
	}
	if extra > 0 {
		return nil, times(), soap.ClientFault("expected exactly one body entry, got %d", 1+extra)
	}
	if len(reqs) == 0 {
		return nil, times(), soap.ClientFault("%s has no requests", ElemParallelMethod)
	}
	if dup := duplicateIDFault(len(reqs), func(slot int) int {
		if reqs[slot] == nil {
			return slot // faulted before it could run: answered positionally
		}
		return reqs[slot].id
	}); dup != nil {
		return nil, times(), dup
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
		return nil, times(), soap.ServerFault("assembling packed response: %v", err)
	}
	s.itemFaults.Add(int64(asm.itemFaults))

	resp, err := asm.finish(v, rctx.ResponseHeaders(), nil, nil)
	if err != nil {
		return encodeFailureResponse(), times(), nil
	}
	return resp, times(), nil
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
