package core

import (
	"context"
	"sync"
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

// streamCollector gathers results from application-stage workers when the
// total entry count is unknown at submit time (entries are still being
// parsed). deliver is safe from detached workers that finish after the
// protocol thread degraded their slot: a slot only accepts its first write.
type streamCollector struct {
	mu      sync.Mutex
	results []*rpcResult
	wake    chan struct{}
}

func newStreamCollector() *streamCollector {
	return &streamCollector{
		results: make([]*rpcResult, 0, 8),
		wake:    make(chan struct{}, 1),
	}
}

// addSlot reserves the next response slot.
func (c *streamCollector) addSlot() int {
	c.mu.Lock()
	slot := len(c.results)
	c.results = append(c.results, nil)
	c.mu.Unlock()
	return slot
}

// fill stores a result produced on the protocol thread (decode faults,
// admission faults, coupled-mode executions).
func (c *streamCollector) fill(slot int, res *rpcResult) {
	c.mu.Lock()
	c.results[slot] = res
	c.mu.Unlock()
}

// deliver stores a worker's result and nudges the protocol thread.
func (c *streamCollector) deliver(slot int, res *rpcResult) {
	c.mu.Lock()
	if c.results[slot] == nil {
		c.results[slot] = res
	}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// waitSlot blocks until the given slot holds a result or ctx is done,
// reporting whether it was the deadline that ended the wait. This is the
// reorder window's park: the assembler only ever waits on the slot at the
// window head.
func (c *streamCollector) waitSlot(ctx context.Context, slot int) (degraded bool) {
	for {
		c.mu.Lock()
		filled := c.results[slot] != nil
		c.mu.Unlock()
		if filled {
			return false
		}
		select {
		case <-c.wake:
		case <-ctx.Done():
			return true
		}
	}
}

// dispatchPacked fans a Parallel_Method message out to the application
// stage, fused with decoding on the way in and assembly on the way out:
// each entry is enqueued the moment its subtree closes, so the first
// operations run while later entries are still being tokenized, and each
// entry's response bytes are written to the pooled response buffer the
// moment the reorder window's head slot completes — the protocol thread
// never holds a response DOM. It sleeps on the window head — the sleep/wake
// handoff of §3.3 — until the last worker finishes or the envelope's
// deadline fires, in which case it degrades: unfinished slots become
// per-item Server.Timeout faults while completed companions keep their real
// results. Differential tests pin the bytes under randomized completion
// orders.
func (s *Server) dispatchPacked(ctx context.Context, d *soap.StreamDecoder, pm *xmldom.Element, rctx *registry.Context, defaultService, target string) (*httpx.Response, dispatchTimes, *soap.Fault) {
	col := newStreamCollector()
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
	// complete and verifyHeaders has passed.
	verifyFirst := len(s.cfg.HeaderProcessors) > 0 || len(rctx.RequestHeaders) > 0

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
		i := col.addSlot()
		if einfo != nil {
			ei := *einfo
			ei.Index = i
			repl, fault := runEntryInterceptors(s.cfg.EntryInterceptors, el, &ei)
			if fault != nil {
				reqs = append(reqs, nil)
				col.fill(i, &rpcResult{id: i, fault: fault})
				continue
			}
			el = repl
		}
		req, fault := decodeRequestElement(el, entryService, i)
		reqs = append(reqs, req)
		if fault != nil {
			col.fill(i, &rpcResult{id: i, fault: fault})
			continue
		}
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
			}
		}
	}

	// In-order incremental assembly: encode each contiguous completed
	// prefix of slots while later workers are still running, parking on
	// the reorder window's head when it is empty. On deadline expiry,
	// degrade every unfilled slot to a per-item fault and finish the
	// final drain over the now-complete window.
	for asm.next < len(reqs) {
		asm.drain(col, s.namespaceOf)
		if asm.failed != nil || asm.next >= len(reqs) {
			break
		}
		if col.waitSlot(ctx, asm.next) {
			col.mu.Lock()
			for i, r := range col.results {
				if r == nil {
					col.results[i] = s.abandonResult(ctx, reqs[i])
				}
			}
			col.mu.Unlock()
		}
	}
	if asm.failed != nil {
		return nil, times(), soap.ServerFault("assembling packed response: %v", asm.failed)
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
func (s *Server) startEntry(ctx context.Context, col *streamCollector, rctx *registry.Context, i int, req *rpcRequest) {
	if !s.staged() {
		if ctx.Err() != nil {
			col.fill(i, s.abandonResult(ctx, req))
			return
		}
		col.fill(i, s.execute(ctx, req, rctx))
		return
	}
	task := s.appTask(ctx, req, func() { col.deliver(i, s.execute(ctx, req, rctx)) })
	if err := s.submitApp(task); err != nil {
		col.fill(i, &rpcResult{id: req.id, service: req.service, op: req.op, fault: s.admissionFault(err)})
	}
}
