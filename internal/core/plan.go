package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/stage"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Execution plans — the SPI "remote execution" interface.
//
// The paper's §1/§3 introduce SPI as "a group of application programming
// interfaces ... such as packing, remote execution, et al." and publish
// only the pack interface, leaving the rest as future work ("we will
// implement and evaluate the suite of interfaces in SPI"). This file
// implements the natural next interface in that suite: an execution plan.
//
// A plan generalizes a pack: it is a set of service invocations shipped in
// one SOAP message in which a parameter of a later step may *reference a
// result of an earlier step*. The server schedules steps on the
// application stage as their dependencies resolve — independent steps run
// concurrently, dependent steps run as soon as their inputs exist — and
// returns all results in one packed response. Call chains that would cost
// one round trip per step (reserve-then-confirm, query-then-book) collapse
// into a single exchange.
//
// Wire format (all in the spi namespace of the pack interface):
//
//	<spi:Execution_Plan>
//	  <m:QueryFlights spi:id="0" spi:service="Airline1">...</m:QueryFlights>
//	  <m:Reserve spi:id="1" spi:service="Airline1">
//	    <flight><spi:ref spi:step="0" spi:result="flight"/></flight>
//	  </m:Reserve>
//	</spi:Execution_Plan>
//
// The response reuses Parallel_Response, one entry per step.

// ElemExecutionPlan is the plan's body element local name.
const ElemExecutionPlan = "Execution_Plan"

// elemRef is the parameter-reference element local name.
const elemRef = "ref"

var (
	namePlan   = xmltext.Name{Prefix: PrefixPack, Local: ElemExecutionPlan}
	nameRef    = xmltext.Name{Prefix: PrefixPack, Local: elemRef}
	attrStep   = xmltext.Name{Prefix: PrefixPack, Local: "step"}
	attrResult = xmltext.Name{Prefix: PrefixPack, Local: "result"}
)

// planRef is the client-side marker value produced by StepHandle.Ref.
type planRef struct {
	step   int
	result string
}

// isPlanBody reports whether a body entry is an Execution_Plan element.
func isPlanBody(el *xmldom.Element) bool {
	return el.Is(NSPack, ElemExecutionPlan)
}

// Plan builds a multi-step remote execution shipped as one SOAP message.
// Like Batch it is single-goroutine for construction; futures may be
// awaited anywhere.
type Plan struct {
	client *Client
	// steps and calls are parallel slices indexed by step.
	steps    []batchEntry
	calls    []*Call
	sent     bool
	buildErr error
}

// StepHandle names one step of a plan: a future for its results plus a
// factory for references to them.
type StepHandle struct {
	*Call
	plan  *Plan
	index int
}

// Ref returns a parameter value that the server resolves to the named
// result field of this step, after the step has executed.
func (h *StepHandle) Ref(result string) soapenc.Value {
	return &planRef{step: h.index, result: result}
}

// NewPlan starts an empty execution plan.
func (c *Client) NewPlan() *Plan {
	return &Plan{client: c}
}

// Add appends a step. Parameters may include values returned by the Ref
// method of earlier steps' handles.
func (p *Plan) Add(service, op string, params ...soapenc.Field) *StepHandle {
	h := &StepHandle{Call: newCall(service, op), plan: p, index: len(p.steps)}
	if p.sent {
		h.Call.resolve(nil, fmt.Errorf("core: Add after Send"))
		return h
	}
	for _, param := range params {
		if ref, ok := param.Value.(*planRef); ok && ref.step >= len(p.steps) {
			if p.buildErr == nil {
				p.buildErr = fmt.Errorf("core: step %d references step %d, which is not earlier", len(p.steps), ref.step)
			}
		}
	}
	p.steps = append(p.steps, batchEntry{service: service, op: op, ns: p.client.NamespaceOf(service), params: params})
	p.calls = append(p.calls, h.Call)
	p.client.calls.Add(1)
	return h
}

// Len returns the number of steps added so far.
func (p *Plan) Len() int { return len(p.steps) }

// Send ships the plan in one SOAP message, waits for the packed response
// and resolves every step future.
func (p *Plan) Send() error {
	return p.SendCtx(context.Background())
}

// SendCtx is Send under a context, with the semantics of Batch.SendCtx:
// the deadline travels to the server, steps the server finishes in time
// return real results, and unfinished steps degrade to per-item
// Server.Timeout faults.
func (p *Plan) SendCtx(ctx context.Context) error {
	if p.sent {
		return fmt.Errorf("core: plan already sent")
	}
	p.sent = true
	if len(p.steps) == 0 {
		return fmt.Errorf("core: empty plan")
	}
	return p.client.sendPacked(ctx, p.calls, p.writeBody)
}

// writeBody streams the Execution_Plan body element. A step states its
// namespace, id and service in full — a plan declares no default — and a
// parameter that refers to an earlier result is an spi:ref leaf in place of a
// value. A reference Add refused fails the plan here, before a byte is written.
func (p *Plan) writeBody(em *xmltext.Emitter) error {
	if p.buildErr != nil {
		return p.buildErr
	}
	var tmp [24]byte
	em.Start(namePlan)
	em.Attr(nameXmlnsSpi, NSPack)
	for i := range p.steps {
		s := &p.steps[i]
		em.Start(xmltext.Name{Prefix: "m", Local: s.op})
		em.Attr(nameXmlnsM, s.ns)
		em.AttrRaw(attrID, strconv.AppendInt(tmp[:0], int64(i), 10))
		em.Attr(attrService, s.service)
		for _, param := range s.params {
			ref, isRef := param.Value.(*planRef)
			switch {
			case param.Name == "":
				return fmt.Errorf("core: plan step %d has a parameter with no name", i)
			case isRef:
				em.Start(xmltext.Name{Local: param.Name})
				em.Start(nameRef)
				em.AttrRaw(attrStep, strconv.AppendInt(tmp[:0], int64(ref.step), 10))
				em.Attr(attrResult, ref.result)
				em.End()
				em.End()
			default:
				if err := soapenc.EncodeTo(em, param.Name, param.Value); err != nil {
					return fmt.Errorf("core: plan step %d param %q: %w", i, param.Name, err)
				}
			}
		}
		em.End()
	}
	em.End()
	return nil
}

// ---- server side ----

// planNode is one decoded plan step with its dependencies.
type planNode struct {
	req       *rpcRequest
	deps      []planDep // parameter index -> (step, result)
	waitsOn   map[int]bool
	children  []int // nodes that depend on this one (deduplicated)
	scheduled bool  // guarded by the plan mutex; prevents double dispatch
	fault     *soap.Fault
}

type planDep struct {
	paramIndex int
	step       int
	result     string
}

// dispatchPlan executes an Execution_Plan body entry: steps scheduled on
// the application stage as their dependencies resolve. When ctx's deadline
// fires before the plan drains, the assembled response degrades: finished
// steps keep their results and unfinished ones become per-item
// Server.Timeout faults, like a packed message. The response is a
// Parallel_Response in version v with no batch default (a plan has no
// Parallel_Method to declare one); like dispatchPacked it comes back
// assembled, with the time spent encoding it.
func (s *Server) dispatchPlan(ctx context.Context, plan *xmldom.Element, rctx *registry.Context, defaultService string, v soap.Version) (*httpx.Response, time.Duration, *soap.Fault) {
	entries := plan.ChildElements()
	if len(entries) == 0 {
		return nil, 0, soap.ClientFault("%s has no steps", ElemExecutionPlan)
	}
	s.packed.Add(1)

	nodes := make([]*planNode, len(entries))
	for i, el := range entries {
		node, fault := decodePlanStep(el, defaultService, i, len(entries))
		if fault != nil {
			return nil, 0, fault
		}
		nodes[i] = node
	}
	// Index children for wakeups, deduplicating multiple references to
	// the same parent (e.g. two parameters both reading step 0).
	for i, n := range nodes {
		seen := map[int]bool{}
		for _, d := range n.deps {
			if !seen[d.step] {
				seen[d.step] = true
				nodes[d.step].children = append(nodes[d.step].children, i)
			}
		}
	}

	results := make([]*rpcResult, len(nodes))
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(len(nodes))

	var schedule func(idx int)
	runNode := func(idx int) {
		defer wg.Done()
		node := nodes[idx]

		mu.Lock()
		// Substitute resolved references into the parameters.
		for _, d := range node.deps {
			src := results[d.step]
			if src == nil {
				// Cannot happen: scheduling guarantees dependency order.
				node.fault = soap.ServerFault("internal: step %d ran before its dependency %d", idx, d.step)
				break
			}
			if src.fault != nil {
				node.fault = soap.ClientFault("step %d depends on step %d, which faulted: %s", idx, d.step, src.fault.String)
				break
			}
			v, ok := findResult(src.results, d.result)
			if !ok {
				node.fault = soap.ClientFault("step %d references result %q of step %d, which has no such result", idx, d.result, d.step)
				break
			}
			node.req.params[d.paramIndex].Value = v
		}
		fault := node.fault
		mu.Unlock()

		var res *rpcResult
		if fault != nil {
			res = &rpcResult{id: node.req.id, service: node.req.service, op: node.req.op, fault: fault}
		} else if ctx.Err() != nil {
			res = s.abandonResult(ctx, node.req)
		} else {
			res = s.execute(ctx, node.req, rctx)
		}

		mu.Lock()
		results[idx] = res
		// Wake children whose last dependency this was.
		var ready []int
		for _, child := range node.children {
			delete(nodes[child].waitsOn, idx)
			if len(nodes[child].waitsOn) == 0 && !nodes[child].scheduled {
				nodes[child].scheduled = true
				ready = append(ready, child)
			}
		}
		mu.Unlock()
		for _, child := range ready {
			schedule(child)
		}
	}
	schedule = func(idx int) {
		if !s.staged() {
			runNode(idx)
			return
		}
		// TrySubmit rather than Submit: a worker scheduling its children
		// must never block on a full queue, or all workers could block on
		// each other. On overload the step runs inline on the current
		// goroutine instead (bounded by the plan's chain depth).
		task := s.appTask(ctx, nodes[idx].req, func() { runNode(idx) })
		s.sampleAppQueue()
		switch err := s.appPool.TrySubmit(task); err {
		case nil:
		case stage.ErrQueueFull:
			task()
		default:
			mu.Lock()
			results[idx] = &rpcResult{id: nodes[idx].req.id, service: nodes[idx].req.service,
				op: nodes[idx].req.op, fault: soap.ServerFault("application stage unavailable: %v", err)}
			mu.Unlock()
			wg.Done()
		}
	}

	// Launch the roots; everything else is woken by its dependencies.
	var roots []int
	for i, n := range nodes {
		if len(n.waitsOn) == 0 {
			n.scheduled = true
			roots = append(roots, i)
		}
	}
	if len(roots) == 0 {
		return nil, 0, soap.ClientFault("%s has a dependency cycle", ElemExecutionPlan)
	}
	for _, idx := range roots {
		schedule(idx)
	}
	if ctx.Done() == nil {
		wg.Wait()
	} else {
		waited := make(chan struct{})
		go func() { wg.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-ctx.Done():
		}
	}

	// Snapshot under the lock: abandoned workers may still be writing the
	// original slice; the response is assembled from this copy, with
	// unfinished slots degraded to per-item faults.
	mu.Lock()
	final := make([]*rpcResult, len(results))
	copy(final, results)
	mu.Unlock()

	asm := newPackedAssembler("")
	asm.faultCodes = &s.faultCodes
	defer asm.release()
	for i, r := range final {
		if r == nil {
			r = s.abandonResult(ctx, nodes[i].req)
		}
		if err := asm.encodeEntry(r, s.namespaceOf); err != nil {
			return nil, asm.encDur, soap.ServerFault("assembling plan response: %v", err)
		}
	}
	s.itemFaults.Add(int64(asm.itemFaults))
	resp, err := asm.finish(v, rctx.ResponseHeaders(), nil, nil)
	if err != nil {
		return encodeFailureResponse(), asm.encDur, nil
	}
	return resp, asm.encDur, nil
}

// decodePlanStep interprets one step element, extracting reference
// parameters.
func decodePlanStep(el *xmldom.Element, defaultService string, idx, total int) (*planNode, *soap.Fault) {
	// References must be recognized before generic parameter decoding, so
	// walk children manually.
	node := &planNode{waitsOn: make(map[int]bool)}
	req := &rpcRequest{id: idx, service: defaultService, op: el.Name.Local}
	if fault := req.annotate(el, "step"); fault != nil {
		return nil, fault
	}
	if req.service == "" {
		return nil, soap.ClientFault("step %q names no service", el.Name.Local)
	}
	for _, child := range el.ChildElements() {
		if ref := child.Child(NSPack, elemRef); ref != nil {
			stepStr := ref.AttrValue(attrStep)
			step, err := strconv.Atoi(stepStr)
			if err != nil || step < 0 || step >= total {
				return nil, soap.ClientFault("step %d: bad reference step %q", idx, stepStr)
			}
			if step >= idx {
				return nil, soap.ClientFault("step %d references step %d; references must point to earlier steps", idx, step)
			}
			result := ref.AttrValue(attrResult)
			if result == "" {
				return nil, soap.ClientFault("step %d: reference without a result name", idx)
			}
			node.deps = append(node.deps, planDep{
				paramIndex: len(req.params),
				step:       step,
				result:     result,
			})
			node.waitsOn[step] = true
			req.params = append(req.params, soapenc.Field{Name: child.Name.Local})
			continue
		}
		v, err := soapenc.Decode(child)
		if err != nil {
			return nil, soap.ClientFault("step %d param %q: %v", idx, child.Name.Local, err)
		}
		req.params = append(req.params, soapenc.Field{Name: child.Name.Local, Value: v})
	}
	node.req = req
	return node, nil
}

// findResult locates a named field in a result list; a dotted name
// ("offer.price") digs into struct results.
func findResult(results []soapenc.Field, name string) (soapenc.Value, bool) {
	head, rest, nested := strings.Cut(name, ".")
	for _, f := range results {
		if f.Name != head {
			continue
		}
		if !nested {
			return f.Value, true
		}
		st, ok := f.Value.(*soapenc.Struct)
		if !ok {
			return nil, false
		}
		return findResult(st.Fields, rest)
	}
	return nil, false
}
