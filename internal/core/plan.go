package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/soap"
	"repro/internal/soapenc"
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

// planRef is a parameter that refers to a result of an earlier step: what
// StepHandle.Ref returns, and what decodeStep reads an spi:ref as.
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
		if ref, ok := param.Value.(*planRef); ok && ref.step >= len(p.steps) && p.buildErr == nil {
			p.buildErr = fmt.Errorf("core: step %d references step %d, which is not earlier", len(p.steps), ref.step)
		}
	}
	p.steps = append(p.steps, batchEntry{service: service, op: op, ns: p.client.NamespaceOf(service), params: params})
	p.calls = append(p.calls, h.Call)
	p.client.calls.Add(1)
	return h
}

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
//
// The server reads and runs a plan as it does a batch (dispatchPacked); what
// is a plan's own is here: its references, and the order they impose on the
// dispatch machine.

// decodeStep interprets the plan step at position idx as decodeRequestElement
// does a packed entry, except that a parameter whose child is spi:ref decodes
// to a *planRef, which stepInputs replaces with the result it names. A
// reference to this step or a later one ends the decoding: linkPlan faults it
// once the number of steps is known.
func decodeStep(el *xmldom.Element, service string, idx int) (*rpcRequest, *soap.Fault) {
	req := &rpcRequest{id: idx, service: service, op: el.Name.Local}
	if fault := req.annotate(el, "step"); fault != nil {
		return nil, fault
	}
	if req.service == "" {
		return nil, soap.ClientFault("step %q names no service", el.Name.Local)
	}
	for _, n := range el.Children {
		child, ok := n.(*xmldom.Element)
		if !ok {
			continue
		}
		ref := child.Child(NSPack, elemRef)
		if ref == nil {
			v, err := soapenc.Decode(child)
			if err != nil {
				return nil, soap.ClientFault("step %d param %q: %v", idx, child.Name.Local, err)
			}
			req.params = append(req.params, soapenc.Field{Name: child.Name.Local, Value: v})
			continue
		}
		stepStr := ref.AttrValue(attrStep)
		step, err := strconv.Atoi(stepStr)
		if err != nil || step < 0 {
			return nil, soap.ClientFault("step %d: bad reference step %q", idx, stepStr)
		}
		r := &planRef{step: step, result: ref.AttrValue(attrResult)}
		req.params = append(req.params, soapenc.Field{Name: child.Name.Local, Value: r})
		if step >= idx {
			break
		}
		if r.result == "" {
			return nil, soap.ClientFault("step %d: reference without a result name", idx)
		}
	}
	return req, nil
}

// linkPlan links the steps of a plan that has been read whole, each to the
// steps whose results it reads. The first step in document order that
// faulted, or that refers to itself or a later step, faults the whole plan.
func linkPlan(d *dispatch) *soap.Fault {
	n := len(d.slots)
	for i := range d.slots {
		req := d.slots[i].req
		if req == nil {
			return d.slots[i].res.fault
		}
		for _, p := range req.params {
			ref, ok := p.Value.(*planRef)
			switch {
			case !ok:
				continue
			case ref.step >= n:
				return soap.ClientFault("step %d: bad reference step %q", i, strconv.Itoa(ref.step))
			case ref.step >= i:
				return soap.ClientFault("step %d references step %d; references must point to earlier steps", i, ref.step)
			}
			// Once for each step i reads, however many parameters read it.
			if w := d.next[ref.step]; len(w) == 0 || w[len(w)-1] != int32(i) {
				d.next[ref.step] = append(w, int32(i))
				d.wait[i]++
			}
		}
	}
	return nil
}

// stepInputs puts in place of step i's references the results they name,
// from the answers of the steps it reads, every one of them answered. A step
// whose input faulted, or lacks the result named, is answered with a fault of
// its own, which stepInputs returns, and does not run.
func stepInputs(d *dispatch, i int, req *rpcRequest) *rpcResult {
	for k, p := range req.params {
		ref, ok := p.Value.(*planRef)
		if !ok {
			continue
		}
		src := d.slots[ref.step].res
		if src.fault != nil {
			return req.faulted(soap.ClientFault("step %d depends on step %d, which faulted: %s", i, ref.step, src.fault.String))
		}
		v, ok := findResult(src.results, ref.result)
		if !ok {
			return req.faulted(soap.ClientFault("step %d references result %q of step %d, which has no such result", i, ref.result, ref.step))
		}
		req.params[k].Value = v
	}
	return nil
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
