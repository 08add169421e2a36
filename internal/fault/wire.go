package fault

import (
	"errors"
	"sync/atomic"

	"repro/internal/soap"
)

// The canonical dotted refinement codes. SOAP 1.1 faultcode values are
// QNames whose local part may be dotted for refinement (spec §4.4.1);
// these refine Server the way Axis-era stacks did. They are the only
// fault-code string literals in the tree — `make vet-faults` enforces
// that nothing outside this package (tests aside) spells them again.
const (
	WireTimeout   = "Server.Timeout"
	WireBusy      = "Server.Busy"
	WireCancelled = "Server.Cancelled"
)

// WireCode maps a taxonomy value to the SOAP fault code it serializes as.
// This switch and Classify's inverse are the entire taxonomy↔wire
// mapping; byte parity of every emitted fault is pinned by the
// fault-corpus goldens in internal/core and internal/gateway.
//
// The admission-shed and upstream-unavailable refinements deliberately
// collapse onto Server.Busy: both mean "the operation never started,
// re-send freely", and the wire contract predates the finer taxonomy.
func WireCode(f *F) string {
	switch f.code {
	case CodeTimeout:
		return WireTimeout
	case CodeCancelled:
		return WireCancelled
	case CodeBusy, CodeAdmissionShed, CodeUpstreamUnavailable:
		return WireBusy
	case CodeProtocol:
		if f.wire != "" {
			return f.wire
		}
		return soap.FaultClient
	default:
		if f.wire != "" {
			return f.wire
		}
		return soap.FaultServer
	}
}

// ToSOAP is the single encode site: taxonomy value → SOAP fault. Context
// fields are dropped — the production wire format carries only
// faultcode/faultstring(/faultactor), byte-identical to what the stack
// emitted before the taxonomy existed.
func ToSOAP(f *F) *soap.Fault {
	return &soap.Fault{Code: WireCode(f), String: f.text, Actor: f.actor}
}

// Classify is the single decode site: SOAP fault → taxonomy value. The
// returned fault wraps sf (Unwrap exposes it), so errors.As against
// *soap.Fault and the error text both stay exactly what they were before
// classification.
func Classify(sf *soap.Fault) *F {
	f := &F{text: sf.String, actor: sf.Actor, cause: sf}
	switch sf.Code {
	case WireTimeout:
		f.code = CodeTimeout
	case WireBusy:
		f.code = CodeBusy
	case WireCancelled:
		f.code = CodeCancelled
	case soap.FaultClient, soap.FaultVersionMismatch, soap.FaultMustUnderstand:
		f.code = CodeProtocol
		f.wire = sf.Code
	default:
		f.code = CodeApp
		f.wire = sf.Code
	}
	return f
}

// ClassifyError walks an error chain to a taxonomy value: a *F anywhere
// in the chain is returned as-is; otherwise a *soap.Fault in the chain is
// classified; otherwise nil (not a fault — a transport or context error).
func ClassifyError(err error) *F {
	var f *F
	if errors.As(err, &f) {
		return f
	}
	var sf *soap.Fault
	if errors.As(err, &sf) {
		return Classify(sf)
	}
	return nil
}

// wireSlot indexes Counters by emitted fault code.
type wireSlot uint8

const (
	slotTimeout wireSlot = iota
	slotBusy
	slotCancelled
	slotClient
	slotServer
	slotVersionMismatch
	slotMustUnderstand
	slotOther
	slotReject
	numSlots
)

// slotNames are the counter keys as they appear in /spi/stats, admin
// GetStats and the exporter: the wire fault codes themselves.
var slotNames = [numSlots]string{
	WireTimeout, WireBusy, WireCancelled,
	soap.FaultClient, soap.FaultServer,
	soap.FaultVersionMismatch, soap.FaultMustUnderstand,
	"other", "HTTP.400",
}

func slotOf(code string) wireSlot {
	switch code {
	case WireTimeout:
		return slotTimeout
	case WireBusy:
		return slotBusy
	case WireCancelled:
		return slotCancelled
	case soap.FaultClient:
		return slotClient
	case soap.FaultServer, "":
		return slotServer
	case soap.FaultVersionMismatch:
		return slotVersionMismatch
	case soap.FaultMustUnderstand:
		return slotMustUnderstand
	default:
		return slotOther
	}
}

// Counters tallies emitted faults per wire code. The zero value is ready
// to use and safe for concurrent access.
type Counters struct {
	slots [numSlots]atomic.Int64
}

// NoteSOAP records one emitted SOAP fault (whole-message or per-item).
func (c *Counters) NoteSOAP(sf *soap.Fault) {
	if sf == nil {
		return
	}
	c.slots[slotOf(sf.Code)].Add(1)
}

// Count is the tally under one wire code.
func (c *Counters) Count(code string) int64 { return c.slots[slotOf(code)].Load() }

// NoteReject records one request the transport refused with HTTP 400 before
// any envelope was read — a protocol reject with no SOAP fault to its name,
// counted as "HTTP.400". A nil receiver counts nothing.
func (c *Counters) NoteReject() {
	if c != nil {
		c.slots[slotReject].Add(1)
	}
}

// Tally is where a node counts the faults it writes: Faults the whole
// messages, ItemFaults the entries of packed responses, and Codes both by wire
// code, beside the transport's HTTP 400 rejects, which answer no envelope.
// Each fault is counted once, by the writer that emits it, so Codes less its
// "HTTP.400" tally sums to Faults + ItemFaults. The zero value is ready.
type Tally struct {
	Faults     atomic.Int64
	ItemFaults atomic.Int64
	Codes      Counters
}

// CodeCount is one per-fault-code tally.
type CodeCount struct {
	Code  string
	Count int64
}

// Snapshot returns the non-zero tallies in fixed wire-code order.
func (c *Counters) Snapshot() []CodeCount {
	var out []CodeCount
	for i := wireSlot(0); i < numSlots; i++ {
		if n := c.slots[i].Load(); n > 0 {
			out = append(out, CodeCount{Code: slotNames[i], Count: n})
		}
	}
	return out
}
