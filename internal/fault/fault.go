// Package fault is the error core of the SPI stack: a small
// Failure/Defect/Interrupt taxonomy with errors.Is/As interop and
// append-only context fields. Producers construct taxonomy
// values; the mapping to SOAP faultcode/faultstring pairs lives in exactly
// two places — ToSOAP (encode) and Classify (decode) in wire.go — so no
// other package ever owns a fault-code string. Policy predicates
// (retry, failover, breaker ejection) become errors.Is checks:
//
//	if errors.Is(err, fault.Retryable) { ... }
//
// instead of substring or code-literal matches, which is the refactor the
// ROADMAP's error-core item calls for.
package fault

import "fmt"

// Code enumerates the taxonomy. The zero value is the application-fault
// carrier: a fault that belongs to the application protocol, carried
// verbatim with whatever wire code the application chose.
type Code uint8

const (
	// CodeApp carries an application-level fault verbatim (the handler's
	// own error, or an unrecognized code classified off the wire).
	CodeApp Code = iota
	// CodeTimeout marks work abandoned because a deadline expired — an
	// unfinished packed entry, or an operation that overran the server's
	// per-operation watchdog.
	CodeTimeout
	// CodeCancelled marks work abandoned because the caller disconnected
	// or its propagated context was cancelled before any deadline expired.
	CodeCancelled
	// CodeBusy marks overload observed at the server without further
	// refinement (and is what Server.Busy classifies back to).
	CodeBusy
	// CodeAdmissionShed marks a request shed at admission: the application
	// stage queue was full and the request had no deadline to wait until,
	// so the operation never started.
	CodeAdmissionShed
	// CodeUpstreamUnavailable marks a gateway that could not place work on
	// any backend: dials refused, breakers open, failover exhausted.
	CodeUpstreamUnavailable
	// CodeProtocol marks a message the receiver rejected before dispatch:
	// malformed envelope, version mismatch, mustUnderstand miss, header
	// verification failure.
	CodeProtocol
	numCodes
)

// String returns the canonical taxonomy name (not the wire code).
func (c Code) String() string {
	switch c {
	case CodeTimeout:
		return "timeout"
	case CodeCancelled:
		return "cancelled"
	case CodeBusy:
		return "busy"
	case CodeAdmissionShed:
		return "admission-shed"
	case CodeUpstreamUnavailable:
		return "upstream-unavailable"
	case CodeProtocol:
		return "protocol"
	default:
		return "app"
	}
}

// Class partitions the taxonomy the Failure/Defect/Interrupt way: Failures
// are expected operational outcomes a caller plans around, Defects are
// bugs or bad messages, Interrupts are work stopped by the clock or the
// caller rather than by its own outcome.
type Class uint8

const (
	// ClassFailure: expected operational failure (overload, upstream
	// unavailable, the application's own declared faults).
	ClassFailure Class = iota
	// ClassDefect: the message or the program is wrong (protocol
	// rejects).
	ClassDefect
	// ClassInterrupt: the clock or the caller stopped the work (timeout,
	// cancellation).
	ClassInterrupt
)

// ClassOf maps a taxonomy code to its class.
func ClassOf(c Code) Class {
	switch c {
	case CodeTimeout, CodeCancelled:
		return ClassInterrupt
	case CodeProtocol:
		return ClassDefect
	default:
		return ClassFailure
	}
}

// sentinel is the target type behind the package's errors.Is markers.
type sentinel struct{ name string }

func (s *sentinel) Error() string { return "fault: " + s.name }

// Sentinels for errors.Is. Code sentinels match one taxonomy value each;
// Retryable matches every code whose operation is known not to have
// started (safe to re-send regardless of idempotency); the class
// sentinels match whole Failure/Defect/Interrupt partitions.
var (
	Timeout             = &sentinel{"timeout"}
	Cancelled           = &sentinel{"cancelled"}
	Busy                = &sentinel{"busy"}
	AdmissionShed       = &sentinel{"admission-shed"}
	UpstreamUnavailable = &sentinel{"upstream-unavailable"}
	Protocol            = &sentinel{"protocol"}
	App                 = &sentinel{"app"}
	Retryable           = &sentinel{"retryable"}
	Failure             = &sentinel{"failure"}
	Defect              = &sentinel{"defect"}
	Interrupt           = &sentinel{"interrupt"}
)

// Field is one appended key/value context pair. Fields never serialize on
// the wire: ToSOAP drops them.
type Field struct {
	Key   string
	Value string
}

// KeyOp is the context field key for the "Service.op" a fault belongs to.
const KeyOp = "op"

// F is a taxonomy-typed fault. Construct with New/Newf or the per-code
// helpers, append context with With, and convert at the envelope edge
// with ToSOAP/Classify.
type F struct {
	code Code
	text string
	// wire is the verbatim SOAP fault code for CodeApp and CodeProtocol
	// carriers; empty means the code's canonical mapping applies.
	wire   string
	actor  string
	fields []Field
	cause  error
}

// New returns a fault of the given taxonomy code with a literal text.
func New(code Code, text string) *F {
	return &F{code: code, text: text}
}

// Newf returns a fault of the given taxonomy code with a formatted text.
func Newf(code Code, format string, args ...any) *F {
	return New(code, fmt.Sprintf(format, args...))
}

// Timeoutf builds a CodeTimeout fault.
func Timeoutf(format string, args ...any) *F { return Newf(CodeTimeout, format, args...) }

// Cancelledf builds a CodeCancelled fault.
func Cancelledf(format string, args ...any) *F { return Newf(CodeCancelled, format, args...) }

// Shedf builds a CodeAdmissionShed fault.
func Shedf(format string, args ...any) *F { return Newf(CodeAdmissionShed, format, args...) }

// Upstreamf builds a CodeUpstreamUnavailable fault.
func Upstreamf(format string, args ...any) *F { return Newf(CodeUpstreamUnavailable, format, args...) }

// With appends one context field and returns f. Fields are append-only:
// nothing ever rewrites or removes an earlier pair, so a fault annotated
// at several layers keeps the full trail in order.
func (f *F) With(key, value string) *F {
	f.fields = append(f.fields, Field{Key: key, Value: value})
	return f
}

// Error implements the error interface. A fault classified off the wire
// reports its underlying SOAP fault's text verbatim, so wrapping changes
// nothing a caller can observe; a locally constructed fault reports the
// same "soap fault <code>: <text>" shape it will have once encoded.
func (f *F) Error() string {
	if f.cause != nil {
		return f.cause.Error()
	}
	return "soap fault " + WireCode(f) + ": " + f.text
}

// Unwrap exposes the cause (the *soap.Fault a wire classification
// wrapped, if any) to errors.Is/As.
func (f *F) Unwrap() error { return f.cause }

// Is implements the errors.Is protocol against the package sentinels.
func (f *F) Is(target error) bool {
	s, ok := target.(*sentinel)
	if !ok {
		return false
	}
	switch s {
	case Timeout:
		return f.code == CodeTimeout
	case Cancelled:
		return f.code == CodeCancelled
	case Busy:
		return f.code == CodeBusy
	case AdmissionShed:
		return f.code == CodeAdmissionShed
	case UpstreamUnavailable:
		return f.code == CodeUpstreamUnavailable
	case Protocol:
		return f.code == CodeProtocol
	case App:
		return f.code == CodeApp
	case Retryable:
		// The operation never started: admission shed, no backend placed
		// the work, or the server said "busy" without refinement.
		return f.code == CodeBusy || f.code == CodeAdmissionShed || f.code == CodeUpstreamUnavailable
	case Failure:
		return ClassOf(f.code) == ClassFailure
	case Defect:
		return ClassOf(f.code) == ClassDefect
	case Interrupt:
		return ClassOf(f.code) == ClassInterrupt
	}
	return false
}
