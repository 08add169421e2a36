package soap

import (
	"fmt"

	"repro/internal/xmldom"
)

// SOAP 1.1 fault codes (local parts; they are serialized as QNames in the
// envelope namespace).
const (
	// FaultVersionMismatch: the envelope namespace was not SOAP 1.1.
	FaultVersionMismatch = "VersionMismatch"
	// FaultMustUnderstand: a mustUnderstand header block was not understood.
	FaultMustUnderstand = "MustUnderstand"
	// FaultClient: the message was malformed or the caller is at fault.
	FaultClient = "Client"
	// FaultServer: processing failed for reasons not attributable to the message.
	FaultServer = "Server"
)

// Fault is a SOAP 1.1 Fault body entry.
type Fault struct {
	// Code is the local part of the fault code QName, e.g. "Client".
	Code string
	// String is the human-readable fault explanation.
	String string
	// Actor optionally identifies the node that faulted.
	Actor string
	// Detail optionally carries application-specific fault data.
	Detail *xmldom.Element
}

// Error implements the error interface so a *Fault can travel as a Go error.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// ClientFault returns a Client fault with a formatted message.
func ClientFault(format string, args ...any) *Fault {
	return &Fault{Code: FaultClient, String: fmt.Sprintf(format, args...)}
}

// ServerFault returns a Server fault with a formatted message.
func ServerFault(format string, args ...any) *Fault {
	return &Fault{Code: FaultServer, String: fmt.Sprintf(format, args...)}
}

// AsFault converts any error to a *Fault: an error that already is a fault
// passes through; anything else becomes a Server fault carrying the error
// text.
func AsFault(err error) *Fault {
	if err == nil {
		return nil
	}
	if f, ok := err.(*Fault); ok {
		return f
	}
	return ServerFault("%v", err)
}
