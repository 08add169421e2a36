package core

import (
	"repro/internal/soap"
	"repro/internal/xmldom"
)

// The entry-interceptor chain mirrors the architecture the paper built on:
// "Due to the handler chains model, which is the Axis's architecture, we
// implemented our technique as server handlers. So, services code need
// not be modified." (§3.6). In this implementation the pack/plan
// dispatcher plays the role of the pivot, and user-supplied entry
// interceptors run in front of it the way Axis request handlers did — for
// logging, metering, validation, or request rewriting — again with no
// change to service code.

// EntryInfo describes one body entry as an EntryInterceptor sees it.
type EntryInfo struct {
	// Target is the HTTP request target, e.g. "/services/Echo".
	Target string
	// DefaultService is the service addressed by the URL ("" on the pack
	// endpoint).
	DefaultService string
	// Version is the request's SOAP version.
	Version soap.Version
	// Index is the entry's position: the i-th child of a Parallel_Method,
	// or 0 for a single call.
	Index int
	// Packed reports whether the entry arrived inside a Parallel_Method.
	Packed bool
}

// EntryInterceptor is the server's handler-chain hook: it runs once per
// packed entry (and once for a single call), as the entry's subtree closes
// — for a packed message, before the rest of the envelope has even been
// parsed. It may inspect the entry, replace it (return a non-nil element),
// or reject it with a fault: for a packed entry the fault becomes that
// entry's per-item fault, for a single call the message fault. It never
// sees the whole envelope and has no response-side hook.
type EntryInterceptor func(entry *xmldom.Element, info *EntryInfo) (*xmldom.Element, *soap.Fault)

// runEntryInterceptors applies the configured entry interceptors in
// order, threading replacements through. On fault the entry is returned
// unchanged alongside it.
func runEntryInterceptors(ics []EntryInterceptor, entry *xmldom.Element, info *EntryInfo) (*xmldom.Element, *soap.Fault) {
	for _, ic := range ics {
		repl, fault := ic(entry, info)
		if fault != nil {
			return entry, fault
		}
		if repl != nil {
			entry = repl
		}
	}
	return entry, nil
}
