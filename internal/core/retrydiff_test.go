package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/soap"
)

// oldRetryable is the pre-taxonomy retry predicate, reproduced verbatim
// from the string-matching implementation this repo shipped before
// internal/fault existed. The differential test below pins the taxonomy
// rewrite to it decision-for-decision over every error shape a client
// exchange can surface, including the idempotency gate.
func oldRetryable(err error, idempotent bool) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var dialErr *httpx.DialError
	if errors.As(err, &dialErr) {
		return true
	}
	if oldIsBusyFault(err) {
		return true
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		return false
	}
	return idempotent
}

// oldIsTimeoutFault and oldIsBusyFault are the pre-taxonomy exact-string
// predicates.
func oldIsTimeoutFault(err error) bool {
	var f *soap.Fault
	return errors.As(err, &f) && f.Code == FaultCodeTimeout
}

func oldIsBusyFault(err error) bool {
	var f *soap.Fault
	return errors.As(err, &f) && f.Code == FaultCodeBusy
}

// retryDiffCorpus is every error shape the retry layer can see: nil,
// context expiry, dial failures, transport losses, SOAP faults for each
// wire code the stack emits — bare (historical), classified (what the
// decode edges now produce), and wrapped the way exchange layers wrap.
func retryDiffCorpus() []struct {
	name string
	err  error
} {
	wireFault := func(code string) *soap.Fault {
		return &soap.Fault{Code: code, String: "text for " + code}
	}
	var corpus []struct {
		name string
		err  error
	}
	add := func(name string, err error) {
		corpus = append(corpus, struct {
			name string
			err  error
		}{name, err})
	}

	add("nil", nil)
	add("context.Canceled", context.Canceled)
	add("context.DeadlineExceeded", context.DeadlineExceeded)
	add("wrapped cancel", fmt.Errorf("exchange: %w", context.Canceled))
	add("wrapped deadline", fmt.Errorf("exchange: %w", context.DeadlineExceeded))
	add("dial error", &httpx.DialError{Err: errors.New("connection refused")})
	add("wrapped dial error", fmt.Errorf("attempt 1: %w", &httpx.DialError{Err: errors.New("refused")}))
	add("transport loss", errors.New("connection reset by peer"))
	add("wrapped transport loss", fmt.Errorf("read response: %w", errors.New("unexpected EOF")))

	for _, code := range []string{
		FaultCodeTimeout, FaultCodeBusy, FaultCodeCancelled,
		soap.FaultClient, soap.FaultServer,
		soap.FaultVersionMismatch, soap.FaultMustUnderstand,
		"urn:custom-code",
	} {
		// Bare wire fault: what detachFault returned before the taxonomy.
		add("bare "+code, wireFault(code))
		// Classified fault: what the client decode edges return now.
		add("classified "+code, fault.Classify(wireFault(code)))
		// Wrapped classified fault, as a retry or batch layer would pass it.
		add("wrapped classified "+code, fmt.Errorf("call Echo.echo: %w", fault.Classify(wireFault(code))))
	}
	return corpus
}

// TestRetryPredicateDifferential proves the taxonomy rewrite of
// retryable/IsTimeoutFault/IsBusyFault makes exactly the decisions the
// string-matching originals made, for every corpus error and both
// idempotency settings.
func TestRetryPredicateDifferential(t *testing.T) {
	for _, tc := range retryDiffCorpus() {
		for _, idem := range []bool{false, true} {
			want := oldRetryable(tc.err, idem)
			if got := retryable(tc.err, idem); got != want {
				t.Errorf("retryable(%s, idempotent=%v) = %v, old predicate said %v",
					tc.name, idem, got, want)
			}
			// RetryableError is the gateway's exported view of the same
			// predicate; it must not diverge either.
			if got := RetryableError(tc.err, idem); got != want {
				t.Errorf("RetryableError(%s, idempotent=%v) = %v, old predicate said %v",
					tc.name, idem, got, want)
			}
		}
		if got, want := IsTimeoutFault(tc.err), oldIsTimeoutFault(tc.err); got != want {
			t.Errorf("IsTimeoutFault(%s) = %v, old predicate said %v", tc.name, got, want)
		}
		if got, want := IsBusyFault(tc.err), oldIsBusyFault(tc.err); got != want {
			t.Errorf("IsBusyFault(%s) = %v, old predicate said %v", tc.name, got, want)
		}
	}
}

// TestRetryPredicateTaxonomyNative documents the one place the new
// predicate is deliberately wider than the old one: taxonomy values that
// never reach the wire (admission shed and upstream-unavailable carry
// Server.Busy there, but gateway-internal paths hand them to
// core.RetryableError pre-encode). The old predicate never saw these
// shapes, so there is nothing to differ against — this pins the intended
// semantics instead.
func TestRetryPredicateTaxonomyNative(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool // regardless of idempotency
	}{
		{fault.Shedf("queue full"), true},
		{fault.Upstreamf("no backend"), true},
		{fault.New(fault.CodeBusy, "busy"), true},
		{fault.Timeoutf("deadline"), false},
		{fault.Cancelledf("cancelled"), false},
		{fault.Classify(&soap.Fault{Code: soap.FaultClient, String: "bad envelope"}), false},
		{fault.Classify(&soap.Fault{Code: soap.FaultServer, String: "handler error"}), false},
	} {
		for _, idem := range []bool{false, true} {
			if got := retryable(tc.err, idem); got != tc.want {
				t.Errorf("retryable(%v, idempotent=%v) = %v, want %v", tc.err, idem, got, tc.want)
			}
		}
	}
}
