package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/httpx"
)

// Resilience fault codes, re-exported from the error core. SOAP 1.1
// faultcode values are QNames whose local part may be dotted for
// refinement (spec §4.4.1: "more specific information ... using the '.'
// character"); these refine Server the way Axis-era stacks did. The
// literals themselves live in internal/fault's envelope edge — the only
// place allowed to spell them (`make vet-faults`).
const (
	// FaultCodeTimeout marks work abandoned because a deadline expired:
	// an unfinished entry of a packed message whose envelope deadline
	// ran out, or an operation that overran the server's per-operation
	// deadline. Delivered per item inside Parallel_Response entries so
	// finished companions still return real results (§4.3's per-item
	// fault requirement applied to deadlines).
	FaultCodeTimeout = fault.WireTimeout
	// FaultCodeBusy marks a request shed at admission: the application
	// stage queue was full and the request had no deadline to wait until,
	// so the operation never started. Always safe to retry.
	FaultCodeBusy = fault.WireBusy
	// FaultCodeCancelled marks work abandoned because the caller
	// disconnected or its propagated context was cancelled before any
	// deadline expired.
	FaultCodeCancelled = fault.WireCancelled
)

// IsTimeoutFault reports whether err classifies to the taxonomy's
// deadline-expiry value (the per-item/per-operation timeout fault).
func IsTimeoutFault(err error) bool {
	f := fault.ClassifyError(err)
	return f != nil && errors.Is(f, fault.Timeout)
}

// IsBusyFault reports whether err classifies to a retryable overload
// fault (admission shed, upstream unavailable, or a plain Server.Busy off
// the wire), meaning the operation never started and the call can be
// retried regardless of idempotency.
func IsBusyFault(err error) bool {
	f := fault.ClassifyError(err)
	return f != nil && errors.Is(f, fault.Retryable)
}

// RetryPolicy governs client-side retries of failed exchanges:
// exponential backoff with jitter between attempts, honoring the call's
// context throughout.
//
// What is retried depends on what failed and whether the operation was
// marked idempotent (Client.MarkIdempotent):
//
//   - connect failures (the request was never written) and Server.Busy
//     faults (the server shed the request before starting it) are always
//     retried — re-sending cannot double-execute anything;
//   - any other transport error or deadline expiry after the request was
//     sent is retried only for idempotent operations, because the server
//     may have executed the request even though the response was lost.
//
// The zero value retries nothing; use DefaultRetryPolicy for sensible
// defaults. Fields left zero fall back to the defaults noted below.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 3). Values below 2 disable retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 20ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 2s).
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// Jitter is the random fraction applied to each delay: the slept
	// duration is delay * (1 + Jitter*(2u-1)) for uniform u in [0,1)
	// (default 0.2). Zero Jitter gives deterministic backoff.
	Jitter float64

	// Sleep waits between attempts; it must return early with the
	// context's error when ctx is done. Nil means a timer-based wait.
	// It is a seam for fake clocks in tests.
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand supplies the jitter's uniform variate in [0,1). Nil means
	// math/rand. It is a seam for deterministic tests.
	Rand func() float64
}

// DefaultRetryPolicy returns the recommended policy: 3 attempts, 20ms
// base delay doubling to a 2s cap, 20% jitter.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 3, BaseDelay: 20 * time.Millisecond,
		MaxDelay: 2 * time.Second, Multiplier: 2, Jitter: 0.2}
}

// Attempts returns the effective attempt budget: MaxAttempts, or 3 when it
// is not set.
func (p *RetryPolicy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

// backoff returns the delay to sleep after the attempt-th failed try
// (attempt counts from 1), jitter included.
func (p *RetryPolicy) backoff(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(base)
	for i := 1; i < attempt; i++ {
		d *= mult
		if d >= float64(maxd) {
			d = float64(maxd)
			break
		}
	}
	if p.Jitter > 0 {
		u := p.uniform()
		d *= 1 + p.Jitter*(2*u-1)
	}
	if d > float64(maxd) {
		d = float64(maxd)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

var retryRandMu sync.Mutex

// uniform draws the jitter variate through the seam or math/rand.
func (p *RetryPolicy) uniform() float64 {
	if p.Rand != nil {
		return p.Rand()
	}
	retryRandMu.Lock()
	defer retryRandMu.Unlock()
	return rand.Float64()
}

// Wait sleeps out the backoff after the attempt-th failed try (attempt
// counts from 1) through Sleep, or on a timer when Sleep is nil. It returns
// ctx's error, early, once ctx is done.
func (p *RetryPolicy) Wait(ctx context.Context, attempt int) error {
	d := p.backoff(attempt)
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable classifies an attempt's error. idempotent widens the class to
// errors where the request may already have executed.
func retryable(err error, idempotent bool) bool {
	if err == nil {
		return false
	}
	// Context expiry/cancellation of the call itself is never retried:
	// the caller's budget is spent.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var dialErr *httpx.DialError
	if errors.As(err, &dialErr) {
		return true // never sent: always safe
	}
	if f := fault.ClassifyError(err); f != nil {
		// A fault is a definitive answer, not a transport loss. The only
		// faults worth re-sending are the ones whose operation is known
		// never to have started — exactly what fault.Retryable matches
		// (admission shed, upstream unavailable, plain busy).
		return errors.Is(f, fault.Retryable)
	}
	// Transport error after the request went out (connection reset, read
	// deadline on the conn, truncated response): the server may have
	// executed it, so only idempotent operations retry.
	return idempotent
}

// withRetry runs fn under the client's retry policy. fn is the whole
// exchange for one attempt; idempotent reflects the operation(s) involved.
func (c *Client) withRetry(ctx context.Context, idempotent bool, fn func() error) error {
	p := c.cfg.Retry
	if p == nil {
		return fn()
	}
	attempts := p.Attempts()
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || attempt >= attempts || !retryable(err, idempotent) || ctx.Err() != nil {
			return err
		}
		c.resil.Retries.Inc()
		if serr := p.Wait(ctx, attempt); serr != nil {
			// The deadline or the caller ended the backoff: that is the
			// call's error, and the attempt's stays inside it.
			return fmt.Errorf("%w during retry backoff after: %w", serr, err)
		}
	}
}
