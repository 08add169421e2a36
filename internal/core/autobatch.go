package core

import (
	"errors"
	"time"

	"repro/internal/soapenc"
)

// AutoBatcher packs calls into shared SOAP messages automatically: calls
// issued within a flush window (or until a size cap) travel together,
// without the caller managing Batch objects. This implements the paper's
// stated future work — "we will develop automatic communication techniques
// in order not to modify the code on client side": code written against the
// plain Call interface gains packing transparently.
//
// Safe for concurrent use; that is its point — independent goroutines'
// calls coalesce into one message.
type AutoBatcher struct {
	w *BatchWindow[struct{}, autoCall]
}

// autoCall is one call waiting in the window for its batch.
type autoCall struct {
	call   *Call
	params []soapenc.Field
}

// NewAutoBatcher wraps a client. window is how long the first call in a
// batch waits for companions (default 1ms); maxBatch flushes early when
// that many calls have gathered (default 128, the largest M in the
// evaluation).
func NewAutoBatcher(c *Client, window time.Duration, maxBatch int) *AutoBatcher {
	if window <= 0 {
		window = time.Millisecond
	}
	if maxBatch <= 0 {
		maxBatch = 128
	}
	return &AutoBatcher{w: NewBatchWindow(window, maxBatch, 0, func(_ struct{}, calls []autoCall) {
		b := c.NewBatch()
		for _, ac := range calls {
			b.add(ac.call, ac.params)
		}
		// Errors surface through the batch's futures.
		_ = b.Send()
	})}
}

// Go enqueues a call into the current window and returns its future.
func (a *AutoBatcher) Go(service, op string, params ...soapenc.Field) *Call {
	call := newCall(service, op)
	if !a.w.Add(struct{}{}, autoCall{call: call, params: params}, 0) {
		call.resolve(nil, errors.New("core: autobatcher closed"))
	}
	return call
}

// Call is the synchronous form of Go.
func (a *AutoBatcher) Call(service, op string, params ...soapenc.Field) ([]soapenc.Field, error) {
	return a.Go(service, op, params...).Wait()
}

// Flush sends the current window immediately, if any.
func (a *AutoBatcher) Flush() { a.w.Flush(struct{}{}) }

// Close flushes any pending window and waits for in-flight batches.
func (a *AutoBatcher) Close() { a.w.Close() }
