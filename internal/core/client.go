package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/msgcache"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/trace"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// HeaderDeadline is the HTTP request header that propagates the client's
// remaining deadline budget to the server, in integer milliseconds. The
// server derives the dispatch context's deadline from it (minus a grace
// period so the degraded response still reaches the client in time).
const HeaderDeadline = "SPI-Deadline"

// HeaderTrace is the HTTP request header that propagates the client's
// trace id to the server, so spans recorded on both sides of one exchange
// correlate. Sent only when the client's tracer is enabled.
const HeaderTrace = "SPI-Trace"

// HeaderProvider contributes header blocks to outgoing envelopes — the
// client-side extension point WS-Security plugs into. body is the wire bytes
// of the body entries, exactly as the document about to be posted carries
// them, available for signing. It is valid only during the call. MakeHeaders
// runs once per attempt, so a retry goes out under fresh blocks.
type HeaderProvider interface {
	MakeHeaders(body []byte) ([]*xmldom.Element, error)
}

// ClientConfig configures an SPI client.
type ClientConfig struct {
	// Dial opens a connection to the server. Required.
	Dial httpx.Dialer
	// KeepAlive reuses connections across calls. The paper's measured
	// baselines dial per message (false); setting true isolates the
	// header-overhead component in ablations.
	KeepAlive bool
	// PipelineWindow is the pipelining window of a keep-alive connection:
	// concurrent calls share a connection, up to this many in flight with
	// FIFO responses, instead of each claiming one. It needs a server with
	// pipelining enabled (ServerConfig.PipelineWindow / httpx
	// Server.MaxPipeline). 0 or 1: one exchange per connection.
	PipelineWindow int
	// PathPrefix must match the server's (default "/services/").
	PathPrefix string
	// Timeout bounds one HTTP exchange as a connection deadline; zero means
	// none. It is not sent: a call's budget is its context's deadline.
	Timeout time.Duration
	// HeaderProviders contribute header blocks to every request.
	HeaderProviders []HeaderProvider
	// MaxBodyBytes caps response bodies; zero means the httpx default.
	MaxBodyBytes int64
	// SOAP12 sends SOAP 1.2 envelopes (default is the paper's SOAP 1.1).
	// The server replies in kind.
	SOAP12 bool
	// TemplateCache enables parameterized client-side message caching for
	// single (unpacked) calls — the §2.2 related-work optimization of
	// Devaram & Andresen [1] / differential serialization [3]: repeated
	// calls with the same parameter shape splice their values into a
	// cached serialized envelope instead of re-serializing. Orthogonal to
	// packing; ignored when HeaderProviders are set (headers vary per
	// message).
	TemplateCache bool

	// Retry, when non-nil, retries failed exchanges with backoff. See
	// RetryPolicy for what is eligible; mark operations idempotent with
	// Client.MarkIdempotent to widen it.
	Retry *RetryPolicy

	// Tracer, when non-nil, records client-side spans (client.pack,
	// client.send, client.unpack) for every call and propagates a trace id
	// to the server in the SPI-Trace header. Share one Tracer between a
	// client and a server to see a message's full path in one sink. Nil
	// disables tracing; the disabled path costs one branch per hop.
	Tracer *trace.Tracer
}

// ClientStats counts client-side traffic.
type ClientStats struct {
	Calls     int64 // service invocations issued (batched or not)
	Envelopes int64 // SOAP messages sent
	Batches   int64 // packed messages sent
	Faults    int64 // calls that returned a fault
	// Resilience counts retries and abandoned work: Retries are backoff
	// re-sends, Timeouts are exchanges that died of deadline expiry,
	// Cancellations are exchanges abandoned by explicit cancel.
	Resilience metrics.ResilienceSummary
}

// Client issues SOAP calls, either one per message (Call/Go) or packed many
// to a message (NewBatch) — the SPI pack interface.
type Client struct {
	cfg  ClientConfig
	http *httpx.Client

	mu         sync.RWMutex
	namespaces map[string]string
	idempotent map[string]bool // "Service.op" -> safe to re-send

	templates *msgcache.Cache // nil unless TemplateCache

	calls     atomic.Int64
	envelopes atomic.Int64
	batches   atomic.Int64
	faults    atomic.Int64
	resil     metrics.Resilience
}

// NewClient builds a client from the configuration.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("core: ClientConfig.Dial is required")
	}
	if cfg.PathPrefix == "" {
		cfg.PathPrefix = "/services/"
	}
	if !strings.HasSuffix(cfg.PathPrefix, "/") {
		cfg.PathPrefix += "/"
	}
	c := &Client{
		cfg: cfg,
		http: &httpx.Client{
			Dial:         cfg.Dial,
			KeepAlive:    cfg.KeepAlive,
			MaxPerConn:   cfg.PipelineWindow,
			Timeout:      cfg.Timeout,
			MaxBodyBytes: cfg.MaxBodyBytes,
			Tracer:       cfg.Tracer,
		},
		namespaces: make(map[string]string),
		idempotent: make(map[string]bool),
	}
	// The template cache renders SOAP 1.1 envelopes; it is disabled when
	// headers vary per message or the client speaks SOAP 1.2.
	if cfg.TemplateCache && len(cfg.HeaderProviders) == 0 && !cfg.SOAP12 {
		c.templates = msgcache.New()
	}
	return c, nil
}

// Close releases pooled connections.
func (c *Client) Close() { c.http.Close() }

// Stats returns a snapshot of client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:      c.calls.Load(),
		Envelopes:  c.envelopes.Load(),
		Batches:    c.batches.Load(),
		Faults:     c.faults.Load(),
		Resilience: c.resil.Snapshot(),
	}
}

// MarkIdempotent declares operations of a service safe to re-send even
// when a previous attempt may have executed (reads, pure computations,
// writes with client-supplied keys). The retry policy widens from
// connect-only retries to transport-error retries for marked operations.
func (c *Client) MarkIdempotent(service string, ops ...string) {
	c.mu.Lock()
	for _, op := range ops {
		c.idempotent[service+"."+op] = true
	}
	c.mu.Unlock()
}

// isIdempotent reports whether Service.op was marked idempotent.
func (c *Client) isIdempotent(service, op string) bool {
	c.mu.RLock()
	ok := c.idempotent[service+"."+op]
	c.mu.RUnlock()
	return ok
}

// noteOutcome feeds the resilience counters from a finished logical
// call's error.
func (c *Client) noteOutcome(err error) {
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		c.resil.Timeouts.Inc()
	case errors.Is(err, context.Canceled):
		c.resil.Cancellations.Inc()
	}
}

// Define associates a service name with its XML namespace, overriding the
// "urn:spi:<name>" convention. In a full deployment this mapping comes from
// the service's WSDL (see package wsdl).
func (c *Client) Define(service, namespace string) {
	c.mu.Lock()
	c.namespaces[service] = namespace
	c.mu.Unlock()
}

// NamespaceOf returns the namespace used for a service's request elements.
func (c *Client) NamespaceOf(service string) string {
	c.mu.RLock()
	ns, ok := c.namespaces[service]
	c.mu.RUnlock()
	if ok {
		return ns
	}
	return "urn:spi:" + service
}

// Call invokes one operation synchronously in its own SOAP message — the
// traditional interface ("No Optimization" in the evaluation).
func (c *Client) Call(service, op string, params ...soapenc.Field) ([]soapenc.Field, error) {
	return c.CallCtx(context.Background(), service, op, params...)
}

// CallCtx is Call under a context: the deadline bounds the whole logical
// call (every retry attempt and backoff included) and is propagated to
// the server, and cancellation ends the exchange in flight (see httpx
// Client.DoCtx).
func (c *Client) CallCtx(ctx context.Context, service, op string, params ...soapenc.Field) ([]soapenc.Field, error) {
	c.calls.Add(1)
	ctx = c.traceCtx(ctx)
	req, err := c.newCallRequest(ctx, service, op, params)
	if err != nil {
		return nil, err
	}
	defer req.release()
	var results []soapenc.Field
	err = c.withRetry(ctx, c.isIdempotent(service, op), func() error {
		r, rerr := c.callOnce(ctx, &req, service, op)
		results = r
		return rerr
	})
	c.noteOutcome(err)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// callOnce performs one attempt of a single-message call. The response is
// read into a pooled arena released before return; everything handed to the
// caller (decoded params, detached faults) is copied off it by then.
func (c *Client) callOnce(ctx context.Context, req *request, service, op string) ([]soapenc.Field, error) {
	r, err := c.post(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	defer r.release()
	if f := r.env.Fault(); f != nil {
		c.faults.Add(1)
		// Classify at the decode edge: callers get a taxonomy value
		// (errors.Is(err, fault.Timeout) etc.) whose Error text and
		// errors.As(*soap.Fault) behaviour are unchanged.
		return nil, fault.Classify(detachFault(f))
	}
	if len(r.env.Body) != 1 {
		return nil, fmt.Errorf("core: response has %d body entries", len(r.env.Body))
	}
	results, err := soapenc.DecodeParams(r.env.Body[0])
	if tr := c.cfg.Tracer; tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageClientUnpack,
			ID: -1, Op: service + "." + op, Start: r.start, Service: time.Since(r.start)})
	}
	return results, err
}

// traceCtx attaches a fresh trace id to ctx when tracing is enabled and
// the caller has not already established one (a Batch's calls share the
// batch's id).
func (c *Client) traceCtx(ctx context.Context) context.Context {
	tr := c.cfg.Tracer
	if !tr.Enabled() || trace.FromContext(ctx) != 0 {
		return ctx
	}
	return trace.NewContext(ctx, tr.Begin())
}

// request is one request document of this client: its body is written once,
// by the entry writers, and posted as often as the retry policy asks. A
// client without header providers writes the body straight into the envelope,
// so the document is done when the body is. With providers the body goes to a
// fragment of its own — its bytes are what they sign, and their blocks precede
// it on the wire — and every attempt frames that fragment under blocks made
// for it: a nonce is good for one message.
type request struct {
	target string
	enc    *soap.StreamEncoder
	body   *xmltext.Emitter // the fragment providers sign; nil without providers
	doc    []byte           // the finished document, in enc's buffer
	// packStart is when the fragment's writing began, until the first attempt
	// has taken it: that attempt's client.pack span covers the body as well
	// as its framing, so an attempt records one span with providers or without.
	packStart time.Time
}

// release recycles the request's buffers; doc is invalid from then on.
func (r *request) release() {
	r.enc.Release()
	xmltext.ReleaseEmitter(r.body)
}

// newRequest encodes a request bound for target, whose body entries write
// streams. The caller releases it.
func (c *Client) newRequest(ctx context.Context, target string, write func(em *xmltext.Emitter) error) (request, error) {
	packStart := c.cfg.Tracer.Now()
	r := request{target: target, enc: soap.NewStreamEncoder()}
	em := r.enc.Emitter()
	if len(c.cfg.HeaderProviders) > 0 {
		r.body = xmltext.AcquireEmitter()
		em = r.body
	} else {
		r.enc.Begin(c.version(), nil)
	}
	err := write(em)
	if err == nil {
		if r.body != nil {
			err = r.body.Finish()
		} else {
			r.doc, err = r.enc.Finish()
		}
		if err != nil {
			err = fmt.Errorf("core: encoding envelope: %w", err)
		}
	}
	if err != nil {
		r.release()
		return request{}, err
	}
	if r.body != nil {
		r.packStart = packStart
	} else {
		c.notePack(ctx, target, packStart)
	}
	return r, nil
}

// newCallRequest encodes a single call: the request entry with nothing to
// inherit, or the template cache's splice of the same bytes.
func (c *Client) newCallRequest(ctx context.Context, service, op string, params []soapenc.Field) (request, error) {
	target := c.cfg.PathPrefix + service
	if c.templates != nil {
		// Template-cache fast path: splice values into the cached
		// serialized envelope, skipping the entry writer entirely.
		packStart := c.cfg.Tracer.Now()
		enc := soap.NewStreamEncoder()
		ok, err := c.templates.RenderTo(enc.Emitter(), service, c.NamespaceOf(service), op, params)
		if ok {
			c.notePack(ctx, target, packStart)
			return request{target: target, enc: enc, doc: enc.Emitter().Bytes()}, nil
		}
		enc.Release()
		if err != nil {
			return request{}, fmt.Errorf("core: template for %s.%s: %w", service, op, err)
		}
	}
	call := batchEntry{ns: c.NamespaceOf(service), op: op, params: params}
	return c.newRequest(ctx, target, func(em *xmltext.Emitter) error {
		if err := appendRequestEntry(em, &call, &batchEntry{}); err != nil {
			return fmt.Errorf("core: encoding %s.%s: %w", service, op, err)
		}
		return nil
	})
}

// notePack records the client.pack stage that began at start, when tracing.
func (c *Client) notePack(ctx context.Context, op string, start time.Time) {
	if tr := c.cfg.Tracer; tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageClientPack,
			ID: -1, Op: op, Start: start, Service: time.Since(start)})
	}
}

// post is one attempt: with header providers it has them sign the body and
// frames it under their blocks first, then it posts the document and reads
// the reply into slots (postPooled).
func (c *Client) post(ctx context.Context, r *request, slots []replySlot) (reply, error) {
	if r.body != nil {
		packStart := r.packStart
		r.packStart = time.Time{}
		if packStart.IsZero() {
			packStart = c.cfg.Tracer.Now()
		}
		var blocks []*xmldom.Element
		for _, p := range c.cfg.HeaderProviders {
			made, err := p.MakeHeaders(r.body.Bytes())
			if err != nil {
				return reply{}, fmt.Errorf("core: header provider: %w", err)
			}
			blocks = append(blocks, made...)
		}
		r.enc.Emitter().Reset()
		frameFragment(r.enc, c.version(), blocks, nil, r.body)
		var err error
		if r.doc, err = r.enc.Finish(); err != nil {
			return reply{}, fmt.Errorf("core: encoding envelope: %w", err)
		}
		c.notePack(ctx, r.target, packStart)
	}
	return c.postPooled(ctx, r.target, r.doc, slots)
}

// Call is a pending invocation: a future resolved when its response (or
// fault) arrives.
type Call struct {
	Service string
	Op      string

	done    chan struct{}
	results []soapenc.Field
	err     error
}

func newCall(service, op string) *Call {
	return &Call{Service: service, Op: op, done: make(chan struct{})}
}

func (cl *Call) resolve(results []soapenc.Field, err error) {
	cl.results = results
	cl.err = err
	close(cl.done)
}

// Done is closed when the call has completed.
func (cl *Call) Done() <-chan struct{} { return cl.done }

// Wait blocks until completion and returns the results or error.
func (cl *Call) Wait() ([]soapenc.Field, error) {
	<-cl.done
	return cl.results, cl.err
}

// Go invokes one operation asynchronously in its own SOAP message and
// connection — the "Multiple Threads" baseline of the evaluation.
func (c *Client) Go(service, op string, params ...soapenc.Field) *Call {
	return c.GoCtx(context.Background(), service, op, params...)
}

// GoCtx is Go under a context (see CallCtx for its semantics).
func (c *Client) GoCtx(ctx context.Context, service, op string, params ...soapenc.Field) *Call {
	call := newCall(service, op)
	go func() {
		results, err := c.CallCtx(ctx, service, op, params...)
		call.resolve(results, err)
	}()
	return call
}

// Batch collects calls to be packed into a single SOAP message — the SPI
// pack interface. Add calls, then Send once; each Add returns a future
// resolved by Send. A Batch is not safe for concurrent Add/Send (build it
// on one goroutine); the returned futures may be awaited anywhere.
type Batch struct {
	client *Client
	// entries and calls are parallel slices indexed by correlation id.
	entries []batchEntry
	calls   []*Call
	sent    bool
}

// batchEntry is one queued invocation in decoded form. Serialization is
// deferred to Send, where the whole packed document streams into one
// pooled buffer instead of building a request DOM per entry.
type batchEntry struct {
	service string
	op      string
	ns      string
	params  []soapenc.Field
}

// NewBatch starts an empty batch.
func (c *Client) NewBatch() *Batch {
	// Batches in the paper's range (8-128 calls) hit at most a few slice
	// growth steps from a non-trivial starting capacity.
	return &Batch{
		client:  c,
		entries: make([]batchEntry, 0, 8),
		calls:   make([]*Call, 0, 8),
	}
}

// Add appends an invocation to the batch and returns its future.
func (b *Batch) Add(service, op string, params ...soapenc.Field) *Call {
	call := newCall(service, op)
	if b.sent {
		call.resolve(nil, fmt.Errorf("core: Add after Send"))
		return call
	}
	b.add(call, params)
	return call
}

// add appends call, whose future is already handed out, with its params.
func (b *Batch) add(call *Call, params []soapenc.Field) {
	b.entries = append(b.entries, batchEntry{
		service: call.Service, op: call.Op, ns: b.client.NamespaceOf(call.Service), params: params,
	})
	b.calls = append(b.calls, call)
	b.client.calls.Add(1)
}

// Send packs every added call into one SOAP message, performs the exchange
// and resolves all futures. It returns the first transport- or
// message-level error; per-call faults are delivered through the futures.
func (b *Batch) Send() error {
	return b.SendCtx(context.Background())
}

// SendCtx is Send under a context. The deadline bounds the whole packed
// exchange and travels to the server, which degrades gracefully: entries
// it finishes in time return real results, unfinished entries come back
// as per-item Server.Timeout faults on their futures. Cancelling ctx ends
// the exchange in flight (see httpx Client.DoCtx) and resolves every
// future with the context's error.
func (b *Batch) SendCtx(ctx context.Context) error {
	if b.sent {
		return fmt.Errorf("core: batch already sent")
	}
	b.sent = true
	if len(b.calls) == 0 {
		return fmt.Errorf("core: empty batch")
	}
	return b.client.sendPacked(ctx, b.calls, b.writeBody)
}

// writeBody streams Parallel_Method carrying the first entry's namespace and
// service as the batch default, and each entry under appendRequestEntry's
// rule: the client-side assembler of §3.4.
func (b *Batch) writeBody(em *xmltext.Emitter) error {
	def := &b.entries[0]
	em.Start(namePackMethod)
	em.Attr(nameXmlnsSpi, NSPack)
	em.Attr(nameXmlnsM, def.ns)
	em.Attr(attrService, def.service)
	for i := range b.entries {
		e := &b.entries[i]
		if err := appendRequestEntry(em, e, def); err != nil {
			return fmt.Errorf("core: encoding %s.%s: %w", e.service, e.op, err)
		}
	}
	em.End()
	return nil
}

// sendPacked is the exchange of a Batch or a Plan: one document, whose body
// write streams, posted to the pack endpoint under the retry policy, and the
// Parallel_Response read into one slot a call, each entry as it closes.
// Calls resolve once the whole document has been read. Whatever fails the
// message as a whole resolves every call with that error and is returned;
// per-call faults are delivered through the calls alone. The response is
// arena-backed, so every fault handed on is detached first.
func (c *Client) sendPacked(ctx context.Context, calls []*Call, write func(*xmltext.Emitter) error) (err error) {
	defer func() {
		if err != nil {
			for _, call := range calls {
				call.resolve(nil, err)
			}
		}
	}()
	ctx = c.traceCtx(ctx)
	req, err := c.newRequest(ctx, c.packTarget(), write)
	if err != nil {
		return err
	}
	defer req.release()
	c.batches.Add(1)
	// Retrying a packed message after a transport failure that may have
	// executed it takes every operation in it marked idempotent.
	idempotent := true
	for _, call := range calls {
		idempotent = idempotent && c.isIdempotent(call.Service, call.Op)
	}
	slots := make([]replySlot, len(calls))
	var r reply
	err = c.withRetry(ctx, idempotent, func() (rerr error) {
		r, rerr = c.post(ctx, &req, slots)
		return rerr
	})
	c.noteOutcome(err)
	if err != nil {
		return err
	}
	defer r.release()
	if err := r.packedErr(); err != nil {
		if f, ok := err.(*soap.Fault); ok {
			c.faults.Add(1)
			return fault.Classify(f)
		}
		return err
	}
	// Client-side dispatcher: each call takes what its slot holds.
	for id, call := range calls {
		s := &slots[id]
		switch {
		case !s.answered:
			call.resolve(nil, NoResponse(id, call.Service, call.Op))
		case s.fault != nil:
			c.faults.Add(1)
			cf := fault.Classify(detachFault(s.fault))
			if errors.Is(cf, fault.Timeout) {
				c.resil.Timeouts.Inc()
			}
			call.resolve(nil, cf)
		case s.err != nil:
			call.resolve(nil, s.err)
		default:
			call.resolve(s.results, nil)
		}
	}
	if tr := c.cfg.Tracer; tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageClientUnpack,
			ID: -1, Op: fmt.Sprintf("batch[%d]", len(calls)), Start: r.start, Service: time.Since(r.start)})
	}
	return nil
}

// packTarget is the URL packed messages are POSTed to: the bare services
// prefix, since one message may span services.
func (c *Client) packTarget() string {
	return strings.TrimSuffix(c.cfg.PathPrefix, "/")
}

// version returns the envelope version this client speaks.
func (c *Client) version() soap.Version {
	if c.cfg.SOAP12 {
		return soap.V12
	}
	return soap.V11
}

// postPooled ships a fully-serialized envelope and reads the reply with
// readReply, into slots when it is a packed exchange's. A context deadline
// rides along as the SPI-Deadline header (remaining budget in milliseconds)
// so the server dispatches under the same clock. On success the caller must
// release the reply once it is done with it.
func (c *Client) postPooled(ctx context.Context, target string, doc []byte, slots []replySlot) (reply, error) {
	c.envelopes.Add(1)
	var fields [6]string // three name/value pairs at most: no heap slice
	extra := append(fields[:0], "SOAPAction", `""`)
	if deadline, ok := ctx.Deadline(); ok {
		if budget := time.Until(deadline); budget > 0 {
			extra = append(extra, HeaderDeadline, strconv.FormatInt(budget.Milliseconds(), 10))
		}
	}
	if id := trace.FromContext(ctx); id != 0 {
		extra = append(extra, HeaderTrace, strconv.FormatUint(id, 10))
	}
	resp, err := c.http.PostCtx(ctx, target, c.version().ContentType(), doc, extra...)
	if err != nil {
		return reply{}, err
	}
	start := c.cfg.Tracer.Now()
	r, err := readReply(resp.Body, reply{slots: slots})
	if err != nil {
		if resp.StatusCode != 200 {
			return reply{}, fmt.Errorf("core: HTTP %d: %s", resp.StatusCode, truncate(resp.Body, 200))
		}
		return reply{}, err
	}
	r.start = start
	return r, nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
