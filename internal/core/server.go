package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admin"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/stage"
	"repro/internal/trace"
	"repro/internal/wsdl"
	"repro/internal/xmldom"
)

// HeaderProcessor handles one kind of SOAP header block on the server —
// the extension point WS-Security (package wsse) plugs into. A processor
// that returns an error faults the whole message.
type HeaderProcessor interface {
	// HeaderName returns the namespace URI and local name of the blocks
	// this processor understands.
	HeaderName() (ns, local string)
	// ProcessHeader validates/consumes one matching header block. body is
	// the wire bytes of the body entries, cut verbatim out of the request
	// document, for signature verification.
	ProcessHeader(block *xmldom.Element, body []byte) error
}

// ServerConfig configures an SPI server.
type ServerConfig struct {
	// Container holds the deployed services. Required.
	Container *registry.Container

	// AppWorkers is the application-stage pool width (default 32). This is
	// the second, independent thread pool of §3.3 that executes service
	// operations.
	AppWorkers int
	// AppQueue is the application-stage queue depth (default 1024).
	AppQueue int

	// Coupled disables the staged architecture: operations execute inline
	// on the protocol goroutine, exactly the traditional coupled
	// architecture of the paper's Figure 1. Packed messages then execute
	// their requests serially. For ablation benchmarks.
	Coupled bool

	// PathPrefix is the URL prefix services are mounted under
	// (default "/services/").
	PathPrefix string

	// HeaderProcessors handle recognised header blocks (e.g. WS-Security).
	// Configuring any makes the server authenticate before it acts: the
	// entries of a packed message are decoded as they stream in, but none
	// executes until the whole document has been read and every header
	// block has been verified.
	HeaderProcessors []HeaderProcessor

	// EntryInterceptors are the server's handler chain (§3.6): they run
	// once per body entry — each Parallel_Method child or plan step, or the
	// single call — as its subtree closes, first entry outermost. A fault
	// from one becomes the entry's per-item fault inside a packed response
	// (the message fault for a plan step or a single call).
	EntryInterceptors []EntryInterceptor

	// MaxBodyBytes caps request bodies; zero means the httpx default.
	MaxBodyBytes int64

	// PipelineWindow is the transport's pipelining window (httpx
	// Server.MaxPipeline): a connection whose client sends back-to-back
	// requests decodes request N+1 while N executes, with up to
	// PipelineWindow exchanges in flight and responses written strictly in
	// request order. 0 or 1: one exchange at a time per connection.
	PipelineWindow int
	// ReadTimeout bounds reading one full request off a connection;
	// WriteTimeout bounds writing one full response. Both are connection
	// deadlines; expiry closes the connection. Zero disables the
	// respective deadline.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// OperationTimeout bounds each operation execution. An operation
	// that overruns returns a Server.Timeout fault (per item in packed
	// responses); its handler keeps running detached until it observes
	// HandlerContext.Ctx and should abort then.
	OperationTimeout time.Duration

	// Tracer, when non-nil, records server-side spans for every envelope:
	// server.protocol (parse), server.dispatch, one server.app span per
	// operation execution (queue wait vs. service time), server.assemble
	// (response encoding) — plus app-queue-depth gauges. The trace id
	// arrives in the client's SPI-Trace header, so sharing a Tracer
	// between client and server correlates both sides. Nil disables
	// tracing; the disabled path costs one branch per hop.
	Tracer *trace.Tracer

	// DebugEndpoints exposes GET /spi/stats (a JSON snapshot of
	// ServerStats plus per-stage trace summaries) and GET
	// /spi/pprof/<profile> (runtime profiles: goroutine, heap, allocs,
	// block, mutex, threadcreate) on this server. Off by default: these
	// endpoints are for operators, not for the SOAP surface.
	DebugEndpoints bool

	// AdminService deploys the cluster control-plane "Admin" service
	// (GetStats/SetState) into the container, making this server scrapable
	// by cmd/spiexporter. Off by default: the management surface is opt-in.
	// See docs/CONTROL_PLANE.md. The advertised weight starts at 1;
	// Admin.SetState changes it. It informs exporters, and gateways route by
	// their own per-backend weights.
	AdminService bool
}

// ServerStats counts server-side work, for experiments.
type ServerStats struct {
	Envelopes      int64 // SOAP envelopes processed
	Requests       int64 // service invocations executed
	PackedMessages int64 // envelopes that used Parallel_Method or Execution_Plan
	Faults         int64 // whole-message faults returned
	ItemFaults     int64 // per-item faults inside packed responses
	AppStage       stage.Stats

	// FaultCodes tallies emitted faults (whole-message and per-item) by
	// wire fault code, classified at the envelope edge by internal/fault.
	FaultCodes []fault.CodeCount

	// Resilience counts timeouts, cancellations and shed admissions
	// observed by the server's guards.
	Resilience metrics.ResilienceSummary

	// Protocol-thread phase timings per envelope.
	ParsePhase    metrics.Summary
	DispatchPhase metrics.Summary
	EncodePhase   metrics.Summary

	// EncodeIO is the byte and time volume of the response-encode stage
	// (encode.bytes / encode.ns), across the envelope encoder and the
	// streamed packed assembler.
	EncodeIO metrics.StageIOSummary

	// Operations holds per-operation execution timings, keyed
	// "Service.operation".
	Operations map[string]metrics.Summary
}

// Server is the SPI service host: an HTTP server whose protocol goroutines
// parse SOAP, dispatch operation executions to the application stage, and
// assemble responses.
type Server struct {
	cfg        ServerConfig
	httpSrv    *httpx.Server
	appPool    *stage.Pool  // nil iff Coupled
	adminState *admin.State // nil unless AdminService

	envelopes  atomic.Int64
	requests   atomic.Int64
	packed     atomic.Int64
	faults     atomic.Int64
	itemFaults atomic.Int64
	faultCodes fault.Counters
	resil      metrics.Resilience

	// Per-phase protocol-thread timings, for the overhead-breakdown
	// experiment: SOAP parse, dispatch+execute, response encode.
	phaseParse    metrics.Recorder
	phaseDispatch metrics.Recorder
	phaseEncode   metrics.Recorder
	encodeIO      metrics.StageIO

	// Per-operation execution timings, copy-on-write: an execution finds its
	// recorder with one atomic load and a pointer-keyed lookup, and only the
	// first execution of an operation publishes a new map. The container
	// never drops an operation, so the map is bounded by what is deployed.
	opStats atomic.Pointer[opRecorders]
	// svcNs is the execution-time EWMA over every operation, in
	// nanoseconds, that replies state in SPI-Load; 0 before the first.
	svcNs atomic.Int64
}

// HeaderLoad is the header in which a gateway asks a backend for its load
// and the backend states it: a reply to a request that carried it states the
// server's execution-time EWMA in whole microseconds, rounded up, so any
// sample is at least 1. A server that has executed nothing leaves it out.
// Clients never send it, so it never reaches them.
const HeaderLoad = "SPI-Load"

type opRecorders map[*registry.Operation]*metrics.Recorder

// NewServer builds a server from the configuration.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Container == nil {
		return nil, fmt.Errorf("core: ServerConfig.Container is required")
	}
	if cfg.AppWorkers <= 0 {
		cfg.AppWorkers = 32
	}
	if cfg.AppQueue <= 0 {
		cfg.AppQueue = 1024
	}
	if cfg.PathPrefix == "" {
		cfg.PathPrefix = "/services/"
	}
	if !strings.HasSuffix(cfg.PathPrefix, "/") {
		cfg.PathPrefix += "/"
	}
	s := &Server{cfg: cfg}
	s.opStats.Store(&opRecorders{})
	if !cfg.Coupled {
		pool, err := stage.NewPool("app", cfg.AppWorkers, cfg.AppQueue)
		if err != nil {
			return nil, err
		}
		s.appPool = pool
	}
	s.httpSrv = &httpx.Server{
		Handler:      s.handle,
		Rejects:      &s.faultCodes,
		MaxBodyBytes: cfg.MaxBodyBytes,
		MaxPipeline:  cfg.PipelineWindow,
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
	}
	if cfg.AdminService {
		s.adminState = admin.NewState()
		if err := admin.Deploy(cfg.Container, s, s.adminState); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// AdminStats builds the control-plane snapshot the Admin service advertises.
// Usable (with weight 1, not draining) even when AdminService is off, so
// embedders can feed their own management surface.
func (s *Server) AdminStats() admin.Stats {
	st := s.Stats()
	out := admin.Stats{
		Role:       "server",
		Weight:     1,
		Workers:    int64(st.AppStage.Workers),
		Busy:       st.AppStage.Busy,
		QueueDepth: int64(st.AppStage.Queued),
		QueueCap:   int64(st.AppStage.QueueCap),
		Inflight:   st.AppStage.Busy + int64(st.AppStage.Queued),
		Envelopes:  st.Envelopes,
		Requests:   st.Requests,
		Packed:     st.PackedMessages,
		Faults:     st.Faults,
		ItemFaults: st.ItemFaults,
		FaultCodes: admin.FaultCodes(st.FaultCodes),
	}
	if out.Idle = out.Workers - out.Busy; out.Idle < 0 {
		out.Idle = 0
	}
	if s.adminState != nil {
		out.Weight, out.Draining = s.adminState.Snapshot()
	}
	if len(st.Operations) > 0 {
		names := make([]string, 0, len(st.Operations))
		for name := range st.Operations {
			names = append(names, name)
		}
		sort.Strings(names)
		out.Ops = make([]admin.OpStat, 0, len(names))
		for _, name := range names {
			e := st.Operations[name].Export()
			out.Ops = append(out.Ops, admin.OpStat{
				Op: name, Count: e.Count, MeanUs: e.MeanUs,
				P50Us: e.P50Us, P90Us: e.P90Us, P99Us: e.P99Us,
			})
		}
	}
	return out
}

// HandleHTTP serves one already-parsed HTTP request through the full
// protocol path (tracing, deadline budget, dispatch, assembly) — the
// embedding hook the gateway uses to self-host its own Admin endpoint
// without a second listener.
func (s *Server) HandleHTTP(ctx context.Context, req *httpx.Request) *httpx.Response {
	return s.handle(ctx, req)
}

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// Close shuts down the HTTP server and drains the application stage.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	s.closePools()
	return err
}

// Shutdown drains gracefully: in-flight exchanges finish (up to the
// timeout), then connections close and the stages drain.
func (s *Server) Shutdown(timeout time.Duration) error {
	err := s.httpSrv.Shutdown(timeout)
	s.closePools()
	return err
}

func (s *Server) closePools() {
	if s.staged() {
		s.appPool.Close()
	}
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Envelopes:      s.envelopes.Load(),
		Requests:       s.requests.Load(),
		PackedMessages: s.packed.Load(),
		Faults:         s.faults.Load(),
		ItemFaults:     s.itemFaults.Load(),
	}
	if s.staged() {
		st.AppStage = s.appPool.Stats()
	}
	st.FaultCodes = s.faultCodes.Snapshot()
	st.Resilience = s.resil.Snapshot()
	st.ParsePhase = s.phaseParse.Snapshot()
	st.DispatchPhase = s.phaseDispatch.Snapshot()
	st.EncodePhase = s.phaseEncode.Snapshot()
	st.EncodeIO = s.encodeIO.Snapshot()
	if ops := *s.opStats.Load(); len(ops) > 0 {
		st.Operations = make(map[string]metrics.Summary, len(ops))
		for op, r := range ops {
			st.Operations[op.Service+"."+op.Name] = r.Snapshot()
		}
	}
	return st
}

// recordOp accumulates one operation execution time, and folds it into the
// execution-time EWMA with weight 1/8. The load and store are not one atomic
// step, so two executions finishing together may keep only one of their
// samples — a smoothed figure loses nothing it needs by that.
func (s *Server) recordOp(op *registry.Operation, d time.Duration) {
	ns := max(int64(d), 1)
	if old := s.svcNs.Load(); old > 0 {
		ns = old + (ns-old)/8
	}
	s.svcNs.Store(ns)
	for {
		cur := s.opStats.Load()
		if r := (*cur)[op]; r != nil {
			r.Record(d)
			return
		}
		// First execution of op: publish a copy that has it, then look
		// again — whether this goroutine's copy won or another's did.
		next := make(opRecorders, len(*cur)+1)
		for k, r := range *cur {
			next[k] = r
		}
		next[op] = &metrics.Recorder{}
		s.opStats.CompareAndSwap(cur, &next)
	}
}

// handle is the protocol-stage entry point: it runs on the connection's
// goroutine (the paper's protocol-processing thread). ctx is the
// transport's request context: cancelled when the client disconnects or
// the server shuts down, further bounded here by any SPI-Deadline budget
// the client propagated.
func (s *Server) handle(ctx context.Context, req *httpx.Request) *httpx.Response {
	if req.Method == "GET" {
		if s.cfg.DebugEndpoints && strings.HasPrefix(req.Target, debugPathPrefix) {
			return s.handleDebug(req)
		}
		return s.handleGet(req)
	}
	if req.Method != "POST" {
		resp := httpx.NewResponse(405, []byte("SOAP endpoint: POST only\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	defaultService, ok := s.serviceFromPath(req.Target)
	if !ok {
		resp := httpx.NewResponse(404, []byte("no such endpoint\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}

	// Adopt the client's trace id (SPI-Trace) or start a server-local
	// trace, so every span below correlates.
	tr := s.cfg.Tracer
	if tr.Enabled() {
		tid := TraceID(req)
		if tid == 0 {
			tid = tr.Begin()
		}
		ctx = trace.NewContext(ctx, tid)
	}

	// Arena-backed streaming decode. The request arena is released when the
	// response bytes have been assembled; everything that outlives the
	// exchange (decoded params, header clones, response elements) is copied
	// out by then.
	arena := xmldom.AcquireArena()
	defer xmldom.ReleaseArena(arena)

	parseStart := time.Now()
	d := soap.AcquireStreamDecoder(req.Body, arena)
	defer d.Release()
	err := d.ReadPreamble()
	parseDur := time.Since(parseStart)
	if err != nil {
		s.noteParse(ctx, req.Target, parseStart, parseDur)
		return s.faultResponse(preambleFault(err), soap.V11)
	}
	env := d.Envelope()
	s.envelopes.Add(1)

	// Header verification waits until the body has been consumed: the
	// processors' canonical input is the verbatim body spans the decoder tees
	// out, and a malformed envelope outranks any header fault. Packed entries
	// cross into application-stage workers that can outlive the request
	// (degrade path); the arena-backed header elements must not.
	headers := cloneHeaders(env.Header)

	// Apply the client's propagated deadline budget, shortened by the
	// grace period so a degraded (partial) response still reaches the
	// client before its own deadline fires.
	if budget := DeadlineBudget(req); budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ShortenBudget(budget))
		defer cancel()
	}

	dispatchStart := time.Now()
	resp, times, fault := s.dispatch(ctx, d, headers, defaultService, req.Target)
	// The body is decoded inside the dispatch — entry by entry for a packed
	// one, interleaved with starting the entries — and the response encoded
	// there too, at its tail for a single call, interleaved with it by the
	// packed assembler. That time belongs to the parse and encode phases, not
	// to the dispatch phase.
	s.noteParse(ctx, req.Target, parseStart, parseDur+times.decode)
	dispatchDur := time.Since(dispatchStart) - times.decode - times.encode
	s.phaseDispatch.Record(dispatchDur)
	if tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageDispatch,
			ID: -1, Op: req.Target, Start: dispatchStart, Service: dispatchDur})
	}
	if fault != nil {
		return s.faultResponse(fault, env.Version)
	}
	if ns := s.svcNs.Load(); ns > 0 && req.Header.Has(HeaderLoad) {
		resp.Header.Set(HeaderLoad, strconv.FormatInt((ns+999)/1000, 10))
	}
	s.phaseEncode.Record(times.encode)
	s.encodeIO.Observe(len(resp.Body), times.encode)
	if tr.Enabled() {
		if times.encodeStart.IsZero() {
			times.encodeStart = dispatchStart
		}
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageAssemble,
			ID: -1, Op: req.Target, Start: times.encodeStart, Service: times.encode})
	}
	return resp
}

// noteParse records one envelope's parse phase, the server.protocol span: the
// preamble read ahead of the dispatch plus the body decoding inside it, dur in
// all, from start.
func (s *Server) noteParse(ctx context.Context, target string, start time.Time, dur time.Duration) {
	s.phaseParse.Record(dur)
	if tr := s.cfg.Tracer; tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageProtocol,
			ID: -1, Op: target, Start: start, Service: dur})
	}
}

// malformedFault is the whole-message fault for a request document that
// does not parse as a SOAP envelope.
func malformedFault(err error) *soap.Fault {
	return soap.ClientFault("malformed envelope: %v", err)
}

// preambleFault is the whole-message fault for a document whose envelope does
// not open (ReadPreamble): VersionMismatch for an Envelope of an unknown
// version (SOAP 1.1 §4.4), malformedFault for anything else. With no version
// read, it goes out in SOAP 1.1.
func preambleFault(err error) *soap.Fault {
	var vm *soap.VersionMismatchError
	if errors.As(err, &vm) {
		return &soap.Fault{Code: soap.FaultVersionMismatch, String: vm.Error()}
	}
	return malformedFault(err)
}

// ShortenBudget is the deadline a server or gateway works to for a propagated
// budget: the budget less a grace of one fifth of it, at most 100 ms, so that a
// degraded (partial) response is assembled and shipped before the client
// itself gives up.
func ShortenBudget(budget time.Duration) time.Duration {
	return budget - min(budget/5, 100*time.Millisecond)
}

// TraceID parses the SPI-Trace header; zero means absent or malformed.
func TraceID(req *httpx.Request) uint64 {
	v := req.Header.Get(HeaderTrace)
	if v == "" {
		return 0
	}
	id, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// appTask wraps one application-stage task with a server.app span that
// splits queue wait (submit to worker pickup) from service time (the
// execution itself). With tracing disabled the task is returned untouched,
// so the hot path pays one branch and no timestamps.
func (s *Server) appTask(ctx context.Context, req *rpcRequest, run func()) stage.Task {
	tr := s.cfg.Tracer
	if !tr.Enabled() {
		return run
	}
	tid := trace.FromContext(ctx)
	submitted := time.Now()
	return func() {
		start := time.Now()
		run()
		tr.Record(trace.Span{Trace: tid, Stage: trace.StageApp, ID: req.id,
			Op: req.service + "." + req.op, Start: start,
			Queue: start.Sub(submitted), Service: time.Since(start)})
	}
}

// handleGet serves service descriptions: "GET <prefix><Service>?wsdl"
// returns the service's WSDL document, and a GET of the bare prefix lists
// the deployed services, mirroring what Axis offered on its endpoints.
func (s *Server) handleGet(req *httpx.Request) *httpx.Response {
	target := req.Target
	wantWSDL := false
	if i := strings.IndexByte(target, '?'); i >= 0 {
		wantWSDL = strings.EqualFold(target[i+1:], "wsdl")
		target = target[:i]
	}
	service, ok := s.serviceFromPath(target)
	if !ok {
		resp := httpx.NewResponse(404, []byte("no such endpoint\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	if service == "" {
		var b bytes.Buffer
		b.WriteString("Deployed services:\n")
		for _, svc := range s.cfg.Container.Services() {
			fmt.Fprintf(&b, "  %s%s?wsdl — %s\n", s.cfg.PathPrefix, svc.Name, svc.Doc)
		}
		resp := httpx.NewResponse(200, b.Bytes())
		resp.Header.Set("Content-Type", "text/plain; charset=utf-8")
		return resp
	}
	svc, found := s.cfg.Container.Service(service)
	if !found {
		resp := httpx.NewResponse(404, []byte("no such service\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	if !wantWSDL {
		resp := httpx.NewResponse(200, []byte(fmt.Sprintf("%s — %s\nAppend ?wsdl for the service description.\n", svc.Name, svc.Doc)))
		resp.Header.Set("Content-Type", "text/plain; charset=utf-8")
		return resp
	}
	var b bytes.Buffer
	if err := wsdl.Describe(svc, s.cfg.PathPrefix+svc.Name).WriteDocument(&b); err != nil {
		resp := httpx.NewResponse(500, []byte("wsdl generation failed\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	resp := httpx.NewResponse(200, b.Bytes())
	resp.Header.Set("Content-Type", "text/xml; charset=utf-8")
	return resp
}

// serviceFromPath extracts the service name from the request target.
// "/services/Echo" -> "Echo"; the bare prefix ("/services" or "/services/")
// is the multi-service pack endpoint and yields an empty default service.
func (s *Server) serviceFromPath(target string) (string, bool) {
	trimmed := strings.TrimSuffix(s.cfg.PathPrefix, "/")
	if target == trimmed || target == s.cfg.PathPrefix {
		return "", true
	}
	if !strings.HasPrefix(target, s.cfg.PathPrefix) {
		return "", false
	}
	name := strings.TrimPrefix(target, s.cfg.PathPrefix)
	if name == "" || strings.Contains(name, "/") {
		return "", false
	}
	return name, true
}

// verifyHeaders runs header processors over the canonical body — the
// verbatim wire spans of the body entries, which the (finished) decoder
// recorded — then enforces mustUnderstand: a mustUnderstand block nobody
// recognises is a MustUnderstand fault, per SOAP 1.1 §4.2.3. Processor
// faults take precedence.
func (s *Server) verifyHeaders(env *soap.Envelope, d *soap.StreamDecoder) *soap.Fault {
	if len(env.Header) == 0 {
		return nil
	}
	var bodyBytes []byte
	if len(s.cfg.HeaderProcessors) > 0 {
		bodyBytes = canonicalFromSpans(d.BodySpans())
	}
	understood := make(map[*xmldom.Element]bool)
	for _, h := range env.Header {
		for _, p := range s.cfg.HeaderProcessors {
			ns, local := p.HeaderName()
			if h.Is(ns, local) {
				if err := p.ProcessHeader(h, bodyBytes); err != nil {
					return soap.ClientFault("header %s: %v", h.Name.Local, err)
				}
				understood[h] = true
			}
		}
	}
	for _, h := range env.MustUnderstandHeaders() {
		if !understood[h] {
			return &soap.Fault{
				Code:   soap.FaultMustUnderstand,
				String: fmt.Sprintf("header {%s}%s not understood", h.Namespace(), h.Name.Local),
			}
		}
	}
	return nil
}

// DeadlineBudget parses the SPI-Deadline header: the client's remaining
// deadline budget in integer milliseconds. Zero means no budget was
// propagated (or it was malformed, which is treated as absent).
func DeadlineBudget(req *httpx.Request) time.Duration {
	v := req.Header.Get(HeaderDeadline)
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// dispatchTimes is the part of a dispatch's time that belongs to other
// phases. decode is what went into reading the body, inside the
// StreamDecoder. encode is what went into encoding the response: from
// encodeStart when it ran after the operation (a single call); else, as it
// was interleaved with the entries' runs, the trace shows it from the
// dispatch's start.
type dispatchTimes struct {
	decode      time.Duration
	encodeStart time.Time
	encode      time.Duration
}

// dispatch decodes the body and executes the request(s): the server-side
// dispatcher of §3.5. Whatever the body holds, the answer comes back as a
// ready HTTP response in the request's version, with the time spent encoding
// it, for phase attribution. A packed body or a plan streams entry by entry
// and is assembled incrementally (dispatchPacked). A single call completes
// the envelope, verifies the headers and runs the entry interceptors once,
// and its response is streamed once it has run. target is the HTTP request
// target, for EntryInterceptor info.
func (s *Server) dispatch(ctx context.Context, d *soap.StreamDecoder, headers []*xmldom.Element, defaultService, target string) (*httpx.Response, dispatchTimes, *soap.Fault) {
	decodeStart := time.Now()
	entry, err := d.NextEntryStart()
	if err != nil {
		return nil, dispatchTimes{decode: time.Since(decodeStart)}, malformedFault(err)
	}
	rctx := &registry.Context{Ctx: ctx, RequestHeaders: headers}
	if entry != nil && (isPackedRequest(entry) || isPlanBody(entry)) {
		s.packed.Add(1)
		startTag := time.Since(decodeStart)
		resp, times, fault := s.dispatchPacked(ctx, d, entry, rctx, defaultService, target)
		times.decode += startTag
		return resp, times, fault
	}
	// A single call: nothing to overlap, so finish decoding first, and verify
	// the headers once the document is known well-formed. A nil entry (an
	// empty Body) has nothing to decode.
	if entry != nil {
		err = d.CompleteEntry(entry)
	}
	times := dispatchTimes{decode: time.Since(decodeStart)}
	if err != nil {
		return nil, times, malformedFault(err)
	}
	env, tail, fault := finishBody(d, func(env *soap.Envelope) *soap.Fault { return s.verifyHeaders(env, d) })
	times.decode += tail
	if fault != nil {
		return nil, times, fault
	}
	entry = env.Body[0]
	if len(s.cfg.EntryInterceptors) > 0 {
		var fault *soap.Fault
		entry, fault = runEntryInterceptors(s.cfg.EntryInterceptors, entry,
			&EntryInfo{Target: target, DefaultService: defaultService, Version: env.Version})
		if fault != nil {
			return nil, times, fault
		}
	}
	resp, single, fault := s.dispatchSingle(ctx, entry, rctx, defaultService, env.Version)
	single.decode = times.decode
	return resp, single, fault
}

// staged reports whether operations run on the application stage rather than
// inline on the protocol goroutine. NewServer builds the pool iff !Coupled,
// so the pool's presence is that one fact.
func (s *Server) staged() bool { return s.appPool != nil }

// sampleAppQueue samples the application queue's depth into the tracer's
// app.queue gauge, ahead of a submit.
func (s *Server) sampleAppQueue() {
	if tr := s.cfg.Tracer; tr.Enabled() {
		tr.Gauge("app.queue").Set(int64(s.appPool.QueueLen()))
	}
}

// submitApp enqueues one application-stage task. On a full queue a request
// with a deadline waits for space until that deadline; one without a
// deadline does not wait.
func (s *Server) submitApp(ctx context.Context, task stage.Task) error {
	s.sampleAppQueue()
	if _, ok := ctx.Deadline(); ok {
		return s.appPool.SubmitCtx(ctx, task)
	}
	return s.appPool.TrySubmit(task)
}

// admissionFault maps req's failed submit to a fault; the operation never
// started. A full queue refusing a request with no deadline sheds it with
// Server.Busy (retryable); a request whose deadline passed or whose caller
// went away while it waited is abandoned; anything else is a plain server
// fault.
func (s *Server) admissionFault(ctx context.Context, req *rpcRequest, err error) *soap.Fault {
	switch {
	case errors.Is(err, stage.ErrQueueFull):
		s.resil.Shed.Inc()
		return fault.ToSOAP(fault.Shedf("application stage queue full and the request has no deadline"))
	case errors.Is(err, ctx.Err()):
		return s.abandonFault(ctx, req.service, req.op)
	}
	return soap.ServerFault("application stage unavailable: %v", err)
}

// AbandonFault is the per-item fault for work nobody waits on any longer:
// Server.Timeout when ctx's deadline expired, Server.Cancelled when the
// caller went away. The server's abandoned workers and the gateway's
// degraded slots both answer with it, so the bytes are the same wherever
// the wait was given up.
func AbandonFault(ctx context.Context, service, op string) *soap.Fault {
	return EndedFault(ctx, service+"."+op+" finished")
}

// EndedFault is the fault for a wait that ctx ended before what happened:
// Server.Timeout ("deadline expired before <what>") when ctx's deadline
// expired, Server.Cancelled ("caller cancelled before <what>") when the
// caller went away.
func EndedFault(ctx context.Context, what string) *soap.Fault {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fault.ToSOAP(fault.Timeoutf("deadline expired before %s", what))
	}
	return fault.ToSOAP(fault.Cancelledf("caller cancelled before %s", what))
}

// abandonFault is AbandonFault, counted.
func (s *Server) abandonFault(ctx context.Context, service, op string) *soap.Fault {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.resil.Timeouts.Inc()
	} else {
		s.resil.Cancellations.Inc()
	}
	return AbandonFault(ctx, service, op)
}

// abandonResult fabricates the result for work the protocol thread stopped
// waiting on. The worker (if it started) keeps running detached; its handler
// sees the cancelled Context and should abort.
func (s *Server) abandonResult(ctx context.Context, req *rpcRequest) *rpcResult {
	return req.faulted(s.abandonFault(ctx, req.service, req.op))
}

// dispatchSingle executes a traditional one-request envelope and streams its
// response in version v: the operation's header blocks, then the one entry
// through the writer the packed assembler uses.
func (s *Server) dispatchSingle(ctx context.Context, entry *xmldom.Element, rctx *registry.Context, defaultService string, v soap.Version) (*httpx.Response, dispatchTimes, *soap.Fault) {
	service := defaultService
	if service == "" {
		// Pack endpoint used for a plain request: resolve by namespace.
		if svc, ok := s.cfg.Container.ServiceByNamespace(entry.Namespace()); ok {
			service = svc.Name
		}
	}
	req, fault := decodeRequestElement(entry, service, 0)
	if fault != nil {
		return nil, dispatchTimes{}, fault
	}
	var res *rpcResult
	if !s.staged() || (s.adminState != nil && req.service == admin.ServiceName) {
		// Traditional coupled architecture: execute on the protocol thread.
		// Control-plane (Admin) operations take the same inline path even
		// when staged: they only read counters or flip atomics, and they
		// must stay answerable while the application stage is saturated —
		// a GetStats poll that queues behind the very backlog it is meant
		// to report would go stale exactly when the gateway needs it most.
		res = s.execute(ctx, req, rctx)
	} else {
		// Staged architecture: even a single request runs on the
		// application stage; the protocol thread sleeps until it is done
		// or the request's deadline fires.
		done := make(chan *rpcResult, 1)
		task := s.appTask(ctx, req, func() { done <- s.execute(ctx, req, rctx) })
		if err := s.submitApp(ctx, task); err != nil {
			return nil, dispatchTimes{}, s.admissionFault(ctx, req, err)
		}
		select {
		case res = <-done:
		case <-ctx.Done():
			res = s.abandonResult(ctx, req)
		}
	}
	if res.fault != nil {
		return nil, dispatchTimes{}, res.fault
	}
	start := time.Now()
	enc := soap.NewStreamEncoder()
	enc.Begin(v, rctx.ResponseHeaders())
	if err := appendResponseEntry(enc.Emitter(), res, s.namespaceOf(req.service), "", -1); err != nil {
		enc.Release()
		return nil, dispatchTimes{encodeStart: start, encode: time.Since(start)}, soap.ServerFault("encoding response: %v", err)
	}
	resp, err := encodedResponse(200, v, enc)
	if err != nil {
		resp = encodeFailureResponse()
	}
	return resp, dispatchTimes{encodeStart: start, encode: time.Since(start)}, nil
}

// execute resolves and invokes one operation. In staged mode it is called
// on an application-stage worker; in coupled mode on the protocol thread.
// The handler receives ctx (bounded by OperationTimeout when configured)
// through registry.Context.Ctx; when the watchdog fires the result is a
// Server.Timeout fault and the handler runs detached until it observes the
// cancellation.
func (s *Server) execute(ctx context.Context, req *rpcRequest, rctx *registry.Context) *rpcResult {
	// The result and the invocation context have the same lifetime, so one
	// heap object carries both — with sixteen-entry packed envelopes the
	// saved allocation is measurable.
	frame := &struct {
		res rpcResult
		inv registry.Context
	}{res: rpcResult{id: req.id, service: req.service, op: req.op}}
	res := &frame.res
	op, lookupFault := s.cfg.Container.Lookup(req.service, req.op)
	if lookupFault != nil {
		res.fault = lookupFault
		return res
	}
	s.requests.Add(1)
	opCtx := ctx
	var cancel context.CancelFunc
	if d := s.cfg.OperationTimeout; d > 0 {
		opCtx, cancel = context.WithTimeout(ctx, d)
	}
	invCtx := &frame.inv
	*invCtx = registry.Context{
		Ctx:            opCtx,
		Service:        req.service,
		Operation:      req.op,
		RequestHeaders: rctx.RequestHeaders,
	}
	execStart := time.Now()
	if cancel == nil {
		// No per-operation deadline: invoke inline.
		results, fault := registry.Invoke(op, invCtx, req.params)
		s.recordOp(op, time.Since(execStart))
		return s.finishExecute(res, rctx, invCtx, results, fault)
	}
	// Per-operation watchdog: invoke on a helper goroutine so an
	// overrunning handler cannot hold this worker past its deadline.
	type outcome struct {
		results []soapenc.Field
		fault   *soap.Fault
	}
	ch := make(chan outcome, 1)
	go func() {
		r, f := registry.Invoke(op, invCtx, req.params)
		ch <- outcome{r, f}
	}()
	select {
	case o := <-ch:
		// Classify the outcome before cancel(): cancelling first would make
		// finishExecute read a context error we caused ourselves and rewrite
		// a genuine application fault as Server.Cancelled.
		s.recordOp(op, time.Since(execStart))
		out := s.finishExecute(res, rctx, invCtx, o.results, o.fault)
		cancel()
		return out
	case <-opCtx.Done():
		cancel()
		s.recordOp(op, time.Since(execStart))
		if errors.Is(ctx.Err(), context.Canceled) {
			s.resil.Cancellations.Inc()
			res.fault = fault.ToSOAP(fault.Cancelledf(
				"caller cancelled %s.%s", req.service, req.op).
				With(fault.KeyOp, req.service+"."+req.op))
		} else {
			s.resil.Timeouts.Inc()
			res.fault = fault.ToSOAP(fault.Timeoutf(
				"operation %s.%s exceeded its deadline", req.service, req.op).
				With(fault.KeyOp, req.service+"."+req.op))
		}
		return res
	}
}

// finishExecute folds an invocation outcome into the rpc result and
// propagates any response headers the handler contributed. A generic
// Server fault from a handler whose context had already expired is
// reclassified as the matching deadline/cancel fault — the handler aborted
// because we told it to, and the client should see that, not an opaque
// "context deadline exceeded".
func (s *Server) finishExecute(res *rpcResult, rctx, invCtx *registry.Context, results []soapenc.Field, sf *soap.Fault) *rpcResult {
	if sf != nil {
		if ictx := invCtx.Context(); sf.Code == soap.FaultServer && ictx.Err() != nil {
			sf = s.abandonFault(ictx, res.service, res.op)
		}
		res.fault = sf
		return res
	}
	res.results = results
	for _, h := range invCtx.ResponseHeaders() {
		rctx.AddResponseHeader(h)
	}
	return res
}

// namespaceOf returns the namespace of a deployed service, or the pack
// namespace for unknown services (only reachable for faulted entries,
// which do not use it).
func (s *Server) namespaceOf(service string) string {
	if svc, ok := s.cfg.Container.Service(service); ok {
		return svc.Namespace
	}
	return NSPack
}

// faultResponse answers with a whole-message fault, counted.
func (s *Server) faultResponse(f *soap.Fault, v soap.Version) *httpx.Response {
	s.faults.Add(1)
	s.faultCodes.NoteSOAP(f)
	return GatewayFaultResponse(f, v)
}

// encodeFailureResponse is the plain-text 500 returned when response
// serialization itself fails.
func encodeFailureResponse() *httpx.Response {
	resp := httpx.NewResponse(500, []byte("response encoding failed\n"))
	resp.Header.Set("Content-Type", "text/plain")
	return resp
}
