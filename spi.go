// Package spi is SPI — the SOAP Passing Interface.
//
// SPI reproduces the system of "Application-aware Interface for SOAP
// Communication in Web Services" (Wang, Tong, Liu, Liu — IEEE CLUSTER
// 2006): an MPI-inspired, application-aware interface layered over SOAP
// whose pack interface reduces the number of SOAP messages a client must
// send. Several logically-concurrent service requests are packed into one
// SOAP message (a Parallel_Method body element), shipped over a single
// HTTP/TCP exchange, executed concurrently on the server's application
// thread pool, and answered in one packed response.
//
// The package is a facade: it re-exports the full public surface of the
// implementation packages so applications need a single import.
//
// # Quick start
//
// Server:
//
//	container := spi.NewContainer()
//	svc := container.MustAddService("Greeter", "urn:example:Greeter", "says hello")
//	svc.MustRegister("Hello", func(ctx *spi.HandlerContext, params []spi.Field) ([]spi.Field, error) {
//	    name := "world"
//	    for _, p := range params {
//	        if p.Name == "name" {
//	            name, _ = p.Value.(string)
//	        }
//	    }
//	    return []spi.Field{spi.F("greeting", "hello, "+name)}, nil
//	}, "greets the caller")
//
//	server, _ := spi.NewServer(spi.ServerConfig{Container: container})
//	listener, _ := net.Listen("tcp", ":8080")
//	go server.Serve(listener)
//
// Client — one call per message (the traditional interface):
//
//	client, _ := spi.NewClient(spi.ClientConfig{
//	    Dial: func() (net.Conn, error) { return net.Dial("tcp", "localhost:8080") },
//	})
//	results, err := client.Call("Greeter", "Hello", spi.F("name", "SPI"))
//
// Client — the pack interface (many calls, one message):
//
//	batch := client.NewBatch()
//	a := batch.Add("Greeter", "Hello", spi.F("name", "a"))
//	b := batch.Add("Greeter", "Hello", spi.F("name", "b"))
//	if err := batch.Send(); err != nil { ... }
//	resA, errA := a.Wait()
//	resB, errB := b.Wait()
//
// Client — transparent automatic packing (the paper's future work):
//
//	auto := spi.NewAutoBatcher(client, 128)
//	results, err := auto.Call("Greeter", "Hello")  // coalesces with concurrent calls
//
// # Architecture
//
// The stack is built bottom-up from first principles, stdlib-only:
//
//	internal/xmltext   streaming XML tokenizer and writer
//	internal/xmldom    DOM with namespace resolution
//	internal/soap      SOAP 1.1 envelope/fault codec
//	internal/soapenc   typed parameter encoding (xsi:type)
//	internal/httpx     HTTP/1.1 client and server over net.Conn
//	internal/netsim    simulated 100 Mbit testbed link
//	internal/stage     staged worker pools (SEDA)
//	internal/registry  service/operation container
//	internal/core      SPI: assembler, dispatcher, batch, auto-batch
//	internal/gateway   scatter–gather front tier with cross-client coalescing
//	internal/wsse      WS-Security-style signed headers
//	internal/wsdl      WSDL 1.1 descriptions
//	internal/bench     the paper's experiments (Figures 5-7, §4.3)
//
// See docs/ARCHITECTURE.md for the layer map and request lifecycles,
// DESIGN.md for the full system inventory, and EXPERIMENTS.md for the
// paper-versus-measured record.
package spi

import (
	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/trace"
	"repro/internal/wsdl"
	"repro/internal/wsse"
)

// Value model: the dynamic types a SOAP parameter can take. See
// internal/soapenc for the wire mapping.
type (
	// Value is one SOAP-encodable value: nil, string, bool, int64,
	// float64, []byte, time.Time, Array or *Struct.
	Value = soapenc.Value
	// Field is one named RPC parameter or struct member.
	Field = soapenc.Field
	// Struct is an ordered set of named fields.
	Struct = soapenc.Struct
	// Array is an ordered sequence of values.
	Array = soapenc.Array
)

// F constructs a Field.
func F(name string, v Value) Field { return soapenc.F(name, v) }

// NewStruct builds a Struct from fields.
func NewStruct(fields ...Field) *Struct { return soapenc.NewStruct(fields...) }

// ValueEqual reports deep semantic equality of two values.
func ValueEqual(a, b Value) bool { return soapenc.Equal(a, b) }

// Fault is a SOAP 1.1 fault; it implements error and is what failed calls
// return.
type Fault = soap.Fault

// Fault codes.
const (
	FaultVersionMismatch = soap.FaultVersionMismatch
	FaultMustUnderstand  = soap.FaultMustUnderstand
	FaultClient          = soap.FaultClient
	FaultServer          = soap.FaultServer
)

// Resilience fault codes (dotted refinements of Server, SOAP 1.1 §4.4.1).
const (
	// FaultTimeout marks work abandoned because a deadline expired —
	// delivered per item inside packed responses so finished companions
	// keep their real results.
	FaultTimeout = core.FaultCodeTimeout
	// FaultBusy marks a request shed at application-stage admission; the
	// operation never started, so retrying is always safe.
	FaultBusy = core.FaultCodeBusy
	// FaultCancelled marks work abandoned because the caller disconnected
	// or cancelled its context.
	FaultCancelled = core.FaultCodeCancelled
)

// IsTimeoutFault reports whether err is a per-item/per-operation deadline
// fault (FaultTimeout).
func IsTimeoutFault(err error) bool { return core.IsTimeoutFault(err) }

// IsBusyFault reports whether err is an admission-shed fault (FaultBusy),
// meaning the operation never started and the call may be retried freely.
func IsBusyFault(err error) bool { return core.IsBusyFault(err) }

// HeaderDeadline is the HTTP header carrying the client's remaining
// deadline budget in integer milliseconds; servers shorten it by a grace of
// one fifth, at most 100 ms, and degrade work still running when it expires.
const HeaderDeadline = core.HeaderDeadline

// Service registry.
type (
	// Container holds deployed services.
	Container = registry.Container
	// Service is a named collection of operations.
	Service = registry.Service
	// Operation is one registered operation.
	Operation = registry.Operation
	// Handler executes one service operation.
	Handler = registry.Handler
	// HandlerContext carries per-invocation information into handlers.
	HandlerContext = registry.Context
)

// NewContainer returns an empty service container.
func NewContainer() *Container { return registry.NewContainer() }

// TypedHandler adapts a typed function — func(ctx *HandlerContext, req
// ReqStruct) (RespStruct, error) — to the Handler signature by reflection,
// in the style of net/rpc. Struct fields map to named SOAP parameters
// (rename with a `soap:"name"` tag, skip with `soap:"-"`, leave an empty
// value off the wire with `soap:"name,omitempty"`, as encoding/json does).
func TypedHandler(fn any) (Handler, error) { return bind.Handler(fn) }

// MustTypedHandler is TypedHandler that panics on a bad signature.
func MustTypedHandler(fn any) Handler { return bind.MustHandler(fn) }

// MarshalFields converts a struct into named SOAP parameters, for typed
// clients.
func MarshalFields(v any) ([]Field, error) { return bind.MarshalFields(v) }

// UnmarshalFields fills a struct from named SOAP results, for typed
// clients.
func UnmarshalFields(fields []Field, dst any) error { return bind.UnmarshalFields(fields, dst) }

// CallTyped invokes through any call surface with struct request/response
// marshalling:
//
//	var resp HelloResp
//	err := spi.CallTyped(func(p ...spi.Field) ([]spi.Field, error) {
//	    return client.Call("Greeter", "Hello", p...)
//	}, HelloReq{Name: "SPI"}, &resp)
func CallTyped(caller func(params ...Field) ([]Field, error), req, resp any) error {
	return bind.CallTyped(caller, req, resp)
}

// Client/server.
type (
	// Client issues SOAP calls, packed or not.
	Client = core.Client
	// ClientConfig configures a Client.
	ClientConfig = core.ClientConfig
	// ClientStats counts client traffic.
	ClientStats = core.ClientStats
	// Server hosts SPI services.
	Server = core.Server
	// ServerConfig configures a Server.
	ServerConfig = core.ServerConfig
	// ServerStats counts server work.
	ServerStats = core.ServerStats
	// Batch packs many calls into one SOAP message.
	Batch = core.Batch
	// Call is a pending invocation future.
	Call = core.Call
	// Plan is a multi-step remote execution: steps shipped in one SOAP
	// message whose later parameters may reference earlier results — the
	// "remote execution" interface of the SPI suite.
	Plan = core.Plan
	// StepHandle is one step of a Plan: a result future plus a reference
	// factory for dependent steps.
	StepHandle = core.StepHandle
	// AutoBatcher packs concurrent calls transparently.
	AutoBatcher = core.AutoBatcher
	// HeaderProvider contributes header blocks to outgoing envelopes.
	HeaderProvider = core.HeaderProvider
	// HeaderProcessor consumes header blocks on the server.
	HeaderProcessor = core.HeaderProcessor
	// EntryInterceptor hooks each body entry as the server decodes it —
	// the Axis handler-chain extension point
	// (ServerConfig.EntryInterceptors).
	EntryInterceptor = core.EntryInterceptor
	// EntryInfo describes the entry an EntryInterceptor is seeing.
	EntryInfo = core.EntryInfo
	// RetryPolicy governs client-side retries: exponential backoff with
	// jitter, gated on idempotency for errors that may have executed
	// (ClientConfig.Retry, Client.MarkIdempotent).
	RetryPolicy = core.RetryPolicy
)

// DefaultRetryPolicy returns the recommended retry policy: 3 attempts,
// 20ms base delay doubling to a 2s cap, 20% jitter.
func DefaultRetryPolicy() *RetryPolicy { return core.DefaultRetryPolicy() }

// NewClient builds a client.
func NewClient(cfg ClientConfig) (*Client, error) { return core.NewClient(cfg) }

// NewServer builds a server.
func NewServer(cfg ServerConfig) (*Server, error) { return core.NewServer(cfg) }

// NewAutoBatcher wraps a client with automatic packing: concurrent calls
// share a message, and a lone call goes out at once.
func NewAutoBatcher(c *Client, maxBatch int) *AutoBatcher {
	return core.NewAutoBatcher(c, maxBatch)
}

// Observability: per-stage tracing and latency histograms. A Tracer is
// shared between ClientConfig.Tracer and ServerConfig.Tracer (the SPI-Trace
// header correlates the two sides); a nil Tracer disables the whole layer
// for the cost of one branch per hop.
type (
	// Tracer records per-stage spans into a ring buffer and aggregates
	// per-stage latency histograms. All methods are nil-safe.
	Tracer = trace.Tracer
	// Span is one recorded hop: stage, trace id, packed-slot id, queue
	// wait versus service time.
	Span = trace.Span
	// StageSummary aggregates one stage's spans: counts plus queue/service
	// latency quantiles (p50/p95/p99, power-of-two buckets).
	StageSummary = trace.StageSummary
	// GaugeValue snapshots one named gauge (e.g. "app.queue") with its
	// last and peak values.
	GaugeValue = trace.GaugeValue
)

// NewTracer builds a Tracer whose ring buffer holds capacity spans
// (capacity <= 0 selects a default).
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// Stage names recorded along the request path, in path order.
const (
	StageClientPack   = trace.StageClientPack
	StageClientSend   = trace.StageClientSend
	StageProtocol     = trace.StageProtocol
	StageDispatch     = trace.StageDispatch
	StageApp          = trace.StageApp
	StageAssemble     = trace.StageAssemble
	StageClientUnpack = trace.StageClientUnpack
)

// HeaderTrace is the HTTP header carrying the client's trace id so server
// spans join the client's trace.
const HeaderTrace = core.HeaderTrace

// Simulated network (the paper's testbed substitute).
type (
	// Link is an in-memory point-to-point network link.
	Link = netsim.Link
	// LinkConfig parameterizes a Link.
	LinkConfig = netsim.Config
	// LinkStats snapshots link counters.
	LinkStats = netsim.Stats
)

// NewLink creates a simulated link.
func NewLink(cfg LinkConfig) *Link { return netsim.NewLink(cfg) }

// LAN100 is the evaluation's 100 Mbit Ethernet configuration.
func LAN100() LinkConfig { return netsim.LAN100() }

// WS-Security.
type (
	// WSSecuritySigner signs outgoing envelopes (a HeaderProvider).
	WSSecuritySigner = wsse.Signer
	// WSSecurityVerifier verifies incoming envelopes (a HeaderProcessor).
	WSSecurityVerifier = wsse.Verifier
)

// WSDL descriptions.
type (
	// WSDLDescription is a parsed service description.
	WSDLDescription = wsdl.Description
)

// DescribeService renders the WSDL document for a deployed service as XML.
func DescribeService(svc *Service, address string) string {
	return wsdl.Describe(svc, address).String()
}

// ParseWSDL reads a WSDL document.
func ParseWSDL(doc string) (*WSDLDescription, error) { return wsdl.ParseString(doc) }
