// Package bench is the experiment harness: it reconstructs every
// measurement in the paper's evaluation (§4) — the Figure 5/6/7 latency
// sweeps, the §4.3 travel-agent throughput study — plus the WS-Security
// experiment the paper names as future work and ablations of the design
// choices (staged vs coupled threading, connection reuse, pool width).
//
// Experiments run a real client and a real server from internal/core over
// the simulated 100 Mbit link of internal/netsim, so every measured
// millisecond includes genuine XML serialization, HTTP framing, SOAP
// parsing, dispatch and thread-pool scheduling; only wire time is
// synthetic.
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/trace"
	"repro/internal/wsse"
)

// EnvOptions configures one client/server/link environment.
type EnvOptions struct {
	// Network is the simulated link configuration (default LAN100).
	Network netsim.Config
	// AppWorkers sets the server's application-stage width (default 32).
	AppWorkers int
	// Coupled selects the traditional coupled architecture (Figure 1).
	Coupled bool
	// KeepAlive lets the client reuse connections (the measured baselines
	// dial per message, so the default is false).
	KeepAlive bool
	// WSSecurity attaches and verifies WS-Security headers on every
	// message.
	WSSecurity bool
	// WorkTime simulates per-operation backend work in the services.
	WorkTime time.Duration
	// Travel additionally deploys the travel-agent service suite.
	Travel bool
	// TemplateCache enables the §2.2 client-side parameterized message
	// cache ([1]/[3]).
	TemplateCache bool
	// DiffDeserialization enables the §2.2 server-side differential
	// deserialization cache ([4]/[11]).
	DiffDeserialization bool
	// Retry applies a client-side retry policy (nil: no retries), for the
	// fault-injection experiment.
	Retry *core.RetryPolicy
	// AdmissionTimeout bounds application-stage queue admission on the
	// server (zero: unbounded blocking submit).
	AdmissionTimeout time.Duration
	// Tracer, when non-nil, is shared by the client and the server so one
	// sink sees every hop of every message — the per-stage breakdown
	// experiments aggregate its spans. Nil runs untraced (the perf
	// baselines, where tracing must cost one branch per hop).
	Tracer *trace.Tracer
}

// Env is a running client/server pair over a simulated link.
type Env struct {
	Link      *netsim.Link
	Server    *core.Server
	Client    *core.Client
	Container *registry.Container
	Travel    *services.TravelState
}

// NewEnv builds and starts an environment.
func NewEnv(opt EnvOptions) (*Env, error) {
	if opt.Network.IsZero() {
		opt.Network = netsim.LAN100()
	}
	container := registry.NewContainer()
	if err := services.DeployEcho(container, services.Options{WorkTime: opt.WorkTime}); err != nil {
		return nil, err
	}
	if err := services.DeployWeather(container, services.Options{WorkTime: opt.WorkTime}); err != nil {
		return nil, err
	}
	env := &Env{Container: container}
	if opt.Travel {
		state, err := services.DeployTravel(container, services.Options{WorkTime: opt.WorkTime})
		if err != nil {
			return nil, err
		}
		env.Travel = state
	}

	env.Link = netsim.NewLink(opt.Network)
	lis, err := env.Link.Listen()
	if err != nil {
		return nil, err
	}

	secret := []byte("spi-benchmark-secret")
	scfg := core.ServerConfig{
		Container:                   container,
		AppWorkers:                  opt.AppWorkers,
		Coupled:                     opt.Coupled,
		DifferentialDeserialization: opt.DiffDeserialization,
		AdmissionTimeout:            opt.AdmissionTimeout,
		Tracer:                      opt.Tracer,
	}
	ccfg := core.ClientConfig{
		Dial:          env.Link.Dial,
		KeepAlive:     opt.KeepAlive,
		Timeout:       120 * time.Second,
		TemplateCache: opt.TemplateCache,
		Retry:         opt.Retry,
		Tracer:        opt.Tracer,
	}
	if opt.WSSecurity {
		scfg.HeaderProcessors = []core.HeaderProcessor{&wsse.Verifier{
			Secrets: map[string][]byte{"bench": secret},
		}}
		ccfg.HeaderProviders = []core.HeaderProvider{&wsse.Signer{
			Username: "bench", Secret: secret,
		}}
	}

	env.Server, err = core.NewServer(scfg)
	if err != nil {
		env.Link.Close()
		return nil, err
	}
	go env.Server.Serve(lis)

	env.Client, err = core.NewClient(ccfg)
	if err != nil {
		env.Server.Close()
		env.Link.Close()
		return nil, err
	}
	return env, nil
}

// Close tears the environment down.
func (e *Env) Close() {
	if e.Client != nil {
		e.Client.Close()
	}
	if e.Server != nil {
		e.Server.Close()
	}
	if e.Link != nil {
		e.Link.Close()
	}
}

// Approach is one of the three client strategies of §4.1.
type Approach int

// The three approaches, with the paper's figure-legend names.
const (
	// NoOptimization sends M request messages serially on one thread.
	NoOptimization Approach = iota
	// MultipleThreads sends M request messages simultaneously from M
	// goroutines.
	MultipleThreads
	// OurApproach packs the M request payloads into one SOAP message.
	OurApproach
)

// Approaches lists all three in figure order.
var Approaches = []Approach{NoOptimization, MultipleThreads, OurApproach}

// String returns the paper's legend name for the approach.
func (a Approach) String() string {
	switch a {
	case NoOptimization:
		return "No Optimization"
	case MultipleThreads:
		return "Multiple Threads"
	case OurApproach:
		return "Our Approach"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}
