package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/soapenc"
)

// RunTransport measures the transport tier at connection-count scale:
// a fleet of keep-alive connections each driving a burst of single calls
// against one pipelining server, serial (one exchange in flight per
// connection — a full RTT per call) versus pipelined (the burst written
// back-to-back, responses streamed in order — the RTTs amortize across
// the window).
//
// The link carries real propagation delay, so the serial row pays
// callsPerConn round trips per connection while the pipelined row pays
// roughly one; the app stage is deliberately bounded so the comparison is
// against a backend that cannot simply absorb the fleet.
func RunTransport(reps int) (*AblationResult, error) {
	const conns = 1024
	const callsPerConn = 8
	const window = 8
	const workers = 32
	const queue = 16384                // hold the full fleet burst without shedding
	const rtt = 120 * time.Millisecond // 60ms propagation each way

	var c comparison
	defer c.close()
	for _, pipelined := range []bool{false, true} {
		name, clientWindow := "serial keep-alive (1 exchange in flight per conn)", 0
		if pipelined {
			name, clientWindow = fmt.Sprintf("pipelined (window %d)", window), window
		}
		// The fleet's warm-up call per connection makes both rows measure
		// steady keep-alive traffic, not 1024 dials, and has each pipelined
		// client hold exactly one connection for the burst to share.
		f, err := newTransportFleet(netsim.Config{PropagationDelay: rtt / 2}, core.ServerConfig{
			AppWorkers: workers, AppQueue: queue, PipelineWindow: window,
		}, conns, clientWindow)
		if err != nil {
			return nil, err
		}
		c.onClose(f.Close)
		c.add(name, "", func() error { return transportSweep(f.fleet, callsPerConn, pipelined) })
	}
	r, err := c.table(fmt.Sprintf(
		"Transport tier: %d keep-alive connections × %d calls, %v RTT, pipeline window %d, %d app workers",
		conns, callsPerConn, rtt, window, workers), 1, reps)
	if err != nil {
		return nil, err
	}
	for i := range r.Rows {
		r.Rows[i].Note = fmt.Sprintf("%.0f calls/s", conns*callsPerConn/(r.Rows[i].Millis/1000))
	}
	if serial, ms := r.Rows[0].Millis, r.Rows[1].Millis; ms > 0 {
		r.Rows[1].Note += fmt.Sprintf(" (%+.0f%% vs serial)", (serial/ms-1)*100)
	}
	return r, nil
}

// TransportFleet is a warmed fleet of keep-alive connections against one
// pipelining echo server over a zero-delay link — the setup benchmark
// harnesses need for connection-count scaling rows without paying the dial
// storm inside the timed region. With window > 0 the clients pipeline;
// window 0 gives a single serial keep-alive connection (the alloc-per-call
// guard for the pooled read buffers).
type TransportFleet struct {
	fleet []*core.Client
	srv   *core.Server
	link  *netsim.Link
}

// NewTransportFleet deploys the echo container, starts the server, dials
// conns keep-alive connections in accept-backlog-sized waves and warms each
// with one call, so the first timed sweep sees steady-state traffic.
func NewTransportFleet(conns, window int) (*TransportFleet, error) {
	return newTransportFleet(netsim.Fast(), core.ServerConfig{
		AppWorkers: 16, AppQueue: max(conns*8, 1024), PipelineWindow: window,
	}, conns, window)
}

// newTransportFleet builds a fleet over a link of the given configuration,
// against a server of the given configuration with the echo container
// deployed, its clients pipelining up to window exchanges each.
func newTransportFleet(net netsim.Config, scfg core.ServerConfig, conns, window int) (*TransportFleet, error) {
	scfg.Container = registry.NewContainer()
	if err := services.DeployEcho(scfg.Container, services.Options{}); err != nil {
		return nil, err
	}
	link := netsim.NewLink(net)
	lis, err := link.Listen()
	if err != nil {
		link.Close()
		return nil, err
	}
	srv, err := core.NewServer(scfg)
	if err != nil {
		link.Close()
		return nil, err
	}
	go srv.Serve(lis)
	f := &TransportFleet{fleet: make([]*core.Client, conns), srv: srv, link: link}
	for i := range f.fleet {
		f.fleet[i], err = core.NewClient(core.ClientConfig{
			Dial: link.Dial, KeepAlive: true, Timeout: 120 * time.Second,
			PipelineWindow: window,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	// Waved: the whole fleet dialing at once would overflow the simulated
	// accept backlog, as a real SYN flood would.
	const wave = 64
	for lo := 0; lo < conns; lo += wave {
		if err := transportSweep(f.fleet[lo:min(lo+wave, conns)], 1, false); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Sweep drives every connection through callsPerConn concurrent calls.
func (f *TransportFleet) Sweep(callsPerConn int) error {
	return transportSweep(f.fleet, callsPerConn, true)
}

// Echo performs one serial call under ctx on the first connection — the
// steady-state keep-alive exchange whose allocations the read-buffer pool
// bounds.
func (f *TransportFleet) Echo(ctx context.Context) error {
	_, err := f.fleet[0].CallCtx(ctx, "Echo", "echo", soapenc.F("data", "transport-tier"))
	return err
}

// Close tears down the fleet, the server and the link.
func (f *TransportFleet) Close() {
	for _, c := range f.fleet {
		if c != nil {
			c.Close()
		}
	}
	f.srv.Close()
	f.link.Close()
}

// transportSweep drives every client through calls echo exchanges: serially
// when burst is false (one at a time, the serial keep-alive regime), or all
// at once when true (the in-flight burst the pipeline coalesces onto one
// connection).
func transportSweep(fleet []*core.Client, calls int, burst bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(fleet))
	arg := soapenc.F("data", "transport-tier")
	for i := range fleet {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if burst {
				var cwg sync.WaitGroup
				cerrs := make([]error, calls)
				for j := 0; j < calls; j++ {
					cwg.Add(1)
					go func(j int) {
						defer cwg.Done()
						_, cerrs[j] = fleet[i].Call("Echo", "echo", arg)
					}(j)
				}
				cwg.Wait()
				for _, e := range cerrs {
					if e != nil {
						errs[i] = e
						return
					}
				}
				return
			}
			for j := 0; j < calls; j++ {
				if _, err := fleet[i].Call("Echo", "echo", arg); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
