package bench

import (
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
	if reps <= 0 {
		reps = 5
	}
	const conns = 1024
	const callsPerConn = 8
	const window = 8
	const workers = 32
	const queue = 16384                // hold the full fleet burst without shedding
	const rtt = 120 * time.Millisecond // 60ms propagation each way

	result := &AblationResult{Title: fmt.Sprintf(
		"Transport tier: %d keep-alive connections × %d calls, %v RTT, pipeline window %d, %d app workers",
		conns, callsPerConn, rtt, window, workers)}

	for _, pipelined := range []bool{false, true} {
		container := registry.NewContainer()
		if err := services.DeployEcho(container, services.Options{}); err != nil {
			return nil, err
		}
		link := netsim.NewLink(netsim.Config{PropagationDelay: rtt / 2})
		lis, err := link.Listen()
		if err != nil {
			link.Close()
			return nil, err
		}
		srv, err := core.NewServer(core.ServerConfig{
			Container: container, AppWorkers: workers, AppQueue: queue,
			PipelineWindow: window,
		})
		if err != nil {
			link.Close()
			return nil, err
		}
		go srv.Serve(lis)

		fleet := make([]*core.Client, conns)
		closeAll := func() {
			for _, c := range fleet {
				if c != nil {
					c.Close()
				}
			}
			srv.Close()
			link.Close()
		}
		for i := range fleet {
			fleet[i], err = core.NewClient(core.ClientConfig{
				Dial: link.Dial, KeepAlive: true, Timeout: 120 * time.Second,
				Pipeline: pipelined, PipelineWindow: window,
			})
			if err != nil {
				closeAll()
				return nil, err
			}
		}
		// Warm every connection with one call so both rows measure steady
		// keep-alive traffic, not 1024 dials (and so the pipelined clients
		// each hold exactly one connection for the burst to share). Waved:
		// the whole fleet dialing at once would overflow the simulated
		// accept backlog, as a real SYN flood would.
		const wave = 64
		for lo := 0; lo < conns; lo += wave {
			hi := lo + wave
			if hi > conns {
				hi = conns
			}
			if err := transportSweep(fleet[lo:hi], 1, false); err != nil {
				closeAll()
				return nil, err
			}
		}

		ms, err := measure(1, reps, func() error {
			return transportSweep(fleet, callsPerConn, pipelined)
		})
		closeAll()
		if err != nil {
			return nil, err
		}
		calls := float64(conns * callsPerConn)
		name := "serial keep-alive (1 exchange in flight per conn)"
		if pipelined {
			name = fmt.Sprintf("pipelined (window %d)", window)
		}
		note := fmt.Sprintf("%.0f calls/s", calls/(ms/1000))
		if pipelined && len(result.Rows) > 0 && ms > 0 {
			note += fmt.Sprintf(" (%+.0f%% vs serial)", (result.Rows[0].Millis/ms-1)*100)
		}
		result.Rows = append(result.Rows, AblationRow{Name: name, Millis: ms, Note: note})
	}
	return result, nil
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
	container := registry.NewContainer()
	if err := services.DeployEcho(container, services.Options{}); err != nil {
		return nil, err
	}
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		link.Close()
		return nil, err
	}
	queue := conns * 8
	if queue < 1024 {
		queue = 1024
	}
	srv, err := core.NewServer(core.ServerConfig{
		Container: container, AppWorkers: 16, AppQueue: queue,
		PipelineWindow: window,
	})
	if err != nil {
		link.Close()
		return nil, err
	}
	go srv.Serve(lis)
	f := &TransportFleet{fleet: make([]*core.Client, conns), srv: srv, link: link}
	for i := range f.fleet {
		f.fleet[i], err = core.NewClient(core.ClientConfig{
			Dial: link.Dial, KeepAlive: true, Timeout: 120 * time.Second,
			Pipeline: window > 0, PipelineWindow: window,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	const wave = 64 // stay under the simulated accept backlog
	for lo := 0; lo < conns; lo += wave {
		hi := lo + wave
		if hi > conns {
			hi = conns
		}
		if err := transportSweep(f.fleet[lo:hi], 1, false); err != nil {
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

// Echo performs one serial call on the first connection — the steady-state
// keep-alive exchange whose allocations the read-buffer pool bounds.
func (f *TransportFleet) Echo() error {
	_, err := f.fleet[0].Call("Echo", "echo", soapenc.F("data", "transport-tier"))
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
