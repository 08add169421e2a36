package gateway

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soapenc"
)

// The deadline table: every wait a request can cause, with the request's
// deadline expiring inside it, on both paths a request takes — client →
// server and client → gateway → backend. Each cell pins what the client
// is answered and checks when: no wait may outlive the deadline by more
// than deadlineSlack.

const (
	// deadlineBudget is the deadline of every probe. The server and the
	// gateway shorten what they are sent by a fifth (core.ShortenBudget), so
	// a fault they answer with arrives before it.
	deadlineBudget = 200 * time.Millisecond
	// deadlineSlack is how far past its deadline an answer may arrive.
	deadlineSlack = 50 * time.Millisecond
	// deadlineHold is how long a stalled dial takes: well past the budget.
	deadlineHold = deadlineBudget + 300*time.Millisecond
)

// deadlineCell is one wait × path. run makes the wait happen and then
// sends the probe under ctx, returning the client's answer (deadlineAnswer)
// and, on the gateway path, the gateway, whose backend exchanges must end
// by the deadline too.
type deadlineCell struct {
	path string // "direct" or "gateway"
	wait string
	want string
	run  func(t *testing.T, ctx context.Context) (string, *Gateway)
}

func TestDeadlineTable(t *testing.T) {
	for _, c := range deadlineCells() {
		t.Run(c.path+"/"+c.wait, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), deadlineBudget)
			defer cancel()
			start := time.Now()
			got, gw := c.run(t, ctx)
			if got != c.want {
				t.Errorf("answer = %q, want %q", got, c.want)
			}
			if gw != nil {
				waitExchangesEnd(t, gw)
				checkTally(t, gw, 0)
			}
			if over := time.Since(start) - deadlineBudget; over > deadlineSlack {
				t.Errorf("ended %v after the %v deadline, want at most %v", over, deadlineBudget, deadlineSlack)
			}
		})
	}
}

// waitExchangesEnd waits until no backend exchange of gw is in flight.
func waitExchangesEnd(t *testing.T, gw *Gateway) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var inflight int64
		for _, b := range gw.Stats().Backends {
			inflight += b.InFlight
		}
		if inflight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d backend exchanges still in flight", inflight)
		}
		time.Sleep(time.Millisecond)
	}
}

func deadlineCells() []deadlineCell {
	return []deadlineCell{
		{"direct", "dial", "deadline", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, _, _ := deadlineServer(t, nil)
			cli := deadlineClient(t, func(cc *core.ClientConfig) { cc.Dial = stalledDial(link.Dial) })
			_, err := cli.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "x"))
			return deadlineAnswer(err), nil
		}},
		{"direct", "request write", "deadline", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			cli := deadlineClient(t, func(cc *core.ClientConfig) { cc.Dial = unreadDial(t) })
			_, err := cli.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "x"))
			return deadlineAnswer(err), nil
		}},
		{"direct", "pipelined read turn", "deadline", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, _, hold := deadlineServer(t, func(sc *core.ServerConfig) { sc.PipelineWindow = 2 })
			cli := deadlineClient(t, func(cc *core.ClientConfig) {
				cc.Dial = link.Dial
				cc.KeepAlive = true
				cc.PipelineWindow = 2
			})
			// The held call takes the connection's read turn; the probe
			// joins the connection behind it.
			first := cli.Go("Echo", "hold")
			hold.started(t)
			_, err := cli.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "x"))
			hold.release()
			if _, ferr := first.Wait(); ferr != nil {
				t.Errorf("held call: %v", ferr)
			}
			return deadlineAnswer(err), nil
		}},
		{"direct", "queue admission", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, srv, _ := deadlineServer(t, func(sc *core.ServerConfig) { sc.AppWorkers, sc.AppQueue = 1, 1 })
			cli := deadlineClient(t, func(cc *core.ClientConfig) { cc.Dial = link.Dial })
			fillQueue(t, cli, srv)
			_, err := cli.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "x"))
			return deadlineAnswer(err), nil
		}},
		{"direct", "operation watchdog", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, _, _ := deadlineServer(t, func(sc *core.ServerConfig) { sc.OperationTimeout = 10 * time.Second })
			cli := deadlineClient(t, func(cc *core.ClientConfig) { cc.Dial = link.Dial })
			_, err := cli.CallCtx(ctx, "Echo", "hold")
			return deadlineAnswer(err), nil
		}},
		{"direct", "retry backoff", "deadline", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, _, _ := deadlineServer(t, nil)
			link.FailDials(1)
			cli := deadlineClient(t, func(cc *core.ClientConfig) {
				cc.Dial = link.Dial
				cc.Retry = &core.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Second}
			})
			_, err := cli.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "x"))
			return deadlineAnswer(err), nil
		}},

		{"gateway", "dial", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, _, _ := deadlineServer(t, nil)
			cli, gw := deadlineGateway(t, BackendConfig{Dial: stalledDial(link.Dial)}, nil)
			return sendPair(cli, ctx, "echo"), gw
		}},
		{"gateway", "request write", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			cli, gw := deadlineGateway(t, BackendConfig{Dial: unreadDial(t)}, nil)
			return sendPair(cli, ctx, "echo"), gw
		}},
		{"gateway", "pipelined read turn", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, arrived := signallingSilentBackend(t)
			cli, gw := deadlineGateway(t, BackendConfig{Dial: link.Dial}, func(cfg *Config) { cfg.PipelineBackends = 2 })
			// The first batch's sub-batch takes the backend connection's read
			// turn and is never answered; the probe's joins it behind.
			firstCtx, cancelFirst := context.WithCancel(context.Background())
			firstDone := make(chan struct{})
			go func() { defer close(firstDone); sendPair(cli, firstCtx, "echo") }()
			waitArrived(t, arrived)
			answer := sendPair(cli, ctx, "echo")
			cancelFirst()
			<-firstDone
			return answer, gw
		}},
		{"gateway", "queue admission", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, srv, _ := deadlineServer(t, func(sc *core.ServerConfig) { sc.AppWorkers, sc.AppQueue = 1, 1 })
			fillQueue(t, deadlineClient(t, func(cc *core.ClientConfig) { cc.Dial = link.Dial }), srv)
			cli, gw := deadlineGateway(t, BackendConfig{Dial: link.Dial}, nil)
			return sendPair(cli, ctx, "echo"), gw
		}},
		{"gateway", "operation watchdog", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, _, _ := deadlineServer(t, func(sc *core.ServerConfig) { sc.OperationTimeout = 10 * time.Second })
			cli, gw := deadlineGateway(t, BackendConfig{Dial: link.Dial}, nil)
			return sendPair(cli, ctx, "hold"), gw
		}},
		{"gateway", "backend exchange", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			cli, gw := deadlineGateway(t, BackendConfig{Dial: silentBackend(t).Dial}, nil)
			return sendPair(cli, ctx, "echo"), gw
		}},
		{"gateway", "coalescer park", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			holdBatches(t)
			link, _, _ := deadlineServer(t, nil)
			cli, gw := deadlineGateway(t, BackendConfig{Dial: link.Dial}, func(cfg *Config) { cfg.Coalesce.Enabled = true })
			_, err := cli.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "x"))
			return deadlineAnswer(err), gw
		}},
		{"gateway", "retry backoff", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			link, _, _ := deadlineServer(t, nil)
			link.FailDials(1)
			cli, gw := deadlineGateway(t, BackendConfig{Dial: link.Dial}, func(cfg *Config) {
				cfg.Retry = &core.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Second}
			})
			return sendPair(cli, ctx, "echo"), gw
		}},
		{"gateway", "relayed single", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			return relayedSingle(t, ctx, false)
		}},
		{"gateway", "passthrough single", "timeout", func(t *testing.T, ctx context.Context) (string, *Gateway) {
			return relayedSingle(t, ctx, true)
		}},
	}
}

// relayedSingle sends one single call from a keep-alive client through a
// gateway that relays it whole — parsed, or unread when passthrough — to a
// backend that never answers. The client keeps its connection open, so
// only the request's own deadline can end the relayed exchange.
func relayedSingle(t *testing.T, ctx context.Context, passthrough bool) (string, *Gateway) {
	cli, gw := deadlineGateway(t, BackendConfig{Dial: silentBackend(t).Dial},
		func(cfg *Config) { cfg.Passthrough = passthrough },
		func(cc *core.ClientConfig) { cc.KeepAlive = true })
	_, err := cli.CallCtx(ctx, "Echo", "echo", soapenc.F("m", "x"))
	return deadlineAnswer(err), gw
}

// deadlineAnswer names what the client was answered: the taxonomy value of
// a fault, "deadline" for its own context's expiry, "dial" for a connection
// never made, "ok" for results.
func deadlineAnswer(err error) string {
	var dialErr *httpx.DialError
	switch f := fault.ClassifyError(err); {
	case err == nil:
		return "ok"
	case f != nil && errors.Is(f, fault.Timeout):
		return "timeout"
	case f != nil && errors.Is(f, fault.Cancelled):
		return "cancelled"
	case f != nil && errors.Is(f, fault.Retryable):
		return "busy"
	case f != nil:
		return "fault: " + err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.As(err, &dialErr):
		return "dial"
	}
	return "error: " + err.Error()
}

// sendPair sends a batch of two calls of op under ctx and names its answer:
// the message's, or its calls' when they agree.
func sendPair(cli *core.Client, ctx context.Context, op string) string {
	b := cli.NewBatch()
	calls := []*core.Call{b.Add("Echo", op, soapenc.F("m", "a")), b.Add("Echo", op, soapenc.F("m", "b"))}
	if err := b.SendCtx(ctx); err != nil {
		return deadlineAnswer(err)
	}
	var answers []string
	for _, c := range calls {
		_, err := c.Wait()
		answers = append(answers, deadlineAnswer(err))
	}
	if answers[0] == answers[1] {
		return answers[0]
	}
	return strings.Join(answers, ",")
}

// holdGate is the "hold" operation's gate: every call of it blocks until
// release, or until its context ends.
type holdGate struct {
	startedCh chan struct{}
	releaseCh chan struct{}
	once      sync.Once
}

func (h *holdGate) release() { h.once.Do(func() { close(h.releaseCh) }) }

// started waits for a hold call to begin executing.
func (h *holdGate) started(t *testing.T) {
	t.Helper()
	select {
	case <-h.startedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("hold call never started")
	}
}

// deadlineServer starts a backend server whose container adds "hold" to the
// gateway suites' operations, on a link of its own.
func deadlineServer(t *testing.T, mutate func(*core.ServerConfig)) (*netsim.Link, *core.Server, *holdGate) {
	t.Helper()
	hold := &holdGate{startedCh: make(chan struct{}, 8), releaseCh: make(chan struct{})}
	c := testContainer(t)
	svc, _ := c.Service("Echo")
	svc.MustRegister("hold", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		select {
		case hold.startedCh <- struct{}{}:
		default:
		}
		select {
		case <-hold.releaseCh:
		case <-ctx.Context().Done():
		}
		return params, nil
	}, "blocks until released")
	cfg := core.ServerConfig{Container: c, AppWorkers: 8, AppQueue: 64}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		hold.release()
		srv.Shutdown(5 * time.Second)
		checkServerTally(t, srv)
		link.Close()
	})
	return link, srv, hold
}

// deadlineClient is a client with a 5 s connection timeout, never reached:
// the probe's deadline is its budget.
func deadlineClient(t *testing.T, mutate func(*core.ClientConfig)) *core.Client {
	t.Helper()
	cfg := core.ClientConfig{Timeout: 5 * time.Second}
	mutate(&cfg)
	cli, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return cli
}

// deadlineGateway puts a gateway with one backend in front of a client;
// client, when given, adjusts the client's config.
func deadlineGateway(t *testing.T, backend BackendConfig, mutate func(*Config), client ...func(*core.ClientConfig)) (*core.Client, *Gateway) {
	t.Helper()
	backend.Name = "b0"
	cfg := Config{Backends: []BackendConfig{backend}, Registry: testContainer(t)}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(lis)
	t.Cleanup(func() { gw.Close(); link.Close() })
	return deadlineClient(t, func(cc *core.ClientConfig) {
		cc.Dial = link.Dial
		for _, m := range client {
			m(cc)
		}
	}), gw
}

// fillQueue occupies srv's one worker and one queue slot with held calls.
// They carry a deadline, so the second waits for the slot when it arrives
// before the worker has taken the first off the queue.
func fillQueue(t *testing.T, cli *core.Client, srv *core.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	cli.GoCtx(ctx, "Echo", "hold")
	cli.GoCtx(ctx, "Echo", "hold")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().AppStage.Submitted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("held calls never reached the application stage")
		}
		time.Sleep(time.Millisecond)
	}
}

// stalledDial is dial after deadlineHold: a connection attempt that hangs.
func stalledDial(dial httpx.Dialer) httpx.Dialer {
	return func() (net.Conn, error) {
		time.Sleep(deadlineHold)
		return dial()
	}
}

// unreadDial dials connections whose peer never reads, so a request write
// blocks until its deadline ends it.
func unreadDial(t *testing.T) httpx.Dialer {
	var mu sync.Mutex
	var peers []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range peers {
			p.Close()
		}
	})
	return func() (net.Conn, error) {
		c, peer := net.Pipe()
		mu.Lock()
		peers = append(peers, peer)
		mu.Unlock()
		return c, nil
	}
}

// signallingSilentBackend is silentBackend that signals the first bytes it
// reads.
func signallingSilentBackend(t *testing.T) (*netsim.Link, <-chan struct{}) {
	t.Helper()
	arrived := make(chan struct{})
	var once sync.Once
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					once.Do(func() { close(arrived) })
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { link.Close() })
	return link, arrived
}

func waitArrived(t *testing.T, arrived <-chan struct{}) {
	t.Helper()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the first sub-batch never reached the backend")
	}
}
