package gateway

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/soapenc"
	"repro/internal/trace"
)

// TestTraceIDReachesBackends sends a traced client's calls through a gateway
// to two traced backends, each with a tracer of its own as separate processes
// have: every server span a backend records must carry the client's id, so
// the client's and the backends' spans stitch into one path.
func TestTraceIDReachesBackends(t *testing.T) {
	const id = 0x5EED // above any id the backends' own tracers hand out here
	for _, tc := range []struct {
		name string
		send func(ctx context.Context, cli *core.Client) error
	}{
		{"packed", func(ctx context.Context, cli *core.Client) error {
			b := cli.NewBatch()
			for i := 0; i < 8; i++ {
				b.Add("Echo", "echo", soapenc.F("i", int64(i)))
			}
			return b.SendCtx(ctx)
		}},
		{"single", func(ctx context.Context, cli *core.Client) error {
			_, err := cli.CallCtx(ctx, "Echo", "echo", soapenc.F("i", int64(1)))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tracers []*trace.Tracer
			var backends []BackendConfig
			for i := 0; i < 2; i++ {
				tr := trace.New(0)
				link := netsim.NewLink(netsim.Fast())
				lis, err := link.Listen()
				if err != nil {
					t.Fatal(err)
				}
				srv, err := core.NewServer(core.ServerConfig{
					Container: testContainer(t), AppWorkers: 4, AppQueue: 64, Tracer: tr,
				})
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(lis)
				t.Cleanup(func() { srv.Close(); link.Close() })
				tracers = append(tracers, tr)
				backends = append(backends, BackendConfig{Name: fmt.Sprintf("b%d", i), Dial: link.Dial})
			}
			gw, err := New(Config{Backends: backends, Registry: testContainer(t)})
			if err != nil {
				t.Fatal(err)
			}
			gwLink := netsim.NewLink(netsim.Fast())
			glis, err := gwLink.Listen()
			if err != nil {
				t.Fatal(err)
			}
			go gw.Serve(glis)
			t.Cleanup(func() { gw.Close(); gwLink.Close() })
			clientTr := trace.New(0)
			cli, err := core.NewClient(core.ClientConfig{Dial: gwLink.Dial, Timeout: 5 * time.Second, Tracer: clientTr})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cli.Close() })

			if err := tc.send(trace.NewContext(context.Background(), id), cli); err != nil {
				t.Fatal(err)
			}
			for _, s := range clientTr.Snapshot() {
				if s.Trace != id {
					t.Errorf("client span %s carries trace %d, want %d", s.Stage, s.Trace, id)
				}
			}
			spans := 0
			for i, tr := range tracers {
				for _, s := range tr.Snapshot() {
					if !strings.HasPrefix(s.Stage, "server.") {
						continue
					}
					spans++
					if s.Trace != id {
						t.Errorf("backend b%d span %s carries trace %d, want the client's %d", i, s.Stage, s.Trace, id)
					}
				}
			}
			if spans == 0 {
				t.Fatal("the backends recorded no server spans")
			}
		})
	}
}
