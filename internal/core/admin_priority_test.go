package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soapenc"
)

// TestAdminBypassesAppStage pins the control-plane priority lane: Admin
// operations execute on the protocol thread even in the staged
// architecture, so a GetStats poll answers while the application stage is
// completely wedged. Without the lane the poll would queue behind the very
// backlog it is supposed to report, and an exporter would lose sight of the
// most overloaded backend exactly when it matters most.
func TestAdminBypassesAppStage(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 3)
	c := registry.NewContainer()
	svc := c.MustAddService("Block", "urn:spi:Block", "parks until released")
	svc.MustRegister("wait", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		entered <- struct{}{}
		<-gate
		return params, nil
	}, "blocks on a gate")

	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Container: c, AppWorkers: 1, AppQueue: 4,
		AdminService: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	submits := watchSubmits(srv)
	go srv.Serve(lis)
	cli, err := NewClient(ClientConfig{Dial: link.Dial, Timeout: 5 * time.Second, KeepAlive: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		link.Close()
	})
	if _, err := cli.Call(admin.ServiceName, admin.OpSetState, soapenc.F("weight", int64(2))); err != nil {
		t.Fatal(err)
	}

	// Wedge the app stage: the single worker parks on the gate and more
	// calls stack in the queue behind it.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blocked, err := NewClient(ClientConfig{Dial: link.Dial, Timeout: 30 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			defer blocked.Close()
			if _, err := blocked.Call("Block", "wait", soapenc.F("n", int64(1))); err != nil {
				t.Errorf("gated call: %v", err)
			}
		}()
	}
	// Saturated: the worker holds one call and the other two are queued.
	<-entered
	submits.wait(t, 3, "the gated calls")

	// The control-plane call must answer promptly despite the wedge, and
	// its snapshot must show the saturation it bypassed.
	start := time.Now()
	fields, err := cli.Call(admin.ServiceName, admin.OpGetStats)
	if err != nil {
		t.Fatalf("GetStats while app stage wedged: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("GetStats took %v; control plane queued behind data plane", d)
	}
	stats, err := admin.StatsFromFields(fields)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Weight != 2 || stats.Busy < 1 || stats.QueueDepth < 1 {
		t.Errorf("stats = weight %d busy %d queue %d; want weight 2, busy ≥ 1, queue ≥ 1",
			stats.Weight, stats.Busy, stats.QueueDepth)
	}

	close(gate)
	wg.Wait()
}
