package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soapenc"
)

// newPlanSystem deploys services exercising dependency chains: a counter
// service whose ops compose.
func newPlanSystem(t *testing.T, mutate func(*ServerConfig, *ClientConfig)) *system {
	t.Helper()
	container := registry.NewContainer()
	math := container.MustAddService("Math", "urn:spi:Math", "arithmetic for plan tests")
	math.MustRegister("Const", func(ctx *registry.Context, p []soapenc.Field) ([]soapenc.Field, error) {
		v, _ := p[0].Value.(int64)
		return []soapenc.Field{soapenc.F("value", v)}, nil
	}, "returns its input")
	math.MustRegister("Add", func(ctx *registry.Context, p []soapenc.Field) ([]soapenc.Field, error) {
		var sum int64
		for _, f := range p {
			n, ok := f.Value.(int64)
			if !ok {
				return nil, soapFault("Add needs integer params, got %T for %q", f.Value, f.Name)
			}
			sum += n
		}
		return []soapenc.Field{soapenc.F("sum", sum)}, nil
	}, "adds its params")
	math.MustRegister("Slow", func(ctx *registry.Context, p []soapenc.Field) ([]soapenc.Field, error) {
		time.Sleep(20 * time.Millisecond)
		return []soapenc.Field{soapenc.F("value", int64(1))}, nil
	}, "sleeps 20ms")
	math.MustRegister("Fail", func(ctx *registry.Context, p []soapenc.Field) ([]soapenc.Field, error) {
		return nil, soapFault("deliberate")
	}, "always faults")
	math.MustRegister("Id", func(ctx *registry.Context, p []soapenc.Field) ([]soapenc.Field, error) {
		return p, nil
	}, "returns its params unchanged")
	math.MustRegister("Nested", func(ctx *registry.Context, p []soapenc.Field) ([]soapenc.Field, error) {
		return []soapenc.Field{soapenc.F("offer", soapenc.NewStruct(
			soapenc.F("price", 42.5),
			soapenc.F("name", "deal"),
		))}, nil
	}, "returns a struct result")

	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	scfg := ServerConfig{Container: container, AppWorkers: 8}
	ccfg := ClientConfig{Dial: link.Dial, Timeout: 10 * time.Second}
	if mutate != nil {
		mutate(&scfg, &ccfg)
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	cli, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close(); link.Close() })
	return &system{client: cli, server: srv, link: link}
}

func soapFault(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func TestPlanChain(t *testing.T) {
	sys := newPlanSystem(t, nil)
	p := sys.client.NewPlan()
	a := p.Add("Math", "Const", soapenc.F("v", int64(5)))
	b := p.Add("Math", "Add", soapenc.F("x", a.Ref("value")), soapenc.F("y", int64(3)))
	c := p.Add("Math", "Add", soapenc.F("x", b.Ref("sum")), soapenc.F("y", b.Ref("sum")))
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !soapenc.Equal(res[0].Value, int64(16)) { // (5+3)*2
		t.Errorf("chain result = %v, want 16", res[0].Value)
	}
	// The whole three-step chain used exactly one SOAP message.
	if st := sys.client.Stats(); st.Envelopes != 1 {
		t.Errorf("envelopes = %d, want 1", st.Envelopes)
	}
	if sys.link.Stats().Dials != 1 {
		t.Errorf("dials = %d, want 1", sys.link.Stats().Dials)
	}
}

func TestPlanDiamond(t *testing.T) {
	sys := newPlanSystem(t, nil)
	p := sys.client.NewPlan()
	root := p.Add("Math", "Const", soapenc.F("v", int64(10)))
	left := p.Add("Math", "Add", soapenc.F("x", root.Ref("value")), soapenc.F("y", int64(1)))
	right := p.Add("Math", "Add", soapenc.F("x", root.Ref("value")), soapenc.F("y", int64(2)))
	join := p.Add("Math", "Add", soapenc.F("x", left.Ref("sum")), soapenc.F("y", right.Ref("sum")))
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	res, err := join.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !soapenc.Equal(res[0].Value, int64(23)) { // (10+1)+(10+2)
		t.Errorf("diamond result = %v, want 23", res[0].Value)
	}
}

func TestPlanIndependentStepsRunConcurrently(t *testing.T) {
	sys := newPlanSystem(t, nil)
	p := sys.client.NewPlan()
	handles := make([]*StepHandle, 8)
	for i := range handles {
		handles[i] = p.Add("Math", "Slow")
	}
	start := time.Now()
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Errorf("8 independent 20ms steps took %v, want concurrent execution", elapsed)
	}
}

func TestPlanDependentStepsSerialize(t *testing.T) {
	sys := newPlanSystem(t, nil)
	p := sys.client.NewPlan()
	prev := p.Add("Math", "Slow")
	for i := 0; i < 3; i++ {
		// Chain through a fake dependency on "value" to force ordering.
		next := p.Add("Math", "Add", soapenc.F("x", prev.Ref("value")), soapenc.F("y", int64(0)))
		_ = next
		prev = p.Add("Math", "Slow")
	}
	start := time.Now()
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	_ = start
	// No strict timing assertion here (the Slows are independent); the
	// chain correctness is covered by TestPlanChain. This test ensures a
	// mixed dependency graph completes without deadlock.
}

func TestPlanFaultPropagatesToDependents(t *testing.T) {
	sys := newPlanSystem(t, nil)
	p := sys.client.NewPlan()
	bad := p.Add("Math", "Fail")
	dep := p.Add("Math", "Add", soapenc.F("x", bad.Ref("value")), soapenc.F("y", int64(1)))
	indep := p.Add("Math", "Const", soapenc.F("v", int64(9)))
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Wait(); err == nil {
		t.Error("failing step succeeded")
	}
	_, err := dep.Wait()
	if err == nil || !strings.Contains(err.Error(), "depends on step") {
		t.Errorf("dependent step err = %v", err)
	}
	res, err := indep.Wait()
	if err != nil || !soapenc.Equal(res[0].Value, int64(9)) {
		t.Errorf("independent step = %v, %v", res, err)
	}
}

func TestPlanMissingResultReference(t *testing.T) {
	sys := newPlanSystem(t, nil)
	p := sys.client.NewPlan()
	a := p.Add("Math", "Const", soapenc.F("v", int64(1)))
	b := p.Add("Math", "Add", soapenc.F("x", a.Ref("noSuchResult")))
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	_, err := b.Wait()
	if err == nil || !strings.Contains(err.Error(), "no such result") {
		t.Errorf("err = %v", err)
	}
}

func TestPlanNestedStructReference(t *testing.T) {
	sys := newPlanSystem(t, nil)
	p := sys.client.NewPlan()
	a := p.Add("Math", "Nested")
	b := p.Add("Math", "Id", soapenc.F("v", a.Ref("offer.price")))
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	res, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !soapenc.Equal(res[0].Value, 42.5) {
		t.Errorf("nested ref = %v, want 42.5", res[0].Value)
	}
}

func TestPlanForwardReferenceRejected(t *testing.T) {
	sys := newPlanSystem(t, nil)
	p := sys.client.NewPlan()
	// Build a forward reference by hand.
	fake := &StepHandle{Call: newCall("Math", "Const"), plan: p, index: 5}
	p.Add("Math", "Add", soapenc.F("x", fake.Ref("value")))
	err := p.Send()
	if err == nil || !strings.Contains(err.Error(), "not earlier") {
		t.Errorf("err = %v", err)
	}
}

func TestPlanEmptyAndDoubleSend(t *testing.T) {
	sys := newPlanSystem(t, nil)
	p := sys.client.NewPlan()
	if err := p.Send(); err == nil {
		t.Error("empty plan sent")
	}
	p2 := sys.client.NewPlan()
	p2.Add("Math", "Const", soapenc.F("v", int64(1)))
	if err := p2.Send(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Send(); err == nil {
		t.Error("double send accepted")
	}
	late := p2.Add("Math", "Const", soapenc.F("v", int64(2)))
	if _, err := late.Wait(); err == nil {
		t.Error("Add after Send resolved successfully")
	}
	// The late Add is rejected, not appended.
	if len(p2.steps) != 1 {
		t.Errorf("len = %d, want 1", len(p2.steps))
	}
}

func TestPlanInCoupledMode(t *testing.T) {
	sys := newPlanSystem(t, func(s *ServerConfig, c *ClientConfig) { s.Coupled = true })
	p := sys.client.NewPlan()
	a := p.Add("Math", "Const", soapenc.F("v", int64(2)))
	b := p.Add("Math", "Add", soapenc.F("x", a.Ref("value")), soapenc.F("y", a.Ref("value")))
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	res, err := b.Wait()
	if err != nil || !soapenc.Equal(res[0].Value, int64(4)) {
		t.Errorf("coupled plan = %v, %v", res, err)
	}
}

func TestPlanDeepChainNoDeadlock(t *testing.T) {
	// A 100-deep dependency chain with a tiny pool: the inline-run
	// fallback must keep it moving.
	sys := newPlanSystem(t, func(s *ServerConfig, c *ClientConfig) {
		s.AppWorkers = 1
		s.AppQueue = 1
	})
	p := sys.client.NewPlan()
	prev := p.Add("Math", "Const", soapenc.F("v", int64(0)))
	var last *StepHandle
	for i := 0; i < 100; i++ {
		last = p.Add("Math", "Add", soapenc.F("x", prevRef(prev, i)), soapenc.F("y", int64(1)))
		prev = last
	}
	if err := p.Send(); err != nil {
		t.Fatal(err)
	}
	res, err := last.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !soapenc.Equal(res[0].Value, int64(100)) {
		t.Errorf("deep chain = %v, want 100", res[0].Value)
	}
}

// prevRef picks the right result name: the first step returns "value",
// subsequent Adds return "sum".
func prevRef(h *StepHandle, i int) soapenc.Value {
	if i == 0 {
		return h.Ref("value")
	}
	return h.Ref("sum")
}
