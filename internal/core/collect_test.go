package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// These tests hold the collector to its contract without a single sleep: the
// goroutines they wait on are held and released on channels.

// TestCollectorWritesEntriesAsTheyComplete: a 16-entry batch whose slot-0
// handler is held on a channel has the other 15 entries encoded by the
// dispatch's drain before slot 0 is released — nothing waits for a slow head
// — and slot 0's entry is then written last.
func TestCollectorWritesEntriesAsTheyComplete(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	sys := newSystem(t, func(s *ServerConfig, c *ClientConfig) {
		echo, _ := s.Container.Service("Echo")
		echo.MustRegister("hold", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			<-gate
			return params, nil
		}, "answers once the test releases it")
	})
	ctx := context.Background()
	srv := sys.server
	r := srv.newRun(ctx, nil, false, false)
	for i := 0; i < 16; i++ {
		op := "echo"
		if i == 0 {
			op = "hold"
		}
		r.mu.Lock()
		r.m.add(&rpcRequest{id: i, service: "Echo", op: op, params: []soapenc.Field{soapenc.F("i", int64(i))}}, nil)
		r.mu.Unlock()
		srv.start(r, i, false, false, time.Time{})
	}
	asm := newPackedAssembler("urn:spi:Echo")
	defer asm.release()
	wrote := make(chan int, 16) // one send per slot
	drained := make(chan error, 1)
	go func() {
		drained <- r.drain(ctx, func(i int) error {
			err := asm.encodeEntry(r.answer(i), srv.namespaceOf)
			wrote <- i
			return err
		})
	}()
	for k := 0; k < 15; k++ {
		if i := <-wrote; i == 0 {
			t.Fatalf("slot 0 was written while its handler was held, after %d others", k)
		}
	}
	release()
	if i := <-wrote; i != 0 {
		t.Fatalf("slot %d written last, want the held slot 0", i)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	asm.em.End()
	if err := asm.em.Finish(); err != nil {
		t.Fatal(err)
	}
	frag := asm.em.Bytes()
	if held := bytes.Index(frag, []byte(`<m:holdResponse spi:id="0">`)); held < 0 || bytes.Count(frag[:held], []byte(`<m:echoResponse`)) != 15 {
		t.Errorf("the held entry is not the last of 16: %s", frag)
	}
}

// TestCollectorSweepRacesLateDeliveries: when the deadline sweep races the
// workers' own deliveries, every slot is written exactly once — with its
// result or with its degraded stand-in — and a delivery after drain has
// returned changes nothing.
func TestCollectorSweepRacesLateDeliveries(t *testing.T) {
	const n = 32
	for round := 0; round < 200; round++ {
		x := &answers{m: dispatch{slots: make([]dslot, n)}}
		vals := make([]int, n)
		put := func(i, v int) {
			x.mu.Lock()
			a := x.m.done(i, fResult)
			if a&aFill != 0 {
				vals[i] = v
			}
			x.signal(a)
			x.mu.Unlock()
		}
		ctx, cancel := context.WithCancel(context.Background())
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				put(i, i)
			}(i)
		}
		go func() { <-start; cancel() }()
		close(start)
		writes := make([]int, n)
		err := x.drain(ctx, func(i int) error {
			v := vals[i]
			if x.m.slots[i].how == fDegraded {
				v = -1 - i
			}
			if writes[i]++; v != i && v != -1-i {
				t.Errorf("round %d: slot %d written with %d", round, i, v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for i, w := range writes {
			if w != 1 {
				t.Fatalf("round %d: slot %d written %d times", round, i, w)
			}
			v := vals[i]
			put(i, n)
			if late := vals[i]; late != v {
				t.Fatalf("round %d: slot %d went from %d to %d after the drain", round, i, v, late)
			}
		}
	}
}

// TestPlanStepAfterDegradeIsDropped: a plan step that completes after the plan
// degraded is dropped, and so is the step that was waiting on it. Step 1 is
// held until the plan has answered; it only starts once step 0 has completed,
// and the plan is cancelled as it starts, so the answer is deterministic:
// step 0's result, and the cancellation fault for steps 1 and 2.
func TestPlanStepAfterDegradeIsDropped(t *testing.T) {
	started, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	sys := newPlanSystem(t, func(s *ServerConfig, c *ClientConfig) {
		math, _ := s.Container.Service("Math")
		math.MustRegister("Hold", func(ctx *registry.Context, p []soapenc.Field) ([]soapenc.Field, error) {
			close(started)
			<-gate
			return []soapenc.Field{soapenc.F("value", int64(7))}, nil
		}, "answers once the test releases it")
	})
	p := sys.client.NewPlan()
	c := p.Add("Math", "Const", soapenc.F("v", int64(3)))
	h := p.Add("Math", "Hold", soapenc.F("x", c.Ref("value")))
	p.Add("Math", "Add", soapenc.F("x", h.Ref("value")), soapenc.F("y", int64(1)))
	req := httpx.NewRequest("POST", "/services/", writtenDocument(t, soap.V11, p.writeBody))

	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-started; cancel() }()
	resp := sys.server.HandleHTTP(ctx, req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, resp.Body)
	}
	defer resp.Release()
	answered := bytes.Clone(resp.Body)
	release()
	sys.server.Close() // waits for the held step and whatever it schedules

	results, err := readPackedReply(answered, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r == nil || r.fault != nil || !soapenc.Equal(r.results[0].Value, int64(3)) {
		t.Errorf("step 0 = %+v, want its result 3", r)
	}
	for _, id := range []int{1, 2} {
		if r := results[id]; r == nil || r.fault == nil || r.fault.Code != FaultCodeCancelled {
			t.Errorf("step %d = %+v, want the %s fault", id, r, FaultCodeCancelled)
		}
	}
	if !bytes.Equal(resp.Body, answered) {
		t.Errorf("the late steps changed the response after it was written:\n%s\nwas\n%s", resp.Body, answered)
	}
	if st := sys.server.Stats(); st.Requests != 2 {
		t.Errorf("%d operations ran, want 2: step 2 waited on a step that completed after the plan degraded", st.Requests)
	}
}
