package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soapenc"
)

// RunFaultInjection measures the serial baseline against the pack interface
// on a link that refuses every k-th connection attempt, with the client
// retry policy turned on. The pack interface's advantage compounds under
// faults: M serial messages expose the application to M dial attempts per
// round (each a chance to fail, back off and retry), while the packed
// message exposes it to exactly one — message reduction is also failure-
// surface reduction. Each row is the median of reps interleaved rounds.
func RunFaultInjection(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const m = 16
	const failEvery = 5 // every 5th dial is refused
	payload := "aaaaaaaaaa"
	retry := &core.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   500 * time.Microsecond,
		MaxDelay:    5 * time.Millisecond,
		Multiplier:  2,
	}
	result := &AblationResult{Title: fmt.Sprintf(
		"Fault injection: serial vs packed, every %dth dial refused (M=%d, 10 B payloads, %d retry attempts)",
		failEvery, m, retry.MaxAttempts)}

	type variant struct {
		name   string
		packed bool
		faulty bool
		env    *Env
		times  []time.Duration
	}
	variants := []*variant{
		{name: "serial, clean link"},
		{name: "serial, faulty link + retries", faulty: true},
		{name: "packed, clean link", packed: true},
		{name: "packed, faulty link + retries", packed: true, faulty: true},
	}
	defer func() {
		for _, v := range variants {
			if v.env != nil {
				v.env.Close()
			}
		}
	}()
	for _, v := range variants {
		cfg := netsim.LAN100()
		if v.faulty {
			var dials atomic.Int64
			cfg.DialFault = func() error {
				if dials.Add(1)%failEvery == 0 {
					return netsim.ErrDialFault
				}
				return nil
			}
		}
		env, err := NewEnv(EnvOptions{Network: cfg, Retry: retry})
		if err != nil {
			return nil, err
		}
		v.env = env
	}
	run := func(v *variant) error {
		if v.packed {
			return packedRun(v.env.Client, m, payload)
		}
		for i := 0; i < m; i++ {
			if _, err := v.env.Client.Call("Echo", "echo", soapenc.F("data", payload)); err != nil {
				return err
			}
		}
		return nil
	}
	// The variants take turns within each round, as RunLatency's
	// approaches do, so a slow spell on a shared machine lands on all of
	// them alike; the median then ignores it. The first round warms up.
	for round := 0; round <= reps; round++ {
		for _, v := range variants {
			start := time.Now()
			if err := run(v); err != nil {
				return nil, fmt.Errorf("%s: %w", v.name, err)
			}
			if round > 0 {
				v.times = append(v.times, time.Since(start))
			}
		}
	}
	for _, v := range variants {
		st := v.env.Client.Stats()
		note := fmt.Sprintf("%d exchanges, %d retries across all runs", st.Envelopes, st.Resilience.Retries)
		result.Rows = append(result.Rows, AblationRow{Name: v.name, Millis: metrics.Millis(metrics.Summarize(v.times).P50), Note: note, client: st})
	}
	return result, nil
}

// RunDeadlineDegradation measures the per-item deadline degradation path:
// a packed message mixing fast operations with one operation slower than
// the budget. The envelope comes back before the deadline with real
// results for the fast entries and a Server.Timeout fault for the slow one
// — the whole-message failure a deadline would otherwise cause is
// contained to the item that earned it.
func RunDeadlineDegradation(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const m = 8 // fast entries per message, plus one slow entry
	result := &AblationResult{Title: fmt.Sprintf(
		"Deadline degradation: packed M=%d fast + 1 slow op, 40ms budget", m)}

	env, err := NewEnv(EnvOptions{WorkTime: time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	// The slow operation outlives the budget by an order of magnitude.
	svc, _ := env.Container.Service("Echo")
	svc.MustRegister("slowOp", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		select {
		case <-ctx.Context().Done():
			return nil, ctx.Context().Err()
		case <-time.After(400 * time.Millisecond):
			return params, nil
		}
	}, "sleeps past any reasonable budget")

	var degraded, fullResults int64
	ms, err := measure(1, reps, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
		defer cancel()
		b := env.Client.NewBatch()
		fast := make([]*core.Call, m)
		for i := range fast {
			fast[i] = b.Add("Echo", "echo", soapenc.F("data", "x"))
		}
		slow := b.Add("Echo", "slowOp")
		if err := b.SendCtx(ctx); err != nil {
			return fmt.Errorf("degraded send failed outright: %w", err)
		}
		for _, c := range fast {
			if _, err := c.Wait(); err != nil {
				return fmt.Errorf("fast entry lost to the slow one: %w", err)
			}
			fullResults++
		}
		if _, err := slow.Wait(); core.IsTimeoutFault(err) {
			degraded++
		} else if err == nil {
			return fmt.Errorf("slow entry finished inside a 40ms budget; not a degradation run")
		} else {
			return fmt.Errorf("slow entry: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	result.Rows = append(result.Rows, AblationRow{
		Name:   "packed with 40ms budget",
		Millis: ms,
		Note: fmt.Sprintf("%d fast results delivered, %d slow entries degraded to "+core.FaultCodeTimeout,
			fullResults, degraded),
	})
	return result, nil
}
