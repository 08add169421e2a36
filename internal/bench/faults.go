package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
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
// surface reduction.
func RunFaultInjection(reps int) (*AblationResult, error) {
	const m = 16
	const failEvery = 5 // every 5th dial is refused
	retry := &core.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   500 * time.Microsecond,
		MaxDelay:    5 * time.Millisecond,
		Multiplier:  2,
	}
	var c comparison
	defer c.close()
	var envs []*Env
	for _, v := range []struct {
		name     string
		approach Approach
		faulty   bool
	}{
		{"serial, clean link", NoOptimization, false},
		{"serial, faulty link + retries", NoOptimization, true},
		{"packed, clean link", OurApproach, false},
		{"packed, faulty link + retries", OurApproach, true},
	} {
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
		env, err := c.echo(v.name, "", EnvOptions{Network: cfg, Retry: retry}, v.approach, m, "aaaaaaaaaa")
		if err != nil {
			return nil, err
		}
		envs = append(envs, env)
	}
	r, err := c.table(fmt.Sprintf(
		"Fault injection: serial vs packed, every %dth dial refused (M=%d, 10 B payloads, %d retry attempts)",
		failEvery, m, retry.MaxAttempts), 1, reps)
	if err != nil {
		return nil, err
	}
	for i, env := range envs {
		st := env.Client.Stats()
		r.Rows[i].Note = fmt.Sprintf("%d exchanges, %d retries across all runs", st.Envelopes, st.Resilience.Retries)
		r.Rows[i].client = st
	}
	return r, nil
}

// RunDeadlineDegradation measures the per-item deadline degradation path:
// a packed message mixing fast operations with one operation slower than
// the budget. The envelope comes back before the deadline with real
// results for the fast entries and a Server.Timeout fault for the slow one
// — the whole-message failure a deadline would otherwise cause is
// contained to the item that earned it.
func RunDeadlineDegradation(reps int) (*AblationResult, error) {
	const m = 8 // fast entries per message, plus one slow entry
	var c comparison
	defer c.close()
	env, err := c.env(EnvOptions{WorkTime: time.Millisecond})
	if err != nil {
		return nil, err
	}
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
	c.add("packed with 40ms budget", "", func() error {
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
		for _, call := range fast {
			if _, err := call.Wait(); err != nil {
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
	r, err := c.table(fmt.Sprintf("Deadline degradation: packed M=%d fast + 1 slow op, 40ms budget", m), 1, reps)
	if err != nil {
		return nil, err
	}
	r.Rows[0].Note = fmt.Sprintf("%d fast results delivered, %d slow entries degraded to "+core.FaultCodeTimeout,
		fullResults, degraded)
	return r, nil
}
