package bench

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// comparison is the one loop behind every figure that sets variants against
// each other. A runner builds all of its variants before the first round, on
// environments the comparison owns; run then plays them in turns — warm-up
// rounds, then reps measured rounds, every variant once a round — so a slow
// spell on a shared machine lands on all of them alike, and each variant's
// median ignores it. The environments stay open until close, so a note may
// read a variant's counters after the rounds.
type comparison struct {
	rows    []AblationRow
	runs    []func() error
	closers []func()
}

// add appends a variant: its row's name and note, and one timed run of it.
func (c *comparison) add(name, note string, run func() error) {
	c.rows = append(c.rows, AblationRow{Name: name, Note: note})
	c.runs = append(c.runs, run)
}

// onClose has close call f; close calls what it was given last first.
func (c *comparison) onClose(f func()) { c.closers = append(c.closers, f) }

// env builds a client/server environment that close tears down.
func (c *comparison) env(opt EnvOptions) (*Env, error) {
	env, err := NewEnv(opt)
	if err != nil {
		return nil, err
	}
	c.onClose(env.Close)
	return env, nil
}

// gateway builds a scale-out farm that close tears down.
func (c *comparison) gateway(opt GatewayOptions) (*GatewayEnv, error) {
	env, err := NewGatewayEnv(opt)
	if err != nil {
		return nil, err
	}
	c.onClose(env.Close)
	return env, nil
}

// echo adds a variant that sends m echo calls of payload under approach a
// on an environment of its own, and returns that environment.
func (c *comparison) echo(name, note string, opt EnvOptions, a Approach, m int, payload string) (*Env, error) {
	env, err := c.env(opt)
	if err != nil {
		return nil, err
	}
	c.add(name, note, func() error { return runApproach(env.Client, a, m, payload) })
	return env, nil
}

// run plays warmup rounds, then reps measured ones (5 if reps <= 0), sets
// each row's Millis to its variant's median and returns each variant's
// summary.
func (c *comparison) run(warmup, reps int) ([]metrics.Summary, error) {
	if reps <= 0 {
		reps = 5
	}
	samples := make([][]time.Duration, len(c.runs))
	for round := 0; round < warmup+reps; round++ {
		for i, run := range c.runs {
			start := time.Now()
			if err := run(); err != nil {
				return nil, fmt.Errorf("%s: %w", c.rows[i].Name, err)
			}
			if round >= warmup {
				samples[i] = append(samples[i], time.Since(start))
			}
		}
	}
	sums := make([]metrics.Summary, len(samples))
	for i := range sums {
		sums[i] = metrics.Summarize(samples[i])
		c.rows[i].Millis = metrics.Millis(sums[i].P50)
	}
	return sums, nil
}

// table runs the rounds and returns the figure, one row a variant.
func (c *comparison) table(title string, warmup, reps int) (*AblationResult, error) {
	if _, err := c.run(warmup, reps); err != nil {
		return nil, err
	}
	return &AblationResult{Title: title, Rows: c.rows}, nil
}

// close tears down what the variants were built on.
func (c *comparison) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}
