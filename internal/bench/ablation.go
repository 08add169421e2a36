package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/soapenc"
)

// AblationRow is one measured configuration of an ablation study.
type AblationRow struct {
	Name   string
	Millis float64
	Note   string
	// client is what the row's client counted, where the run reports it.
	client core.ClientStats
}

// AblationResult is one completed ablation table.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// packedRun sends one packed batch of m echo calls with the given payload.
func packedRun(c *core.Client, m int, payload string) error {
	b := c.NewBatch()
	for i := 0; i < m; i++ {
		b.Add("Echo", "echo", soapenc.F("data", payload))
	}
	return b.Send()
}

// RunStagedVsCoupled contrasts the staged independent thread pool (§3.3)
// with the traditional coupled architecture (Figure 1) on a packed message
// whose operations each carry real work: the staged server executes them
// concurrently, the coupled one serially.
func RunStagedVsCoupled(reps int) (*AblationResult, error) {
	const m = 16
	const work = 2 * time.Millisecond
	var c comparison
	defer c.close()
	for _, v := range []struct {
		name, note string
		coupled    bool
	}{
		{"staged (two independent pools)", "operations run concurrently on the app stage", false},
		{"coupled (single thread, Figure 1)", "operations run serially on the protocol thread", true},
	} {
		if _, err := c.echo(v.name, v.note, EnvOptions{Coupled: v.coupled, WorkTime: work}, OurApproach, m, "x"); err != nil {
			return nil, err
		}
	}
	return c.table(fmt.Sprintf(
		"Ablation: staged pool vs coupled thread (packed M=%d, %v work/op)", m, work), 1, reps)
}

// RunConnectionReuse isolates the TCP-setup component of the per-message
// overhead: the serial baseline with and without keep-alive, versus
// packing, at M=64 small messages.
func RunConnectionReuse(reps int) (*AblationResult, error) {
	const m = 64
	var c comparison
	defer c.close()
	for _, v := range []struct {
		name, note string
		keepAlive  bool
		approach   Approach
	}{
		{"serial, new connection per message", "the paper's No Optimization baseline", false, NoOptimization},
		{"serial, keep-alive connection", "removes TCP setup, keeps per-message headers", true, NoOptimization},
		{"packed (Our Approach)", "one connection, one set of headers", false, OurApproach},
	} {
		if _, err := c.echo(v.name, v.note, EnvOptions{KeepAlive: v.keepAlive}, v.approach, m, "aaaaaaaaaa"); err != nil {
			return nil, err
		}
	}
	return c.table(fmt.Sprintf("Ablation: connection reuse (serial M=%d, 10 B payloads)", m), 1, reps)
}

// RunPoolWidth sweeps the application-stage width for a packed message of
// working operations, showing where server-side concurrency saturates.
func RunPoolWidth(reps int) (*AblationResult, error) {
	const m = 32
	const work = 2 * time.Millisecond
	var c comparison
	defer c.close()
	for _, workers := range []int{1, 2, 4, 8, 16, 32} {
		if _, err := c.echo(fmt.Sprintf("%d app workers", workers), "",
			EnvOptions{AppWorkers: workers, WorkTime: work}, OurApproach, m, "x"); err != nil {
			return nil, err
		}
	}
	return c.table(fmt.Sprintf(
		"Ablation: application-stage width (packed M=%d, %v work/op)", m, work), 1, reps)
}

// RunAutoBatch compares explicit packing against the automatic batcher
// (the paper's future-work interface) and against plain concurrent calls,
// for M concurrent client goroutines.
func RunAutoBatch(reps int) (*AblationResult, error) {
	const m = 32
	payload := "aaaaaaaaaa"
	var c comparison
	defer c.close()
	if _, err := c.echo("Multiple Threads (no batching)", "M messages, M connections",
		EnvOptions{}, MultipleThreads, m, payload); err != nil {
		return nil, err
	}
	if _, err := c.echo("explicit Batch (pack interface)", "caller groups the calls",
		EnvOptions{}, OurApproach, m, payload); err != nil {
		return nil, err
	}
	// Auto batcher: concurrent unmodified callers coalesced as the batch
	// settles.
	env, err := c.env(EnvOptions{})
	if err != nil {
		return nil, err
	}
	ab := core.NewAutoBatcher(env.Client, m)
	c.onClose(ab.Close)
	c.add("AutoBatcher (transparent packing)", "", func() error {
		var wg sync.WaitGroup
		errs := make([]error, m)
		for i := 0; i < m; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = ab.Call("Echo", "echo", soapenc.F("data", payload))
			}(i)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	r, err := c.table(fmt.Sprintf(
		"Ablation: automatic batching (%d concurrent client calls, 10 B payloads)", m), 1, reps)
	if err != nil {
		return nil, err
	}
	r.Rows[2].Note = fmt.Sprintf("a batch goes out once a yield brings it no further call; %d envelopes total across runs",
		env.Client.Stats().Envelopes)
	return r, nil
}
