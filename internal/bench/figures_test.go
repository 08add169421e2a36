package bench

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the figure goldens in testdata/")

// number matches every figure a table prints, signed or not.
var number = regexp.MustCompile(`[-+]?[0-9]+(\.[0-9]+)?`)

// shape is what a printed table says with its numbers masked and its column
// padding collapsed: the title, the row names and the notes, not what was
// measured.
func shape(printed string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(printed, "\n"), "\n") {
		b.WriteString(strings.Join(strings.Fields(number.ReplaceAllString(line, "N")), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares the shape of a printed table with
// testdata/<name>.golden; go test -update rewrites the file.
func checkGolden(t *testing.T, name, printed string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	got := shape(printed)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s reads\n%s\nwant (%s)\n%s", name, got, path, want)
	}
}

func printedAblation(r *AblationResult) string {
	var b strings.Builder
	PrintAblation(&b, r)
	return b.String()
}

// TestFigureGoldens runs every figure that sets variants against each other
// once at reps 1 and holds what it prints — title, row names, notes — to its
// golden. The transport figure takes about ten seconds and is checked by the
// shape census instead (TestTransportRows).
func TestFigureGoldens(t *testing.T) {
	skipTiming(t)
	ablation := func(run func(int) (*AblationResult, error)) func() (string, error) {
		return func() (string, error) {
			r, err := run(1)
			if err != nil {
				return "", err
			}
			return printedAblation(r), nil
		}
	}
	for _, fig := range []struct {
		name  string
		print func() (string, error)
	}{
		{"staged-vs-coupled", ablation(RunStagedVsCoupled)},
		{"connection-reuse", ablation(RunConnectionReuse)},
		{"pool-width", ablation(RunPoolWidth)},
		{"autobatch", ablation(RunAutoBatch)},
		{"deadline-degradation", ablation(RunDeadlineDegradation)},
		{"fault-injection", ablation(RunFaultInjection)},
		{"coalesce", ablation(RunCoalesce)},
		{"gateway-scaling", ablation(RunGatewayScaling)},
		{"related-work", ablation(RunRelatedWork)},
		{"unified-fast-path", ablation(RunUnifiedFastPath)},
		{"latency", func() (string, error) {
			cfg := quickSweep(Figure5(), []int{1, 4})
			cfg.Repetitions = 1
			r, err := RunLatency(cfg)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			PrintLatency(&b, r)
			return b.String(), nil
		}},
		{"travel", func() (string, error) {
			r, err := RunTravel(TravelConfig{Repetitions: 1, WorkTime: time.Millisecond})
			if err != nil {
				return "", err
			}
			var b strings.Builder
			PrintTravel(&b, r)
			return b.String(), nil
		}},
	} {
		t.Run(fig.name, func(t *testing.T) {
			printed, err := fig.print()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fig.name, printed)
		})
	}
}
