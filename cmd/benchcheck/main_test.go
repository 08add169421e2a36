package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/soap"
)

// res is a measured row with the two counts the gate judges.
func res(name string, allocs, bytes int64) Result {
	return Result{Name: name, N: 1, NsPerOp: 1, AllocsPerOp: allocs, BytesPerOp: bytes}
}

// runCompare writes each baseline of the chain to a file of its own and
// compares cur against the chain in that order.
func runCompare(t *testing.T, chain [][]Result, cur []Result) error {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, results := range chain {
		blob, err := json.Marshal(Report{Results: results})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_"+string(rune('a'+i))+".json")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return compare(strings.Join(paths, ","), Report{Results: cur})
}

func TestCompare(t *testing.T) {
	const coalesced = "e2e/gw-coalesced-singles-16"
	timing := func(r Result) Result { r.timing = true; return r }
	for _, tc := range []struct {
		name  string
		chain [][]Result
		cur   []Result
		fail  string // the row the error names; empty when the gate passes
	}{
		{"allocs at +2% pass", [][]Result{{res("r", 1000, 0)}}, []Result{res("r", 1020, 0)}, ""},
		{"allocs past +2% fail", [][]Result{{res("r", 1000, 0)}}, []Result{res("r", 1021, 0)}, "r: 1000 -> 1021 allocs/op"},
		{"timing-dependent allocs at +35% pass", [][]Result{{res(coalesced, 100, 0)}}, []Result{timing(res(coalesced, 135, 0))}, ""},
		{"timing-dependent allocs past +35% fail", [][]Result{{res(coalesced, 100, 0)}}, []Result{timing(res(coalesced, 136, 0))}, coalesced + ": 100 -> 136 allocs/op"},
		{"zero allocs fail on one", [][]Result{{res("r", 0, 0)}}, []Result{res("r", 1, 0)}, "r: 0 -> 1 allocs/op"},
		{"bytes unjudged on a zero baseline", [][]Result{{res("r", 1, 0)}}, []Result{res("r", 1, 1<<20)}, ""},
		{"bytes at +35% pass", [][]Result{{res("r", 1, 1000)}}, []Result{res("r", 1, 1350)}, ""},
		{"bytes past +35% fail", [][]Result{{res("r", 1, 1000)}}, []Result{res("r", 1, 1351)}, "r: 1000 -> 1351 bytes/op"},
		{"first file wins", [][]Result{{res("r", 10, 0)}, {res("r", 100, 0)}}, []Result{res("r", 50, 0)}, "r: 10 -> 50 allocs/op"},
		{"later file fills a row", [][]Result{{res("a", 10, 0)}, {res("r", 100, 0)}}, []Result{res("a", 10, 0), res("r", 100, 0)}, ""},
		{"new and dropped rows pass", [][]Result{{res("old", 10, 0)}}, []Result{res("new", 1000, 1<<20)}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runCompare(t, tc.chain, tc.cur)
			switch {
			case tc.fail == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.fail != "" && err == nil:
				t.Fatalf("gate passed, want it to fail on %q", tc.fail)
			case tc.fail != "" && !strings.Contains(err.Error(), tc.fail):
				t.Fatalf("gate failed with %v, want %q", err, tc.fail)
			}
		})
	}
}

// TestRowTable holds the table to what the gate needs of it: one row a name,
// the timing class on exactly the rows whose allocs/op move with scheduling,
// and every row a baseline records still in the table — a renamed row would
// otherwise only print "dropped" and pass.
func TestRowTable(t *testing.T) {
	rows := map[string]row{}
	var timing []string
	for _, g := range table() {
		for _, r := range g.rows {
			if _, dup := rows[r.name]; dup {
				t.Errorf("row %s is in the table twice", r.name)
			}
			rows[r.name] = r
			if (r.bench == nil) == (r.sweep == nil) {
				t.Errorf("row %s: want exactly one of bench and sweep", r.name)
			}
			if r.timing {
				timing = append(timing, r.name)
			}
		}
	}
	want := "e2e/gw-coalesced-singles-16 transport/pipelined-1k-conns transport/pipelined-10k-conns"
	if got := strings.Join(timing, " "); got != want {
		t.Errorf("timing rows = %s, want %s", got, want)
	}

	// Retired with its feature; the baseline that records it stays as it was.
	retired := map[string]bool{"e2e/packed-echo-16-wsse-diff": true}
	paths, err := filepath.Glob("../../BENCH_pr*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines found: %v", err)
	}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var base Report
		if err := json.Unmarshal(blob, &base); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, r := range base.Results {
			if _, ok := rows[r.Name]; !ok && !retired[r.Name] {
				t.Errorf("%s records %s, which no table row is", filepath.Base(path), r.Name)
			}
		}
	}
}

// TestEchoEnvelope holds the decode rows' spelled-out envelope to the one the
// encode row streams.
func TestEchoEnvelope(t *testing.T) {
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	want, err := writeEchoEnvelope(enc, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := envelopeAround(strings.Repeat(echoEntry, 64), 0); !bytes.Equal(got, want) {
		t.Errorf("spelled-out envelope\n%s\nwant\n%s", got, want)
	}
}
