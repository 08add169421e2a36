package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v} }
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"throughput holds", steady(100), steady(97), "higher", 0.08, "ok"},
		{"throughput falls", steady(100), steady(90), "higher", 0.08, "worse"},
		{"throughput rises", steady(100), steady(130), "higher", 0.08, "ok"},
		{"latency rises", steady(1.0), steady(1.2), "lower", 0.10, "worse"},
		{"latency falls", steady(1.0), steady(0.5), "lower", 0.10, "ok"},
		{"too noisy to tell", []float64{80, 100, 120, 140}, steady(100), "higher", 0.08, "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// writeSet stores a set of runs whose memory peak and throughput both
// take the given values.
func writeSet(t *testing.T, path string, values []float64) {
	t.Helper()
	var f resultFile
	for i, v := range values {
		f.Runs = append(f.Runs, runResult{Workload: "single-10b", Seed: int64(i), Metrics: map[string]metricValue{
			"rss_peak_mb": {Value: v, Unit: "MB"}, "calls_per_s": {Value: v, Unit: "1/s"}}})
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	writeSet(t, a, []float64{100, 100.1, 99.9, 100})
	writeSet(t, b, []float64{101, 101.1, 100.9, 101})
	writeSet(t, c, []float64{150, 150.1, 149.9, 150})

	// One percent more memory is inside the driver's bound, and one
	// percent more throughput is no regression either.
	var out bytes.Buffer
	if err := compareFiles(&out, []string{a, b}); err != nil {
		t.Fatalf("a vs b: %v\n%s", err, out.String())
	}
	for _, want := range []string{"1.0100 of base", "ok (driver bound", "ok (advisory bound"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("a vs b should print %q:\n%s", want, out.String())
		}
	}
	// Half as much memory again is worse and fails the comparison; the
	// same rise in throughput is not.
	out.Reset()
	err := compareFiles(&out, []string{a, c})
	if err == nil || !strings.Contains(out.String(), "worse (driver bound") || strings.Contains(out.String(), "worse (advisory") {
		t.Errorf("a vs c should fail on rss_peak_mb alone (err %v):\n%s", err, out.String())
	}
	// A fall in throughput is reported against the advisory bound but
	// does not fail the comparison, and less memory is fine.
	out.Reset()
	if err := compareFiles(&out, []string{c, a}); err != nil || !strings.Contains(out.String(), "worse (advisory bound") {
		t.Errorf("c vs a should pass and flag calls_per_s (err %v):\n%s", err, out.String())
	}
}
