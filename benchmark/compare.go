package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec() (*benchmarkSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	spec := &benchmarkSpec{}
	if err := json.Unmarshal(raw, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	file := &resultFile{}
	if err := json.Unmarshal(raw, file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}

// values collects one metric of one workload over a file's runs.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges b against a for one metric. The ratio is b's median over
// a's. With a spread (quartile distance over median, the wider of the two
// sets) above the bound the sets cannot resolve a change of the bound's
// size, so the pair is unresolved whichever way the medians fall.
func verdict(a, b []float64, better string, bound float64) (ratio, spread float64, word string) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	spread = max(iqrShare(a), iqrShare(b))
	worse := ratio - 1
	if better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case spread > bound:
		word = "unresolved"
	case worse > bound:
		word = "worse"
	default:
		word = "ok"
	}
	return ratio, spread, word
}

// compareFiles prints, per workload and metric, both medians, the ratio
// with its base, the bound and the verdict: first the end-to-end metrics
// against the bounds BENCHMARK.json holds the driver to, then the demoted
// timing metrics against their advisory bounds. It fails when an
// end-to-end pair is worse, so it can gate a change.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two result files: base.json change.json")
	}
	spec, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readResults(paths[0])
	if err != nil {
		return err
	}
	b, err := readResults(paths[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base   %s: commit %s, %s, %d cpus, %s\n", paths[0], a.Machine.GitCommit, a.Machine.CPUModel, a.Machine.NumCPU, a.Machine.GoVersion)
	fmt.Fprintf(w, "change %s: commit %s, %s, %d cpus, %s\n", paths[1], b.Machine.GitCommit, b.Machine.CPUModel, b.Machine.NumCPU, b.Machine.GoVersion)
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %16s %8s %9s  %s\n",
		"workload", "metric", "base median", "change median", "change/base", "spread", "bound", "verdict")
	row := func(workload, metric, better, kind string, bound float64) string {
		va, vb := a.values(workload, metric), b.values(workload, metric)
		if len(va) == 0 || len(vb) == 0 {
			return ""
		}
		ratio, spread, word := verdict(va, vb, better, bound)
		spreadText := "n/a"
		if len(va) > 1 || len(vb) > 1 {
			spreadText = fmt.Sprintf("%.2f%%", 100*spread)
		}
		fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %8.4f of base %8s %8.1f%%  %s (%s bound, n=%d,%d, %s is better)\n",
			workload, metric, median(va), median(vb), ratio, spreadText, 100*bound, word, kind, len(va), len(vb), better)
		return word
	}
	worse := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if row(wl.Name, m.Name, m.Better, "driver", m.Bound) == "worse" {
				worse++
			}
		}
		for _, m := range spec.PerLayer {
			if bound, ok := advisoryBounds[m.Name]; ok {
				row(wl.Name, m.Name, m.Better, "advisory", bound)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × end-to-end metric pairs are worse than their bound allows", worse)
	}
	return nil
}
