package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machineRecord says where and on what a set of runs was measured, so two
// result files can be told apart before their numbers are compared.
type machineRecord struct {
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPUModel   string             `json:"cpu_model"`
	Kernel     string             `json:"kernel"`
	GoVersion  string             `json:"go_version"`
	GitCommit  string             `json:"git_commit"`
	Callers    int                `json:"callers"`
	OpenRates  map[string]float64 `json:"frozen_open_rates_per_s"`
}

func readMachine(root string) machineRecord {
	m := machineRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown", // the driver's checkout is not a git repository
		Callers:    numCallers,
		OpenRates:  map[string]float64{},
	}
	for _, w := range workloads {
		m.OpenRates[w.Name] = w.OpenRate
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(raw))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if raw, err := cmd.Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(raw))
	}
	return m
}
