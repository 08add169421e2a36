package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/metrics"
)

const (
	// startTimeout bounds the wait for a child's "listening on" line.
	startTimeout = 10 * time.Second
	// stopTimeout is how long a child gets after SIGTERM before SIGKILL:
	// spiserver and spigateway drain for up to 5 s and then allow 1 s more.
	stopTimeout = 7 * time.Second
	// clockTick is the kernel's USER_HZ, the unit of the CPU times in
	// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
	clockTick = 100
)

// binaries are the programs under test, built from the checkout the
// benchmark runs in.
type binaries struct {
	Server, Gateway string
	BuildSeconds    float64
}

// repoRoot walks up from the working directory to the module root, so the
// harness works from `go run ./benchmark` and from `go test ./benchmark`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildBinaries compiles cmd/spiserver and cmd/spigateway into outDir.
func buildBinaries(ctx context.Context, root, outDir string) (binaries, error) {
	bins := binaries{
		Server:  filepath.Join(outDir, "spiserver"),
		Gateway: filepath.Join(outDir, "spigateway"),
	}
	start := time.Now()
	for pkg, out := range map[string]string{"./cmd/spiserver": bins.Server, "./cmd/spigateway": bins.Gateway} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			return bins, fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
		}
	}
	bins.BuildSeconds = time.Since(start).Seconds()
	return bins, nil
}

// child is one process under test.
type child struct {
	name   string
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

// startChild launches bin and waits for the "listening on <addr>" line it
// prints once its ephemeral port is bound.
func startChild(name, bin string, args ...string) (*child, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c := &child{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	c.cmd.Stdout = pw
	c.cmd.Stderr = &c.stderr
	err = c.cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()

	// The scanner goroutine keeps draining stdout after the address is
	// found, so a child that prints its drain summary never blocks on a
	// full pipe; it ends at EOF, when the child has exited.
	addrCh := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		found := false
		for sc.Scan() {
			if found {
				continue
			}
			if addr, ok := parseListening(sc.Text()); ok {
				found = true
				addrCh <- addr
			}
		}
		if !found {
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			c.stop()
			return nil, fmt.Errorf("%s exited before listening: %s", name, strings.TrimSpace(c.stderr.String()))
		}
		c.addr = addr
		return c, nil
	case <-time.After(startTimeout):
		c.stop()
		return nil, fmt.Errorf("%s did not print its listening address within %v", name, startTimeout)
	}
}

// parseListening extracts the address from "…: listening on ADDR[, …]".
func parseListening(line string) (string, bool) {
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	addr := line[i+len(marker):]
	if j := strings.IndexAny(addr, ", \t"); j >= 0 {
		addr = addr[:j]
	}
	return addr, addr != ""
}

// stop ends the child: SIGTERM, wait for the drain, SIGKILL if it
// overstays. It returns only after the process has been reaped.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(stopTimeout):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

// alive reports whether the process still exists (reaped children do not).
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// cpuTicks is the child's user+system CPU time in clock ticks.
func (c *child) cpuTicks() (int64, error) { return procCPUTicks(strconv.Itoa(c.cmd.Process.Pid)) }

// procCPUTicks reads utime+stime (fields 14 and 15) of /proc/<pid>/stat.
// The command name in field 2 may hold spaces, so fields are counted from
// the closing parenthesis.
func procCPUTicks(pid string) (int64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: unexpected CPU fields", pid)
	}
	return utime + stime, nil
}

// rssPeakMB reads VmHWM, the child's peak resident set, in MiB.
func (c *child) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %v", c.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for %s", c.name)
}

// cluster is the set of fresh processes one workload runs against.
type cluster struct {
	servers []*child
	gateway *child // nil on direct workloads
}

// startCluster spawns one spiserver, or two behind a spigateway. On any
// failure every process already started is stopped before returning.
func startCluster(bins binaries, w workload) (*cluster, error) {
	cl := &cluster{}
	backends := 1
	if w.Gateway {
		backends = 2
	}
	for i := 0; i < backends; i++ {
		s, err := startChild("spiserver", bins.Server, "-addr", "127.0.0.1:0", "-debug")
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.servers = append(cl.servers, s)
	}
	if w.Gateway {
		g, err := startChild("spigateway", bins.Gateway, "-addr", "127.0.0.1:0", "-stats",
			"-backends", cl.servers[0].addr+","+cl.servers[1].addr)
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.gateway = g
	}
	return cl, nil
}

// target is the address the callers dial.
func (cl *cluster) target() string {
	if cl.gateway != nil {
		return cl.gateway.addr
	}
	return cl.servers[0].addr
}

// children lists the gateway (if any) first, the order they are stopped
// in: the front tier stops taking traffic before its backends go away.
func (cl *cluster) children() []*child {
	var all []*child
	if cl.gateway != nil {
		all = append(all, cl.gateway)
	}
	return append(all, cl.servers...)
}

func (cl *cluster) stop() {
	for _, c := range cl.children() {
		c.stop()
	}
}

// check reports a child that died while the workload ran.
func (cl *cluster) check() error {
	for _, c := range cl.children() {
		if !c.alive() {
			return fmt.Errorf("%s (pid %d) exited during the run: %s",
				c.name, c.cmd.Process.Pid, strings.TrimSpace(c.stderr.String()))
		}
	}
	return nil
}

// procSample is the children's cumulative CPU at one instant, split by
// program so the gateway's share can be told from the servers'.
type procSample struct {
	serverTicks, gatewayTicks int64
}

func (cl *cluster) sampleCPU() (procSample, error) {
	var s procSample
	for _, c := range cl.servers {
		t, err := c.cpuTicks()
		if err != nil {
			return s, err
		}
		s.serverTicks += t
	}
	if cl.gateway != nil {
		t, err := cl.gateway.cpuTicks()
		if err != nil {
			return s, err
		}
		s.gatewayTicks = t
	}
	return s, nil
}

// rssPeaks sums VmHWM per program.
func (cl *cluster) rssPeaks() (serverMB, gatewayMB float64, err error) {
	for _, c := range cl.servers {
		mb, err := c.rssPeakMB()
		if err != nil {
			return 0, 0, err
		}
		serverMB += mb
	}
	if cl.gateway != nil {
		if gatewayMB, err = cl.gateway.rssPeakMB(); err != nil {
			return 0, 0, err
		}
	}
	return serverMB, gatewayMB, nil
}

// sutStats is what the children's GET /spi/stats report, servers summed.
type sutStats struct {
	server  core.ServerStats
	gateway gateway.Stats
}

func fetchJSON(addr string, v any) error {
	client := http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + "/spi/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET /spi/stats on %s: HTTP %d", addr, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

// fetchStats reads every child's /spi/stats. A snapshot sorts every
// sample the server has recorded, so it is taken only between phases and
// only in traced runs.
func (cl *cluster) fetchStats() (sutStats, error) {
	var out sutStats
	for _, c := range cl.servers {
		var snap struct {
			Server core.ServerStats `json:"server"`
		}
		if err := fetchJSON(c.addr, &snap); err != nil {
			return out, err
		}
		addServerStats(&out.server, snap.Server)
	}
	if cl.gateway != nil {
		var snap struct {
			Gateway gateway.Stats `json:"gateway"`
		}
		if err := fetchJSON(cl.gateway.addr, &snap); err != nil {
			return out, err
		}
		out.gateway = snap.Gateway
	}
	return out, nil
}

// addServerStats accumulates the counters the per-layer rows use.
func addServerStats(sum *core.ServerStats, s core.ServerStats) {
	sum.Envelopes += s.Envelopes
	sum.Requests += s.Requests
	sum.Faults += s.Faults
	sum.ItemFaults += s.ItemFaults
	sum.AppStage.Submitted += s.AppStage.Submitted
	sum.AppStage.Rejected += s.AppStage.Rejected
	sum.ParsePhase.Count += s.ParsePhase.Count
	sum.ParsePhase.Total += s.ParsePhase.Total
	sum.DispatchPhase.Count += s.DispatchPhase.Count
	sum.DispatchPhase.Total += s.DispatchPhase.Total
	sum.EncodePhase.Count += s.EncodePhase.Count
	sum.EncodePhase.Total += s.EncodePhase.Total
	sum.EncodeIO.Bytes += s.EncodeIO.Bytes
	if sum.Operations == nil {
		sum.Operations = map[string]metrics.Summary{}
	}
	for name, op := range s.Operations {
		acc := sum.Operations[name]
		acc.Count += op.Count
		acc.Total += op.Total
		sum.Operations[name] = acc
	}
}
