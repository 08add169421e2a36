package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/soapenc"
	"repro/internal/trace"
)

// checkStatsJSON holds /spi/stats' writer to encoding/json, the reference
// the document was once written with: byte for byte, or both refusing it.
func checkStatsJSON(t *testing.T, doc statsDoc) {
	t.Helper()
	got, gotErr := appendJSON(nil, reflect.ValueOf(doc), 0)
	want, wantErr := json.MarshalIndent(doc, "", "  ")
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("writer error %v, encoding/json error %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the writer and encoding/json differ\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestStatsJSONMatchesEncodingJSON writes the documents a server serves, each
// shape of them, with both writers.
func TestStatsJSONMatchesEncodingJSON(t *testing.T) {
	traffic := func(t *testing.T, sys *system) {
		for i := range 3 {
			if _, err := sys.client.Call("Echo", "echo", soapenc.F("m", fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.client.Call("Echo", "fail"); err == nil {
			t.Fatal("Echo.fail did not fault")
		}
		b := sys.client.NewBatch()
		b.Add("Echo", "echo", soapenc.F("m", "y"))
		b.Add("Echo", "echo", soapenc.F("m", "<&>"))
		if err := b.Send(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		mutate  func(*ServerConfig, *ClientConfig)
		traffic bool
	}{
		{"fresh", nil, false},
		{"staged", nil, true},
		{"coupled", func(sc *ServerConfig, _ *ClientConfig) { sc.Coupled = true }, true},
		// A four-span ring overflows, so SpansDropped is written too.
		{"traced", func(sc *ServerConfig, _ *ClientConfig) { sc.Tracer = trace.New(4) }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := newSystem(t, c.mutate)
			if c.traffic {
				traffic(t, sys)
			}
			doc := sys.server.statsDoc()
			doc.Runtime = metrics.ReadRuntime()
			if c.name == "traced" && (len(doc.Stages) == 0 || len(doc.Gauges) == 0 || doc.SpansDropped == 0) {
				t.Fatalf("traced document without stages, gauges or drops: %+v", doc.serverDoc)
			}
			checkStatsJSON(t, doc)
		})
	}
	t.Run("zero", func(t *testing.T) { checkStatsJSON(t, statsDoc{}) })
	t.Run("gateway-shaped", func(t *testing.T) {
		checkStatsJSON(t, statsDoc{Gateway: struct {
			Sizes map[string]int64 `json:",omitempty"`
			Empty map[string]int64
			List  []int
			Ratio float64
		}{Sizes: map[string]int64{"3-4": 1, "1": 2, ">64": 3}, Empty: map[string]int64{}, List: []int{}, Ratio: 0.25}})
	})
}

// TestStatsNotFiniteAnswers500: a value JSON cannot hold fails the document
// whole, as it did under encoding/json.
func TestStatsNotFiniteAnswers500(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := statsResponse(statsDoc{serverDoc: &serverDoc{AppOccupancy: f}})
		if resp.StatusCode != 500 || string(resp.Body) != "stats encoding failed\n" {
			t.Errorf("occupancy %v: HTTP %d %q, want 500 %q", f, resp.StatusCode, resp.Body, "stats encoding failed\n")
		}
	}
}

// statsAllocPerByte bounds what the stats writer allocates per byte of a
// document it writes, on top of statsAllocFloor: the output buffer as it
// grows, a field list per struct, the sorted keys of a map. The fuzzed
// documents measured 5 to 6.1, a traced server's after traffic 5.2.
const (
	statsAllocPerByte = 8
	statsAllocFloor   = 4 << 10
)

// FuzzStatsJSON runs the string and float leaves of a stats document
// through both writers: every place a name or a measure can land, keys of
// a map included.
func FuzzStatsJSON(f *testing.F) {
	for _, s := range []string{"", "Echo.echo", "<script>&amp;", "  ", "\xff\xfe\xc3", "\x00\x01\b\f\n\r\t\x1f\x7f", `"\`, "�", "日本"} {
		for _, x := range []float64{0, math.Copysign(0, -1), 1e21, 1e20, 1e-7, 1e-6, 0.1, -123.456e300, math.NaN(), math.Inf(-1)} {
			f.Add(s, x)
		}
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		doc := statsDoc{
			Server: &ServerStats{
				FaultCodes: []fault.CodeCount{{Code: s, Count: 1}},
				Operations: map[string]metrics.Summary{s: {Count: 1}, "Echo.echo": {}},
			},
			Gateway:   map[string]float64{s: x, "weight": -x},
			Runtime:   metrics.RuntimeStats{GCCPUSeconds: x},
			serverDoc: &serverDoc{AppOccupancy: x, Stages: []trace.StageSummary{{Stage: s}}, Gauges: []trace.GaugeValue{{Name: s}}},
		}
		checkStatsJSON(t, doc)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := appendJSON(nil, reflect.ValueOf(doc), 0)
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(statsAllocPerByte*len(out)+statsAllocFloor); err == nil && n > bound {
			t.Fatalf("writing %d bytes allocated %d, past its bound of %d", len(out), n, bound)
		}
	})
}

// profileDepth is the depth the runtime's exported profile records keep, and
// the one the profile differential's process runs its profiles at
// (GODEBUG profstackdepth), so that runtime/pprof's deeper records are cut
// where the served ones are.
const profileDepth = len(runtime.StackRecord{}.Stack0)

// TestProfilesMatchRuntimePprof holds every served profile to runtime/pprof's
// debug=1 text, taken back to back: the same header and the same records,
// counts and symbolised frames, the goroutine taking the snapshots aside.
// It runs in a process of its own, at runtime/pprof's depth cut to the
// served one, with every allocation sampled and every block and mutex wait
// recorded: nothing of the test binary's other tests moves between the two
// snapshots there.
func TestProfilesMatchRuntimePprof(t *testing.T) {
	depth := fmt.Sprintf("profstackdepth=%d", profileDepth)
	if !strings.Contains(os.Getenv("GODEBUG"), depth) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestProfilesMatchRuntimePprof$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG="+strings.TrimPrefix(os.Getenv("GODEBUG")+","+depth, ","))
		if out, err := cmd.CombinedOutput(); err != nil || !bytes.Contains(out, []byte("--- PASS: TestProfilesMatchRuntimePprof")) {
			t.Fatalf("profile differential: %v\n%s", err, out)
		}
		return
	}
	runtime.MemProfileRate = 1
	runtime.SetBlockProfileRate(1)
	runtime.SetMutexProfileFraction(1)
	contend()
	runtime.SetBlockProfileRate(0)
	runtime.SetMutexProfileFraction(0)
	// Only the snapshots' own runtime.GC collects, so the heap records
	// stay as it published them until both are taken.
	debug.SetGCPercent(-1)

	for _, name := range []string{"goroutine", "heap", "allocs", "block", "mutex", "threadcreate"} {
		t.Run(name, func(t *testing.T) {
			var diff string
			for range 5 {
				served, ref := snapshotBoth(t, name)
				if diff = diffProfiles(parseProfile(t, name, served), parseProfile(t, name, ref)); diff == "" {
					return
				}
			}
			t.Errorf("%s: served and runtime/pprof profiles differ in five snapshots; the last:\n%s", name, diff)
		})
	}
}

// contend blocks goroutines on a mutex and on channels, so that the block
// and mutex profiles hold records.
func contend() {
	var mu sync.Mutex
	var wg sync.WaitGroup
	ch := make(chan int)
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				mu.Lock()
				time.Sleep(10 * time.Microsecond)
				mu.Unlock()
			}
			ch <- i
		}()
	}
	for range 4 {
		time.Sleep(time.Millisecond)
		<-ch
	}
	wg.Wait()
}

// snapshotBoth takes the served profile and runtime/pprof's right after it,
// once each writer has run (so their own allocations are in the heap
// records already) and a collection has published the heap records.
func snapshotBoth(t *testing.T, name string) (served, ref []byte) {
	t.Helper()
	p := pprof.Lookup(name)
	var buf bytes.Buffer
	for warm := true; ; warm = false {
		buf.Reset()
		runtime.GC()
		resp := pprofResponse(name)
		if err := p.WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/plain; charset=utf-8" {
			t.Fatalf("GET /spi/pprof/%s: HTTP %d %q", name, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if !warm {
			return resp.Body, buf.Bytes()
		}
	}
}

// profile is a parsed debug=1 profile: its header lines, and its records as
// a multiset of their counts and symbolised frames, runs of tabs read as one
// (runtime/pprof aligns its columns with a tabwriter). A record's list of
// stack addresses is left out: runtime/pprof pads a threadcreate stack with
// zeros to its full depth, and each frame line names its address anyway.
type profile struct {
	header  []string
	records map[string]int
}

var recordLine = regexp.MustCompile(`^([0-9: \[\]]+) @( 0x[0-9a-f]+)*$`)

// parseProfile reads text, a profile of the named kind, leaving out what the
// two writers cannot share: the goroutine taking the snapshots, and a heap
// record that counts nothing, a site the first snapshot's own allocations
// added to the runtime's table, which the second lists as it has to.
func parseProfile(t *testing.T, name string, text []byte) profile {
	t.Helper()
	p := profile{records: map[string]int{}}
	var rec []string
	end := func() {
		r := strings.Join(rec, "\n")
		if r != "" && !(name == "goroutine" && strings.Contains(r, ".snapshotBoth+")) && !strings.HasPrefix(r, "0: 0 [0: 0]\n") {
			p.records[r]++
		}
		rec = nil
	}
	for sc := bufio.NewScanner(bytes.NewReader(text)); sc.Scan(); {
		switch line := sc.Text(); {
		case line == "":
			end()
		case strings.HasPrefix(line, "#\t"):
			if rec == nil {
				t.Fatalf("frame outside a record: %q", line)
			}
			rec = append(rec, strings.Join(strings.FieldsFunc(line, func(r rune) bool { return r == '\t' }), "\t"))
		case strings.HasPrefix(line, "#"):
			// runtime/pprof's heap profile ends in a commented
			// runtime.MemStats, which pprof does not read.
		case recordLine.MatchString(line):
			end()
			rec = []string{recordLine.FindStringSubmatch(line)[1]}
		case len(p.records) == 0 && rec == nil:
			p.header = append(p.header, line)
		default:
			t.Fatalf("unexpected line %q in\n%s", line, text)
		}
	}
	end()
	if len(p.header) == 0 {
		t.Fatalf("profile without a header:\n%s", text)
	}
	return p
}

// diffProfiles lists what tells served from ref apart, or "".
func diffProfiles(served, ref profile) string {
	var d strings.Builder
	if !slices.Equal(served.header, ref.header) {
		fmt.Fprintf(&d, "header %q, runtime/pprof %q\n", served.header, ref.header)
	}
	for rec, n := range served.records {
		if ref.records[rec] != n {
			fmt.Fprintf(&d, "served %d, runtime/pprof %d of:\n%s\n", n, ref.records[rec], rec)
		}
	}
	for rec, n := range ref.records {
		if _, ok := served.records[rec]; !ok {
			fmt.Fprintf(&d, "served 0, runtime/pprof %d of:\n%s\n", n, rec)
		}
	}
	return d.String()
}
