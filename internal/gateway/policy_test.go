package gateway

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
)

// assignGateway is a LeastLoaded gateway over k backends that are never
// dialed: assign reads nothing but their routing state.
func assignGateway(t *testing.T, k int) *Gateway {
	t.Helper()
	var bcs []BackendConfig
	for i := 0; i < k; i++ {
		bcs = append(bcs, BackendConfig{Name: fmt.Sprintf("b%d", i),
			Dial: func() (net.Conn, error) { return nil, errors.New("never dialed") }})
	}
	g, err := New(Config{Backends: bcs, Policy: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// setReserved plants n entries reserved on backend i.
func setReserved(g *Gateway, i int, n int64) {
	g.fleet.mu.Lock()
	defer g.fleet.mu.Unlock()
	g.fleet.ms[i].reserved = n
}

// picks assigns n fresh entries and returns the backend index each landed on,
// by slot.
func picks(g *Gateway, n int) []int {
	entries := make([]*core.ScatterEntry, n)
	for i := range entries {
		entries[i] = &core.ScatterEntry{Slot: i, ID: i, Service: "Echo", Op: "echo"}
	}
	out := make([]int, n)
	for _, sh := range g.assign(entries) {
		for _, e := range sh.entries {
			out[e.Slot] = sh.b.index
		}
	}
	return out
}

// parentLeastLoaded is LeastLoaded as it was before weights and samples
// entered it: each entry goes to the first backend with the fewest entries in
// flight, counting the batch's own.
func parentLeastLoaded(load []int64, n int) []int {
	load = slices.Clone(load)
	out := make([]int, n)
	for e := range out {
		min := 0
		for i := 1; i < len(load); i++ {
			if load[i] < load[min] {
				min = i
			}
		}
		out[e] = min
		load[min]++
	}
	return out
}

// TestAssignTable maps in-flight counts, weights and stated execution times
// to LeastLoaded's picks. Rows with equal weights and no sample, or only
// samples that leave every speed at 1, must pick as the parent's LeastLoaded.
func TestAssignTable(t *testing.T) {
	rows := []struct {
		name    string
		load    []int64
		weight  []int64 // nil: all 1
		svcUs   []int64 // nil: no samples
		n       int
		want    []int
		asToday bool // want is also parentLeastLoaded's pick
	}{
		{name: "idle, equal", load: []int64{0, 0, 0}, n: 6,
			want: []int{0, 1, 2, 0, 1, 2}, asToday: true},
		{name: "busy, equal", load: []int64{5, 0, 2}, n: 6,
			want: []int{1, 1, 1, 2, 1, 2}, asToday: true},
		{name: "equal weights above one", load: []int64{1, 0}, weight: []int64{3, 3}, n: 4,
			want: []int{1, 0, 1, 0}, asToday: true},
		{name: "equal samples", load: []int64{0, 2}, svcUs: []int64{70, 70}, n: 4,
			want: []int{0, 0, 0, 1}, asToday: true},
		{name: "one backend without a sample", load: []int64{2, 0}, svcUs: []int64{0, 250}, n: 4,
			want: []int{1, 1, 0, 1}, asToday: true},
		{name: "weight 2 at half speed", load: []int64{0, 0}, weight: []int64{2, 1}, svcUs: []int64{200, 100}, n: 4,
			want: []int{0, 1, 0, 1}, asToday: true},
		{name: "weights 3:1", load: []int64{0, 0}, weight: []int64{3, 1}, n: 8,
			want: []int{0, 0, 0, 1, 0, 0, 0, 1}},
		{name: "one backend 4x slower", load: []int64{0, 0, 0}, svcUs: []int64{100, 100, 400}, n: 9,
			want: []int{0, 1, 0, 1, 0, 1, 0, 1, 2}},
		{name: "speed floored at a tenth", load: []int64{0, 0}, svcUs: []int64{10, 10000}, n: 12,
			want: []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			g := assignGateway(t, len(r.load))
			for i, b := range g.backends {
				setReserved(g, i, r.load[i])
				if r.weight != nil {
					b.weight.Store(r.weight[i])
				}
				if r.svcUs != nil {
					b.svcUs.Store(r.svcUs[i])
				}
			}
			if got := picks(g, r.n); !slices.Equal(got, r.want) {
				t.Errorf("picks %v, want %v", got, r.want)
			}
			if today := parentLeastLoaded(r.load, r.n); r.asToday && !slices.Equal(today, r.want) {
				t.Errorf("the parent's LeastLoaded picks %v, the row wants %v", today, r.want)
			}
		})
	}
}

// TestHostileLoadHeader: SPI-Load is input from another process. No value
// a backend states may panic, divide by zero or drive a weight to zero;
// anything but one positive integer leaves the previous sample, or none.
func TestHostileLoadHeader(t *testing.T) {
	rows := []struct {
		name   string
		values []string // one header field per value; nil: absent
	}{
		{"absent", nil},
		{"empty", []string{""}},
		{"zero", []string{"0"}},
		{"negative", []string{"-1"}},
		{"not a number", []string{"abc"}},
		{"exponent", []string{"1e9"}},
		{"int64 overflow", []string{"9223372036854775808"}},
		{"repeated", []string{"100", "200"}},
		{"padded", []string{" 250 "}},
	}
	for _, r := range rows {
		for _, prev := range []int64{0, 120} {
			t.Run(fmt.Sprintf("%s/previous=%d", r.name, prev), func(t *testing.T) {
				g := assignGateway(t, 2)
				b := g.backends[0]
				b.svcUs.Store(prev)
				var h httpx.Header
				for _, v := range r.values {
					h.Add(core.HeaderLoad, v)
				}
				b.noteLoad(&h)
				if got := b.svcUs.Load(); got != prev {
					t.Errorf("sample %d after the header, want %d", got, prev)
				}
				for _, fastest := range []int64{0, 1, prev, math.MaxInt64} {
					if w := b.effectiveWeight(fastest); w <= 0 {
						t.Errorf("effective weight %d with fastest sample %d", w, fastest)
					}
				}
				if got := picks(g, 4); len(got) != 4 {
					t.Errorf("placed %d of 4 entries", len(got))
				}
			})
		}
	}

	// A backend that ignores the header (a build that predates it) beside
	// one that states it: the one with a sample is the fleet's fastest, the
	// other keeps speed 1, and LeastLoaded picks as it did before samples.
	t.Run("mixed fleet", func(t *testing.T) {
		var bcs []BackendConfig
		for i, old := range []bool{true, false} {
			srv, err := core.NewServer(core.ServerConfig{Container: testContainer(t), AppWorkers: 8, AppQueue: 64})
			if err != nil {
				t.Fatal(err)
			}
			handler := srv.HandleHTTP
			if old {
				handler = func(ctx context.Context, req *httpx.Request) *httpx.Response {
					var h httpx.Header // a server older than SPI-Load never sees it
					req.Header.Each(func(name, value string) {
						if !strings.EqualFold(name, core.HeaderLoad) {
							h.Add(name, value)
						}
					})
					req.Header = h
					return srv.HandleHTTP(ctx, req)
				}
			}
			hs := &httpx.Server{Handler: handler}
			link := netsim.NewLink(netsim.Fast())
			lis, err := link.Listen()
			if err != nil {
				t.Fatal(err)
			}
			go hs.Serve(lis)
			t.Cleanup(func() { hs.Close(); srv.Close(); link.Close() })
			bcs = append(bcs, BackendConfig{Name: fmt.Sprintf("b%d", i), Dial: link.Dial})
		}
		g, err := New(Config{Backends: bcs, Policy: LeastLoaded, Registry: testContainer(t)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		doc := packedDoc(soap.V11, []string{
			`<m:echo xmlns:m="urn:spi:Echo" spi:service="Echo"><a>1</a></m:echo>`,
			`<m:echo xmlns:m="urn:spi:Echo" spi:service="Echo"><a>2</a></m:echo>`,
		})
		for i := 0; i < 4; i++ {
			resp := g.Handle(context.Background(), httpx.NewRequest("POST", "/services", doc))
			if resp.StatusCode != 200 {
				t.Fatalf("batch %d answered %d: %s", i, resp.StatusCode, resp.Body)
			}
			resp.Release()
		}
		st := g.Stats()
		if st.Backends[0].SvcUs != 0 || st.Backends[1].SvcUs <= 0 {
			t.Fatalf("samples %d/%d, want none from the old backend and one from the new",
				st.Backends[0].SvcUs, st.Backends[1].SvcUs)
		}
		for _, bs := range st.Backends {
			if bs.EffWeight != 1 {
				t.Errorf("%s: EffWeight %v, want 1", bs.Name, bs.EffWeight)
			}
		}
		for _, load := range [][]int64{{0, 0}, {3, 0}, {1, 4}} {
			for i := range g.backends {
				setReserved(g, i, load[i])
			}
			if got, today := picks(g, 6), parentLeastLoaded(load, 6); !slices.Equal(got, today) {
				t.Errorf("load %v: picks %v, the parent's LeastLoaded %v", load, got, today)
			}
		}
	})
}
