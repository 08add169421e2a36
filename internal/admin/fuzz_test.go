package admin

import (
	"testing"

	"repro/internal/soap"
)

// FuzzParseStats hammers the admin-stats response parser with malformed
// input. The exporter feeds it bytes scraped from remote processes, so it
// must never panic, and whatever snapshot it does accept must satisfy the
// documented invariants (positive weight, non-negative counts,
// busy <= workers).
func FuzzParseStats(f *testing.F) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		s := Stats{
			Role: "server", Weight: 4, Workers: 32, Busy: 7, Idle: 25,
			QueueDepth: 3, QueueCap: 1024, Inflight: 10,
			Envelopes: 12345, Requests: 23456, Packed: 11111,
			Faults: 17, ItemFaults: 42,
			Ops: []OpStat{{Op: "Echo.echo", Count: 9000, MeanUs: 850, P50Us: 800, P90Us: 1200, P99Us: 2500}},
		}
		doc, err := requestDocument(v, OpGetStats+"Response", StatsFields(s))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`<?xml version="1.0"?><root/>`))
	f.Add([]byte(`not xml`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := ParseStatsResponse(body)
		if err != nil {
			return
		}
		if s.Weight < 1 {
			t.Fatalf("accepted snapshot with weight %d", s.Weight)
		}
		if s.Busy < 0 || s.Workers < 0 || s.Busy > s.Workers {
			t.Fatalf("accepted snapshot with busy=%d workers=%d", s.Busy, s.Workers)
		}
		if s.QueueDepth < 0 || s.Inflight < 0 || s.Envelopes < 0 || s.Faults < 0 {
			t.Fatalf("accepted snapshot with negative counters: %+v", s)
		}
		for _, o := range s.Ops {
			if o.Op == "" || o.Count < 0 {
				t.Fatalf("accepted bad op stat %+v", o)
			}
		}
	})
}
