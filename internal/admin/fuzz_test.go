package admin

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/soap"
)

// FuzzParseStats hammers the admin-stats response parser with malformed
// input. The exporter feeds it bytes scraped from remote processes, so it
// must never panic, and whatever snapshot it does accept must satisfy the
// documented invariants (positive weight, no negative integer anywhere,
// busy <= workers, every op and fault code named).
func FuzzParseStats(f *testing.F) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc, err := requestDocument(v, OpGetStats+"Response", StatsFields(sampleStats()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	// The pinned responses of today's nodes and of pre-PR-30 nodes.
	for _, dir := range []string{"", filepath.Join("wire", "pre30")} {
		for _, v := range []string{"11", "12"} {
			doc, err := os.ReadFile(filepath.Join("..", "core", "testdata", dir, "admin_getstats_resp"+v+".xml"))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(doc)
		}
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
		if s.Busy > s.Workers {
			t.Fatalf("accepted snapshot with busy=%d workers=%d", s.Busy, s.Workers)
		}
		if path := negativeInt(reflect.ValueOf(s), "stats"); path != "" {
			t.Fatalf("accepted snapshot with negative %s: %+v", path, s)
		}
		for _, o := range s.Ops {
			if o.Op == "" {
				t.Fatalf("accepted nameless op stat %+v", o)
			}
		}
		for _, c := range s.FaultCodes {
			if c.Code == "" {
				t.Fatalf("accepted nameless fault code %+v", c)
			}
		}
	})
}

// negativeInt returns the path of the first negative integer in v, walking
// struct fields and slice items, or "" when there is none. It reaches every
// counter a snapshot has, including ones added after this test was written.
func negativeInt(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Int() < 0 {
			return path
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p := negativeInt(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := negativeInt(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}
