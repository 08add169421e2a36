package spi_test

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gateway"
)

// TestConfigFieldLedger holds the exported fields of the four config structs
// an operator or embedder sets to testdata/config_fields.txt, so adding or
// removing a knob shows in a diff of that file and in docs/PERFORMANCE.md's
// knob ledger, not only in a struct.
func TestConfigFieldLedger(t *testing.T) {
	var got []string
	for _, c := range []struct {
		name string
		v    any
	}{
		{"core.ServerConfig", core.ServerConfig{}},
		{"core.ClientConfig", core.ClientConfig{}},
		{"gateway.Config", gateway.Config{}},
		{"gateway.CoalesceConfig", gateway.CoalesceConfig{}},
	} {
		rt := reflect.TypeOf(c.v)
		for i := range rt.NumField() {
			if f := rt.Field(i); f.IsExported() {
				got = append(got, c.name+"."+f.Name)
			}
		}
	}
	file, err := os.ReadFile("testdata/config_fields.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(file), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	for _, f := range got {
		if !slices.Contains(want, f) {
			t.Errorf("%s is a config field that testdata/config_fields.txt does not list", f)
		}
	}
	for _, f := range want {
		if !slices.Contains(got, f) {
			t.Errorf("testdata/config_fields.txt lists %s, which is no config field", f)
		}
	}
}
