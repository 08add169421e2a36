package spi_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// shippedCommands are the servers make dist builds as static binaries.
var shippedCommands = []string{"./cmd/spiserver", "./cmd/spigateway"}

// TestShippedCommandsNeedNoCgo holds the servers to pure Go, so that a
// CGO_ENABLED=0 build maps no libc and no dynamic loader: no package of the
// module or beyond the standard library in either command's import graph has
// cgo files, and under CGO_ENABLED=0 no package at all does (net and
// runtime/cgo are the standard library's with cgo).
func TestShippedCommandsNeedNoCgo(t *testing.T) {
	for _, cgo := range []string{"1", "0"} {
		cmd := exec.Command("go", append([]string{"list", "-deps", "-json"}, shippedCommands...)...)
		cmd.Env = append(os.Environ(), "GOWORK=off", "CGO_ENABLED="+cgo)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("CGO_ENABLED=%s go list: %v", cgo, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p struct {
				ImportPath string
				Standard   bool
				CgoFiles   []string
			}
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if len(p.CgoFiles) > 0 && (cgo == "0" || !p.Standard) {
				t.Errorf("CGO_ENABLED=%s: %s has cgo files %v", cgo, p.ImportPath, p.CgoFiles)
			}
		}
	}
}

// unservedPackages are what the servers' operator endpoints once linked for
// one JSON document and six text profiles (internal/core/debug.go): two
// libraries and what they pull in, about 0.5 MB of each binary's loaded
// sections, resident in every process whether or not anyone asks.
var unservedPackages = []string{"encoding/json", "runtime/pprof", "compress/flate", "compress/gzip", "text/tabwriter"}

// TestShippedCommandsLinkOnlyWhatTheyServe fails when either command's
// import graph holds one of unservedPackages again.
func TestShippedCommandsLinkOnlyWhatTheyServe(t *testing.T) {
	cmd := exec.Command("go", append([]string{"list", "-deps"}, shippedCommands...)...)
	cmd.Env = append(os.Environ(), "GOWORK=off")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	for _, p := range unservedPackages {
		if deps[p] {
			t.Errorf("%v link %s", shippedCommands, p)
		}
	}
}
