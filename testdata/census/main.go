// Command censusfix is the fixture TestDeadSurfaceCensusFixture runs the
// census over: one case of each finding, and exports it must not flag.
package main

import (
	"fmt"
	"io"

	"censusfix/internal/lib"
)

func main() {
	cfg := lib.Config{Name: "x"}
	t := lib.New(cfg)
	var w io.Writer = t // Thing.Write implements io.Writer and is never called by name
	var s lib.Stats
	s.Hits.Add(1) // a counter field: set by calling a method on it
	var sink lib.Sink = t
	pts := []*lib.Point{{X: 1}} // an element literal of []*T sets its keys
	fmt.Println(cfg.Name, cfg.Limit, w, s.Hits.Load(), sink, lib.Stale, pts[0].X)
}
