// Package lib holds the census fixture's exports.
package lib

import "sync/atomic"

// Config: Name is set by main, Limit only by a test.
type Config struct {
	Name  string
	Limit int
}

// Thing is built by New.
type Thing struct{ n int }

// New is used by main.
func New(c Config) *Thing { return &Thing{n: len(c.Name)} }

// Write implements io.Writer.
func (t *Thing) Write(p []byte) (int, error) { return len(p), nil }

// Put implements Sink, whose method nobody calls.
func (t *Thing) Put(n int) { t.n = n }

// Helper is called only by this package's tests.
func (t *Thing) Helper() int { return t.n }

// Sink is an interface declared in the module.
type Sink interface{ Put(int) }

// Stats holds a counter.
type Stats struct{ Hits atomic.Int64 }

// Point is set only by an element literal of a []*Point.
type Point struct{ X int }

// Unused has no caller.
func Unused() {}

// Stale is used by main, so the allowlist line that names it is stale.
const Stale = 1
