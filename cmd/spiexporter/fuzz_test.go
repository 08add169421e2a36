package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/admin"
)

// cannedConn swallows a request and answers it with one canned response.
type cannedConn struct{ response, pending []byte }

func (c *cannedConn) Write(b []byte) (int, error) {
	if len(c.pending) == 0 {
		c.pending = c.response
	}
	return len(b), nil
}

func (c *cannedConn) Read(b []byte) (int, error) {
	if len(c.pending) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (*cannedConn) Close() error                     { return nil }
func (*cannedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (*cannedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (*cannedConn) SetDeadline(time.Time) error      { return nil }
func (*cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (*cannedConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzScrape answers the exporter's GetStats with arbitrary reply bytes: the
// path a scrape runs, a node's reply read by the exporter's client and then
// admin.StatsFromFields. The exporter scrapes nodes it does not control, so it
// must never panic or hang, and a snapshot it does accept must hold what its
// readers assume: StatsFromFields takes it back from its own fields (positive
// weight, no negative or nil count, busy at most workers, every op and fault
// code named).
func FuzzScrape(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "internal", "core", "testdata", "admin_*.xml"))
	if err != nil {
		f.Fatal(err)
	}
	pre30, err := filepath.Glob(filepath.Join("..", "..", "internal", "core", "testdata", "wire", "pre30", "*.xml"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) < 10 || len(pre30) < 2 {
		f.Fatalf("found %d admin goldens and %d pre30 fixtures", len(seeds), len(pre30))
	}
	for _, path := range append(seeds, pre30...) {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`<?xml version="1.0"?><root/>`))
	f.Add([]byte(`not xml`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		response := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: %d\r\n\r\n%s", len(doc), doc))
		e := newExporter("")
		defer e.close()
		if err := e.addNode("n", func() (net.Conn, error) { return &cannedConn{response: response}, nil }); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s, err := e.scrapeNode(ctx, e.nodes[0])
		if err != nil {
			return
		}
		if _, err := admin.StatsFromFields(admin.StatsFields(s)); err != nil {
			t.Fatalf("accepted a snapshot its own fields refuse (%v): %+v", err, s)
		}
	})
}
