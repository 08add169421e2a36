// Command spiexporter scrapes a fleet of SPI nodes — servers and gateways
// running with their Admin control-plane service enabled — and re-serves
// the latest snapshots for monitoring systems:
//
//	GET /metrics     Prometheus text exposition
//	GET /snapshot    JSON, one entry per scraped node
//
// Usage:
//
//	spiexporter -addr :9090 -targets host1:8080,host2:8080,gw:8090
//	spiexporter -addr :9090 -targets host1:8080 -interval 5s -prefix /services/
//
// Each target is scraped with one Admin.GetStats exchange (a plain SOAP
// call — the exporter is just another SPI client) every -interval; a
// target that stops answering shows up as spi_up 0 until it recovers.
// See docs/CONTROL_PLANE.md.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/httpx"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	targets := flag.String("targets", "", "comma-separated node addresses to scrape (required)")
	prefix := flag.String("prefix", "/services/", "service mount point on the scraped nodes")
	interval := flag.Duration("interval", 5*time.Second, "scrape period")
	timeout := flag.Duration("timeout", 2*time.Second, "per-node scrape bound")
	flag.Parse()

	if *targets == "" {
		fatal(fmt.Errorf("-targets is required (comma-separated host:port list)"))
	}
	e := newExporter(*prefix)
	for _, hostport := range strings.Split(*targets, ",") {
		hostport = strings.TrimSpace(hostport)
		if hostport == "" {
			continue
		}
		d := &net.Dialer{Timeout: *timeout}
		target := hostport
		err := e.addNode(target, func() (net.Conn, error) { return d.Dial("tcp", target) })
		if err != nil {
			fatal(err)
		}
	}
	defer e.close()

	e.scrapeAll(*timeout)
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(*interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.scrapeAll(*timeout)
			}
		}
	}()

	srv := &httpx.Server{Handler: e.handle}
	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("spiexporter: listening on %s, scraping %d node(s) every %v\n",
		listener.Addr(), len(e.nodes), *interval)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(listener) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		close(stop)
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Printf("spiexporter: %v, stopping\n", s)
		close(stop)
		srv.Shutdown(2 * time.Second)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spiexporter: %v\n", err)
	os.Exit(1)
}
