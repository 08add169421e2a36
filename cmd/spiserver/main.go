// Command spiserver hosts the full SPI service suite (Echo, WeatherService
// and the travel-agent services) over real TCP.
//
// Usage:
//
//	spiserver -addr :8080
//	spiserver -addr :8080 -app-workers 64 -work 2ms
//	spiserver -addr :8080 -wss-user alice -wss-secret s3cret
//	spiserver -addr :8080 -admin -debug
//
// Endpoints:
//
//	POST /services/<Service>    one-request SOAP envelopes
//	POST /services              packed Parallel_Method envelopes
//	GET  /services              deployed-service listing
//	GET  /services/<Service>?wsdl
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	spi "repro"
	"repro/cmd/internal/heapfloor"
	"repro/internal/registry"
	"repro/internal/services"
)

func main() {
	heapfloor.Set()
	addr := flag.String("addr", ":8080", "listen address")
	appWorkers := flag.Int("app-workers", 32, "application-stage pool width")
	coupled := flag.Bool("coupled", false, "use the traditional coupled architecture (no staged pools)")
	work := flag.Duration("work", 0, "simulated backend work per operation")
	wssUser := flag.String("wss-user", "", "require WS-Security and accept this username")
	wssSecret := flag.String("wss-secret", "", "shared secret for -wss-user")
	debug := flag.Bool("debug", false, "expose GET /spi/stats and /spi/pprof/* operator endpoints")
	admin := flag.Bool("admin", false, "self-host the Admin control-plane service (GetStats/SetState) at /services/Admin")
	pipeline := flag.Int("pipeline", 8, "per-connection HTTP/1.1 pipelining window (0 or 1: serial)")
	readTimeout := flag.Duration("read-timeout", 0, "per-request read deadline; an idle or stalled connection is closed (0: none)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-response write deadline; a peer that stops reading is disconnected (0: none)")
	flag.Parse()

	container := registry.NewContainer()
	opt := services.Options{WorkTime: *work}
	if err := services.DeployEcho(container, opt); err != nil {
		fatal(err)
	}
	if err := services.DeployWeather(container, opt); err != nil {
		fatal(err)
	}
	if _, err := services.DeployTravel(container, opt); err != nil {
		fatal(err)
	}

	cfg := spi.ServerConfig{
		Container:      container,
		AppWorkers:     *appWorkers,
		Coupled:        *coupled,
		AdminService:   *admin,
		PipelineWindow: *pipeline,
		ReadTimeout:    *readTimeout,
		WriteTimeout:   *writeTimeout,
		DebugEndpoints: *debug,
	}
	if *wssUser != "" {
		if *wssSecret == "" {
			fatal(fmt.Errorf("-wss-user requires -wss-secret"))
		}
		cfg.HeaderProcessors = []spi.HeaderProcessor{
			&spi.WSSecurityVerifier{Secrets: map[string][]byte{*wssUser: []byte(*wssSecret)}},
		}
	}

	server, err := spi.NewServer(cfg)
	if err != nil {
		fatal(err)
	}
	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("spiserver: listening on %s\n", listener.Addr())
	for _, svc := range container.Services() {
		fmt.Printf("  /services/%s — %s\n", svc.Name, svc.Doc)
	}

	done := make(chan error, 1)
	go func() { done <- server.Serve(listener) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Printf("spiserver: %v, draining\n", s)
		server.Shutdown(5 * time.Second)
		select {
		case <-done:
		case <-time.After(time.Second):
		}
		st := server.Stats()
		fmt.Printf("spiserver: served %d envelopes, %d requests (%d packed messages, %d faults)\n",
			st.Envelopes, st.Requests, st.PackedMessages, st.Faults)
		if len(st.Operations) > 0 {
			names := make([]string, 0, len(st.Operations))
			for name := range st.Operations {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Println("per-operation execution times:")
			for _, name := range names {
				fmt.Printf("  %-32s %s\n", name, st.Operations[name])
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spiserver: %v\n", err)
	os.Exit(1)
}
