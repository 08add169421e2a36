package spi_test

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	spi "repro"
)

// startGreeter deploys a tiny service over real TCP for the examples.
func startGreeter() (addr string, cleanup func()) {
	container := spi.NewContainer()
	svc := container.MustAddService("Greeter", "urn:example:Greeter", "says hello")
	svc.MustRegister("Hello", func(ctx *spi.HandlerContext, params []spi.Field) ([]spi.Field, error) {
		name := "world"
		for _, p := range params {
			if p.Name == "name" {
				name, _ = p.Value.(string)
			}
		}
		return []spi.Field{spi.F("greeting", "hello, "+name)}, nil
	}, "greets the caller")
	server, err := spi.NewServer(spi.ServerConfig{Container: container})
	if err != nil {
		panic(err)
	}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go server.Serve(listener)
	return listener.Addr().String(), func() { server.Close() }
}

func newClient(addr string) *spi.Client {
	client, err := spi.NewClient(spi.ClientConfig{
		Dial:    func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Timeout: 5 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	return client
}

// The traditional interface: one call, one SOAP message.
func ExampleClient_Call() {
	addr, cleanup := startGreeter()
	defer cleanup()
	client := newClient(addr)
	defer client.Close()

	results, err := client.Call("Greeter", "Hello", spi.F("name", "SPI"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(results[0].Value)
	// Output: hello, SPI
}

// The pack interface: several calls in ONE SOAP message, executed
// concurrently on the server's application stage.
func ExampleClient_NewBatch() {
	addr, cleanup := startGreeter()
	defer cleanup()
	client := newClient(addr)
	defer client.Close()

	batch := client.NewBatch()
	a := batch.Add("Greeter", "Hello", spi.F("name", "a"))
	b := batch.Add("Greeter", "Hello", spi.F("name", "b"))
	if err := batch.Send(); err != nil {
		fmt.Println("error:", err)
		return
	}
	ra, _ := a.Wait()
	rb, _ := b.Wait()
	fmt.Println(ra[0].Value)
	fmt.Println(rb[0].Value)
	fmt.Println("messages sent:", client.Stats().Envelopes)
	// Output:
	// hello, a
	// hello, b
	// messages sent: 1
}

// Transparent packing: concurrent unmodified call sites coalesce into
// shared messages — the paper's stated future work.
func ExampleAutoBatcher() {
	addr, cleanup := startGreeter()
	defer cleanup()
	client := newClient(addr)
	defer client.Close()

	auto := spi.NewAutoBatcher(client, 8)
	defer auto.Close()

	var wg sync.WaitGroup
	greetings := make([]string, 3)
	for i, name := range []string{"x", "y", "z"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			res, err := auto.Call("Greeter", "Hello", spi.F("name", name))
			if err == nil {
				greetings[i], _ = res[0].Value.(string)
			}
		}(i, name)
	}
	wg.Wait()
	sort.Strings(greetings)
	for _, g := range greetings {
		fmt.Println(g)
	}
	// Output:
	// hello, x
	// hello, y
	// hello, z
}

// Structured values: arrays and structs travel as typed SOAP parameters.
func ExampleStruct() {
	s := spi.NewStruct(
		spi.F("flight", "Airline2-F1"),
		spi.F("price", 450.0),
	)
	fmt.Println(s.GetString("flight"), s.GetFloat("price"))
	// Output: Airline2-F1 450
}

// Service descriptions: every deployed service exposes WSDL.
func ExampleParseWSDL() {
	container := spi.NewContainer()
	svc := container.MustAddService("Greeter", "urn:example:Greeter", "docs")
	svc.MustRegister("Hello", func(ctx *spi.HandlerContext, p []spi.Field) ([]spi.Field, error) {
		return p, nil
	}, "")

	doc := spi.DescribeService(svc, "http://localhost:8080/services/Greeter")
	d, err := spi.ParseWSDL(doc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(d.Service, d.Namespace, d.Operations)
	// Output: Greeter urn:example:Greeter [Hello]
}
