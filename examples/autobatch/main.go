// Autobatch: the paper's future work, running. §5 promises "automatic
// communication techniques in order not to modify the code on client
// side" — this example shows independent goroutines written against the
// plain call interface whose requests are transparently coalesced into
// packed SOAP messages by an AutoBatcher.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	spi "repro"
)

func main() {
	container := spi.NewContainer()
	quotes := container.MustAddService("Quotes", "urn:example:Quotes", "stock quotes")
	quotes.MustRegister("Get", func(ctx *spi.HandlerContext, params []spi.Field) ([]spi.Field, error) {
		symbol := ""
		for _, p := range params {
			if p.Name == "symbol" {
				symbol, _ = p.Value.(string)
			}
		}
		// A deterministic toy price.
		price := 0.0
		for _, c := range symbol {
			price += float64(c)
		}
		return []spi.Field{spi.F("symbol", symbol), spi.F("price", price/10)}, nil
	}, "quotes one symbol")

	link := spi.NewLink(spi.LAN100())
	listener, err := link.Listen()
	if err != nil {
		log.Fatal(err)
	}
	server, err := spi.NewServer(spi.ServerConfig{Container: container})
	if err != nil {
		log.Fatal(err)
	}
	go server.Serve(listener)
	defer server.Close()
	defer link.Close()

	client, err := spi.NewClient(spi.ClientConfig{Dial: link.Dial, Timeout: 10 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.Define("Quotes", "urn:example:Quotes")

	symbols := []string{
		"IBM", "SUNW", "MSFT", "ORCL", "HPQ", "DELL", "CSCO", "INTC",
		"AMD", "TXN", "MOT", "NOK", "SAP", "RHAT", "ADBE", "EBAY",
	}

	// Sixteen goroutines, each making an ordinary blocking call — the
	// application code has no idea batching exists.
	auto := spi.NewAutoBatcher(client, 32)
	defer auto.Close()

	var wg sync.WaitGroup
	results := make([]string, len(symbols))
	start := time.Now()
	for i, symbol := range symbols {
		wg.Add(1)
		go func(i int, symbol string) {
			defer wg.Done()
			res, err := auto.Call("Quotes", "Get", spi.F("symbol", symbol))
			if err != nil {
				results[i] = fmt.Sprintf("%-5s error: %v", symbol, err)
				return
			}
			price := 0.0
			for _, f := range res {
				if f.Name == "price" {
					price, _ = f.Value.(float64)
				}
			}
			results[i] = fmt.Sprintf("%-5s %7.2f", symbol, price)
		}(i, symbol)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for _, line := range results {
		fmt.Println(line)
	}
	stats := client.Stats()
	fmt.Printf("\n%d independent calls coalesced into %d SOAP message(s) over %d connection(s) in %v\n",
		stats.Calls, stats.Envelopes, link.Stats().Dials, elapsed.Round(time.Microsecond))
	fmt.Println("(each call site looks like a plain synchronous invocation — no batch objects in sight)")
}
