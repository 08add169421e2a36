// Weather: the paper's Figure 4 scenario. A client wants the weather for
// Beijing and Shanghai; traditionally that is two SOAP messages, with the
// SPI pack interface it is one message whose body is a Parallel_Method
// element carrying both requests. The example taps the connection so you
// can see the actual packed envelope on the wire.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	spi "repro"
)

// teeConn copies everything written through it into a shared buffer, so
// the example can show the raw SOAP message — the same message the paper
// prints in Figure 4.
type teeConn struct {
	net.Conn
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (t teeConn) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf.Write(p)
	t.mu.Unlock()
	return t.Conn.Write(p)
}

func main() {
	// Deploy a weather service like the WebServiceX.NET one the paper
	// queried.
	container := spi.NewContainer()
	weather := container.MustAddService("WeatherService", "urn:example:Weather", "city weather")
	reports := map[string]string{"Beijing": "Sunny, 31°C", "Shanghai": "Cloudy, 28°C"}
	weather.MustRegister("GetWeather", func(ctx *spi.HandlerContext, params []spi.Field) ([]spi.Field, error) {
		city := ""
		for _, p := range params {
			if p.Name == "CityName" {
				city, _ = p.Value.(string)
			}
		}
		city = strings.TrimSuffix(city, ", China")
		report, ok := reports[city]
		if !ok {
			report = "no data"
		}
		return []spi.Field{spi.F("GetWeatherResult", report)}, nil
	}, "returns the weather for a city")

	server, err := spi.NewServer(spi.ServerConfig{Container: container})
	if err != nil {
		log.Fatal(err)
	}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go server.Serve(listener)
	defer server.Close()

	var mu sync.Mutex
	var wire bytes.Buffer
	client, err := spi.NewClient(spi.ClientConfig{
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", listener.Addr().String())
			if err != nil {
				return nil, err
			}
			return teeConn{Conn: c, mu: &mu, buf: &wire}, nil
		},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.Define("WeatherService", "urn:example:Weather")

	// Two weather queries packed into ONE SOAP message (Figure 4).
	batch := client.NewBatch()
	beijing := batch.Add("WeatherService", "GetWeather",
		spi.F("CityName", "Beijing, China"), spi.F("CountryName", "China"))
	shanghai := batch.Add("WeatherService", "GetWeather",
		spi.F("CityName", "Shanghai, China"), spi.F("CountryName", "China"))
	if err := batch.Send(); err != nil {
		log.Fatal(err)
	}

	rb, err := beijing.Wait()
	if err != nil {
		log.Fatal(err)
	}
	rs, err := shanghai.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Beijing :", rb[0].Value)
	fmt.Println("Shanghai:", rs[0].Value)
	fmt.Printf("\nSOAP messages sent: %d (for 2 service requests)\n\n", client.Stats().Envelopes)

	// Show the packed request envelope, the HTTP body, as Figure 4 does.
	mu.Lock()
	raw := wire.String()
	mu.Unlock()
	if _, envelope, ok := strings.Cut(raw, "\r\n\r\n"); ok {
		fmt.Println("the packed SOAP request on the wire:")
		fmt.Println(envelope)
	}
}
