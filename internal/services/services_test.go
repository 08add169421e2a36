package services

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soapenc"
)

// deployAll spins up a full container (echo, weather, travel) behind a
// server and returns a client over an in-memory link.
func deployAll(t *testing.T, opt Options) (*core.Client, *TravelState, *netsim.Link) {
	t.Helper()
	container := registry.NewContainer()
	if err := DeployEcho(container, opt); err != nil {
		t.Fatal(err)
	}
	if err := DeployWeather(container, opt); err != nil {
		t.Fatal(err)
	}
	state, err := DeployTravel(container, opt)
	if err != nil {
		t.Fatal(err)
	}

	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.ServerConfig{Container: container})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	client, err := core.NewClient(core.ClientConfig{Dial: link.Dial, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		link.Close()
	})
	return client, state, link
}

func TestEchoService(t *testing.T) {
	client, _, _ := deployAll(t, Options{})
	res, err := client.Call("Echo", "echo", soapenc.F("data", strings.Repeat("x", 100)))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := res[0].Value.(string); len(s) != 100 {
		t.Errorf("echo returned %d bytes", len(s))
	}
	res, err = client.Call("Echo", "echoSize", soapenc.F("data", strings.Repeat("x", 1234)))
	if err != nil {
		t.Fatal(err)
	}
	if !soapenc.Equal(res[0].Value, int64(1234)) {
		t.Errorf("echoSize = %v", res[0].Value)
	}
}

func TestWeatherService(t *testing.T) {
	client, _, _ := deployAll(t, Options{})
	res, err := client.Call("WeatherService", "GetWeather", soapenc.F("CityName", "Beijing, China"))
	if err != nil {
		t.Fatal(err)
	}
	report, _ := res[0].Value.(string)
	if !strings.Contains(report, "Sunny") {
		t.Errorf("Beijing weather = %q", report)
	}
	res, err = client.Call("WeatherService", "GetWeather", soapenc.F("CityName", "Atlantis"))
	if err != nil {
		t.Fatal(err)
	}
	if report, _ := res[0].Value.(string); !strings.Contains(report, "No data") {
		t.Errorf("unknown city = %q", report)
	}
}

func TestAirlineQueryAndReserve(t *testing.T) {
	client, state, _ := deployAll(t, Options{})
	res, err := client.Call("Airline1", "QueryFlights",
		soapenc.F("from", "A"), soapenc.F("to", "B"), soapenc.F("date", "2006-09-26"))
	if err != nil {
		t.Fatal(err)
	}
	flights, _ := res[0].Value.(soapenc.Array)
	if len(flights) != 3 {
		t.Fatalf("flights = %d", len(flights))
	}
	first, _ := flights[0].(*soapenc.Struct)
	if first.GetString("flight") == "" || first.GetFloat("price") <= 0 {
		t.Errorf("flight struct = %#v", first)
	}

	res, err = client.Call("Airline1", "Reserve", soapenc.F("flight", first.GetString("flight")))
	if err != nil {
		t.Fatal(err)
	}
	id := res[0].Value.(int64)
	if id == 0 {
		t.Error("no reservation id")
	}
	r, c := state.Airlines[0].counts()
	if r != 1 || c != 0 {
		t.Errorf("book counts = %d reserved, %d confirmed", r, c)
	}
}

func TestConfirmValidation(t *testing.T) {
	client, _, _ := deployAll(t, Options{})
	// Confirming a non-existent reservation faults.
	if _, err := client.Call("Airline1", "Confirm",
		soapenc.F("reservedID", int64(999)), soapenc.F("authorizationID", "AUTH-1")); err == nil {
		t.Error("bogus confirmation accepted")
	}
	// Missing parameters fault.
	if _, err := client.Call("Airline1", "QueryFlights"); err == nil {
		t.Error("QueryFlights without params accepted")
	}
	if _, err := client.Call("CreditCard", "ConfirmPayment", soapenc.F("amount", -5.0)); err == nil {
		t.Error("negative payment accepted")
	}
}

func TestTravelAgentUnoptimized(t *testing.T) {
	client, state, _ := deployAll(t, Options{})
	it, err := RunTravelAgent(client, DefaultItinerary(), false)
	if err != nil {
		t.Fatal(err)
	}
	assertItinerary(t, it, state)
	if it.Messages != 11 {
		t.Errorf("unoptimized messages = %d, want 11", it.Messages)
	}
}

func TestTravelAgentOptimized(t *testing.T) {
	client, state, _ := deployAll(t, Options{})
	it, err := RunTravelAgent(client, DefaultItinerary(), true)
	if err != nil {
		t.Fatal(err)
	}
	assertItinerary(t, it, state)
	if it.Messages != 7 {
		t.Errorf("optimized messages = %d, want 7 (steps 1 and 3 packed)", it.Messages)
	}
}

// assertItinerary checks the semantic outcome is identical in both modes:
// the 11 invocations happened, the cheapest vendors won, payment was
// authorized and both reservations were confirmed.
func assertItinerary(t *testing.T, it *Itinerary, state *TravelState) {
	t.Helper()
	if it.Invocations != 11 {
		t.Errorf("invocations = %d, want 11", it.Invocations)
	}
	// Airline2 and Hotel3 are deterministic price leaders.
	if !strings.HasPrefix(it.Flight, "Airline2-") {
		t.Errorf("chose flight %q, want Airline2 (cheapest)", it.Flight)
	}
	if !strings.HasPrefix(it.Room, "Hotel3-") {
		t.Errorf("chose room %q, want Hotel3 (cheapest)", it.Room)
	}
	if it.AuthorizationID == "" {
		t.Error("no authorization id")
	}
	if it.Total != it.FlightPrice+it.RoomPrice {
		t.Errorf("total = %v, want %v", it.Total, it.FlightPrice+it.RoomPrice)
	}
	var authorized float64
	for _, v := range state.authorized {
		authorized += v
	}
	if authorized != it.Total {
		t.Errorf("authorized %v, want %v", authorized, it.Total)
	}
	var ar, ac, hr, hc int
	for _, b := range state.Airlines {
		r, c := b.counts()
		ar, ac = ar+r, ac+c
	}
	for _, b := range state.Hotels {
		r, c := b.counts()
		hr, hc = hr+r, hc+c
	}
	if ar != 1 || ac != 1 || hr != 1 || hc != 1 {
		t.Errorf("reservations/confirmations = %d/%d air, %d/%d hotel; want 1/1 each", ar, ac, hr, hc)
	}
}

func TestTravelAgentMessageAccounting(t *testing.T) {
	client, _, link := deployAll(t, Options{})
	if _, err := RunTravelAgent(client, DefaultItinerary(), false); err != nil {
		t.Fatal(err)
	}
	unopt := link.Stats().Dials
	link.ResetStats()
	if _, err := RunTravelAgent(client, DefaultItinerary(), true); err != nil {
		t.Fatal(err)
	}
	opt := link.Stats().Dials
	if unopt != 11 || opt != 7 {
		t.Errorf("dials = %d unoptimized, %d optimized; want 11 and 7", unopt, opt)
	}
}

func TestTravelAgentWithWorkTime(t *testing.T) {
	client, _, _ := deployAll(t, Options{WorkTime: 5 * time.Millisecond})
	start := time.Now()
	if _, err := RunTravelAgent(client, DefaultItinerary(), true); err != nil {
		t.Fatal(err)
	}
	optimized := time.Since(start)
	// Packed steps execute the three queries concurrently on the app
	// stage, so the whole run is bounded well below 11 x work.
	if optimized > 11*5*time.Millisecond+200*time.Millisecond {
		t.Errorf("optimized run took %v", optimized)
	}
}

func TestHotelQueryAndReserve(t *testing.T) {
	client, state, _ := deployAll(t, Options{})
	res, err := client.Call("Hotel2", "QueryRooms", soapenc.F("city", "Shanghai"))
	if err != nil {
		t.Fatal(err)
	}
	rooms, _ := res[0].Value.(soapenc.Array)
	if len(rooms) != 3 {
		t.Fatalf("rooms = %d", len(rooms))
	}
	first, _ := rooms[0].(*soapenc.Struct)
	res, err = client.Call("Hotel2", "Reserve", soapenc.F("room", first.GetString("room")))
	if err != nil {
		t.Fatal(err)
	}
	id := res[0].Value.(int64)
	if _, err := client.Call("Hotel2", "Confirm",
		soapenc.F("reservedID", id), soapenc.F("authorizationID", "AUTH-9")); err != nil {
		t.Fatal(err)
	}
	// Double confirmation is rejected.
	if _, err := client.Call("Hotel2", "Confirm",
		soapenc.F("reservedID", id), soapenc.F("authorizationID", "AUTH-9")); err == nil {
		t.Error("double confirmation accepted")
	}
	_, c := state.Hotels[1].counts()
	if c != 1 {
		t.Errorf("confirmed = %d", c)
	}
}

func TestReserveValidation(t *testing.T) {
	client, _, _ := deployAll(t, Options{})
	if _, err := client.Call("Hotel1", "Reserve"); err == nil {
		t.Error("reserve without room accepted")
	}
	if _, err := client.Call("Airline1", "Reserve"); err == nil {
		t.Error("reserve without flight accepted")
	}
	if _, err := client.Call("Hotel1", "QueryRooms"); err == nil {
		t.Error("query without city accepted")
	}
	if _, err := client.Call("Airline1", "Confirm",
		soapenc.F("reservedID", int64(1))); err == nil {
		t.Error("confirm without authorization accepted")
	}
}

func TestPriceDeterminism(t *testing.T) {
	// The "user chooses the most economical" step needs stable prices:
	// Airline2 must beat Airline1 and Airline3, Hotel3 must beat the rest.
	client, _, _ := deployAll(t, Options{})
	cheapestOf := func(service, op, listName, priceField string, params ...soapenc.Field) float64 {
		res, err := client.Call(service, op, params...)
		if err != nil {
			t.Fatal(err)
		}
		arr, _ := res[0].Value.(soapenc.Array)
		best := -1.0
		for _, v := range arr {
			s, _ := v.(*soapenc.Struct)
			if p := s.GetFloat(priceField); best < 0 || p < best {
				best = p
			}
		}
		return best
	}
	flightArgs := []soapenc.Field{soapenc.F("from", "A"), soapenc.F("to", "B"), soapenc.F("date", "d")}
	a1 := cheapestOf("Airline1", "QueryFlights", "flights", "price", flightArgs...)
	a2 := cheapestOf("Airline2", "QueryFlights", "flights", "price", flightArgs...)
	a3 := cheapestOf("Airline3", "QueryFlights", "flights", "price", flightArgs...)
	if !(a2 < a1 && a2 < a3) {
		t.Errorf("airline prices = %.0f %.0f %.0f; Airline2 must be cheapest", a1, a2, a3)
	}
	roomArgs := []soapenc.Field{soapenc.F("city", "X")}
	h1 := cheapestOf("Hotel1", "QueryRooms", "rooms", "price", roomArgs...)
	h2 := cheapestOf("Hotel2", "QueryRooms", "rooms", "price", roomArgs...)
	h3 := cheapestOf("Hotel3", "QueryRooms", "rooms", "price", roomArgs...)
	if !(h3 < h1 && h3 < h2) {
		t.Errorf("hotel prices = %.0f %.0f %.0f; Hotel3 must be cheapest", h1, h2, h3)
	}
}

func TestTravelAgentPacksAreSemanticallyIdentical(t *testing.T) {
	// Both modes must book the same flight and room at the same prices.
	clientA, _, _ := deployAll(t, Options{})
	unopt, err := RunTravelAgent(clientA, DefaultItinerary(), false)
	if err != nil {
		t.Fatal(err)
	}
	clientB, _, _ := deployAll(t, Options{})
	opt, err := RunTravelAgent(clientB, DefaultItinerary(), true)
	if err != nil {
		t.Fatal(err)
	}
	if unopt.Flight != opt.Flight || unopt.Room != opt.Room ||
		unopt.FlightPrice != opt.FlightPrice || unopt.RoomPrice != opt.RoomPrice ||
		unopt.Total != opt.Total {
		t.Errorf("modes booked differently:\nunopt %+v\nopt   %+v", unopt, opt)
	}
}

func TestDuplicateDeployRejected(t *testing.T) {
	container := registry.NewContainer()
	if err := DeployEcho(container, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := DeployEcho(container, Options{}); err == nil {
		t.Error("duplicate echo deployment accepted")
	}
}
