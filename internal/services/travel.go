package services

import (
	"fmt"
	"sync"

	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// Travel-agent deployment constants. The use case (W3C Web Services
// Architecture Usage Scenarios, the paper's [15]) has three airline
// services, three hotel services and one credit-card service living in one
// service container, which is what makes steps 1 and 3 packable.
const (
	// NumAirlines is the number of airline services deployed.
	NumAirlines = 3
	// NumHotels is the number of hotel services deployed.
	NumHotels = 3
	// CreditCardService is the payment service name.
	CreditCardService = "CreditCard"
)

// AirlineService returns the i-th airline service name (0-based).
func AirlineService(i int) string { return fmt.Sprintf("Airline%d", i+1) }

// HotelService returns the i-th hotel service name (0-based).
func HotelService(i int) string { return fmt.Sprintf("Hotel%d", i+1) }

// reservationBook tracks reservations and confirmations for one vendor.
type reservationBook struct {
	mu        sync.Mutex
	next      int64
	reserved  map[int64]string // reservation id -> item
	confirmed map[int64]string // reservation id -> authorization id
}

func newReservationBook() *reservationBook {
	return &reservationBook{reserved: make(map[int64]string), confirmed: make(map[int64]string)}
}

func (b *reservationBook) reserve(item string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.next++
	b.reserved[b.next] = item
	return b.next
}

func (b *reservationBook) confirm(id int64, auth string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.reserved[id]; !ok {
		return soap.ClientFault("no reservation %d", id)
	}
	if _, dup := b.confirmed[id]; dup {
		return soap.ClientFault("reservation %d already confirmed", id)
	}
	if auth == "" {
		return soap.ClientFault("missing authorization id")
	}
	b.confirmed[id] = auth
	return nil
}

func (b *reservationBook) counts() (reserved, confirmed int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.reserved), len(b.confirmed)
}

// TravelState exposes the books for test assertions.
type TravelState struct {
	Airlines   []*reservationBook
	Hotels     []*reservationBook
	authorized map[string]float64
	mu         sync.Mutex
	nextAuth   int
}

// DeployTravel registers the full travel-agent service suite and returns
// the shared state for assertions.
//
// Flight and room prices are deterministic functions of the vendor index so
// the "user chooses the most economical" step of §4.3 is stable: Airline2
// and Hotel3 are always cheapest.
func DeployTravel(c *registry.Container, opt Options) (*TravelState, error) {
	state := &TravelState{authorized: make(map[string]float64)}

	for i := 0; i < NumAirlines; i++ {
		name := AirlineService(i)
		book := newReservationBook()
		state.Airlines = append(state.Airlines, book)
		svc, err := c.AddService(name, "urn:spi:"+name, "airline flight search and booking")
		if err != nil {
			return nil, err
		}
		idx := i
		if err := svc.Register("QueryFlights", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			opt.work()
			from, to := argString(params, "from"), argString(params, "to")
			if from == "" || to == "" {
				return nil, soap.ClientFault("QueryFlights needs from and to")
			}
			flights := soapenc.Array{}
			for f := 0; f < 3; f++ {
				flights = append(flights, soapenc.NewStruct(
					soapenc.F("flight", fmt.Sprintf("%s-%s%d", name, "F", f+1)),
					soapenc.F("from", from),
					soapenc.F("to", to),
					// Airline2 (idx 1) is cheapest.
					soapenc.F("price", 400.0+float64(((idx+2)%3)*100)+float64(f*25)),
				))
			}
			return []soapenc.Field{soapenc.F("flights", flights)}, nil
		}, "list flights between two cities"); err != nil {
			return nil, err
		}
		if err := svc.Register("Reserve", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			opt.work()
			flight := argString(params, "flight")
			if flight == "" {
				return nil, soap.ClientFault("Reserve needs a flight")
			}
			id := book.reserve(flight)
			return []soapenc.Field{soapenc.F("reservedID", id)}, nil
		}, "reserve a flight, returning the reservation id"); err != nil {
			return nil, err
		}
		if err := svc.Register("Confirm", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			opt.work()
			if err := book.confirm(argInt(params, "reservedID"), argString(params, "authorizationID")); err != nil {
				return nil, err
			}
			return []soapenc.Field{soapenc.F("ok", true)}, nil
		}, "confirm a reservation with a payment authorization"); err != nil {
			return nil, err
		}
	}

	for i := 0; i < NumHotels; i++ {
		name := HotelService(i)
		book := newReservationBook()
		state.Hotels = append(state.Hotels, book)
		svc, err := c.AddService(name, "urn:spi:"+name, "hotel room search and booking")
		if err != nil {
			return nil, err
		}
		idx := i
		if err := svc.Register("QueryRooms", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			opt.work()
			city := argString(params, "city")
			if city == "" {
				return nil, soap.ClientFault("QueryRooms needs a city")
			}
			rooms := soapenc.Array{}
			for r := 0; r < 3; r++ {
				rooms = append(rooms, soapenc.NewStruct(
					soapenc.F("room", fmt.Sprintf("%s-R%d", name, r+1)),
					soapenc.F("city", city),
					// Hotel3 (idx 2) is cheapest.
					soapenc.F("price", 120.0+float64(((idx+1)%3)*40)+float64(r*10)),
				))
			}
			return []soapenc.Field{soapenc.F("rooms", rooms)}, nil
		}, "list rooms in a city"); err != nil {
			return nil, err
		}
		if err := svc.Register("Reserve", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			opt.work()
			room := argString(params, "room")
			if room == "" {
				return nil, soap.ClientFault("Reserve needs a room")
			}
			id := book.reserve(room)
			return []soapenc.Field{soapenc.F("reservedID", id)}, nil
		}, "reserve a room, returning the reservation id"); err != nil {
			return nil, err
		}
		if err := svc.Register("Confirm", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
			opt.work()
			if err := book.confirm(argInt(params, "reservedID"), argString(params, "authorizationID")); err != nil {
				return nil, err
			}
			return []soapenc.Field{soapenc.F("ok", true)}, nil
		}, "confirm a reservation with a payment authorization"); err != nil {
			return nil, err
		}
	}

	svc, err := c.AddService(CreditCardService, "urn:spi:"+CreditCardService, "payment authorization")
	if err != nil {
		return nil, err
	}
	if err := svc.Register("ConfirmPayment", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		opt.work()
		amount := argFloat(params, "amount")
		card := argString(params, "card")
		if amount <= 0 || card == "" {
			return nil, soap.ClientFault("ConfirmPayment needs a positive amount and a card")
		}
		state.mu.Lock()
		state.nextAuth++
		auth := fmt.Sprintf("AUTH-%06d", state.nextAuth)
		state.authorized[auth] = amount
		state.mu.Unlock()
		return []soapenc.Field{soapenc.F("authorizationID", auth)}, nil
	}, "authorize a payment, returning the authorization id"); err != nil {
		return nil, err
	}
	return state, nil
}

func argString(params []soapenc.Field, name string) string {
	for _, p := range params {
		if p.Name == name {
			s, _ := p.Value.(string)
			return s
		}
	}
	return ""
}

func argInt(params []soapenc.Field, name string) int64 {
	for _, p := range params {
		if p.Name == name {
			n, _ := p.Value.(int64)
			return n
		}
	}
	return 0
}

func argFloat(params []soapenc.Field, name string) float64 {
	for _, p := range params {
		if p.Name == name {
			f, _ := p.Value.(float64)
			return f
		}
	}
	return 0
}
