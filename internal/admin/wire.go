package admin

import (
	"fmt"

	"repro/internal/bind"
	"repro/internal/soapenc"
)

// StatsFields flattens a snapshot into the named RPC result parameters of
// GetStatsResponse, as Stats' soap tags and field order say.
func StatsFields(s Stats) []soapenc.Field {
	if s.Ops == nil {
		s.Ops = []OpStat{}
	}
	fields, err := bind.MarshalFields(s)
	if err != nil {
		panic(err) // every field of Stats has a type bind writes
	}
	return fields
}

// StatsFromFields rebuilds a snapshot from decoded GetStatsResponse
// parameters. Unknown fields are ignored whatever their value (newer nodes
// may advertise more). A known field must carry its type, never xsi:nil and
// never a negative integer; weight must be positive, busy at most workers,
// and every op and fault code named.
func StatsFromFields(params []soapenc.Field) (Stats, error) {
	var s Stats
	if err := bind.UnmarshalFields(markFields(params), &s); err != nil {
		return Stats{}, fmt.Errorf("admin: %w", err)
	}
	if err := s.check(); err != nil {
		return Stats{}, err
	}
	return s, nil
}

// A count that is xsi:nil was never counted, and a scraped snapshot with a
// negative count is garbage an exporter must not publish as a reading.
// bind would store the one as a zero and the other as read, so markFields
// swaps both for values of these types first. bind refuses them in any
// field it knows, and skips an unknown field without looking at its value.
type (
	xsiNil   struct{}
	negative int64
)

// markFields returns a copy of fields with every nil and every negative
// integer inside it, at any depth, replaced by an xsiNil or a negative.
func markFields(fields []soapenc.Field) []soapenc.Field {
	out := make([]soapenc.Field, len(fields))
	for i, f := range fields {
		out[i] = soapenc.Field{Name: f.Name, Value: mark(f.Value)}
	}
	return out
}

func mark(v soapenc.Value) soapenc.Value {
	switch v := v.(type) {
	case nil:
		return xsiNil{}
	case int64:
		if v < 0 {
			return negative(v)
		}
	case soapenc.Array:
		out := make(soapenc.Array, len(v))
		for i, item := range v {
			out[i] = mark(item)
		}
		return out
	case *soapenc.Struct:
		return &soapenc.Struct{Fields: markFields(v.Fields)}
	}
	return v
}

// check holds a snapshot to what its readers assume of the values.
func (s Stats) check() error {
	if s.Weight < 1 {
		return fmt.Errorf("admin: snapshot weight %d is not positive", s.Weight)
	}
	if s.Busy > s.Workers {
		return fmt.Errorf("admin: snapshot busy %d exceeds workers %d", s.Busy, s.Workers)
	}
	for i, o := range s.Ops {
		if o.Op == "" {
			return fmt.Errorf("admin: ops[%d] has no op name", i)
		}
	}
	for i, c := range s.FaultCodes {
		if c.Code == "" {
			return fmt.Errorf("admin: fault_codes[%d] has no code", i)
		}
	}
	return nil
}
