package main

import (
	"fmt"
	"math/rand"
)

// workload is one traffic mix. The open-loop rates are frozen: they were
// set once to about half the closed-loop exchange rate measured on the
// 2-core reference box (see README.md, "Frozen rates") and do not follow
// the machine, so latency at a rate means the same thing on every commit.
type workload struct {
	Name string
	// Gateway puts spigateway (round-robin, passthrough default) in front
	// of two spiservers; otherwise the callers talk to one spiserver.
	Gateway bool
	// Pack is the number of Echo.echo calls per envelope; 1 sends
	// single-call envelopes, more sends one Parallel_Method.
	Pack int
	// PayloadBytes is the size of each call's string parameter.
	PayloadBytes int
	// OpenRate is the open-loop schedule in exchanges per second.
	OpenRate float64
	// Warmup is the number of exchanges each caller completes in the
	// warm-up. It is a count, so every set-up hands over processes that
	// have done the same work, and the bytes counted over it repeat
	// exactly for a seed.
	Warmup int
}

var workloads = []workload{
	{Name: "single-10b", Pack: 1, PayloadBytes: 10, OpenRate: 6300, Warmup: 400},
	{Name: "packed16-10b", Pack: 16, PayloadBytes: 10, OpenRate: 2400, Warmup: 400},
	{Name: "packed8-16k", Pack: 8, PayloadBytes: 16 << 10, OpenRate: 96, Warmup: 40},
	{Name: "gw-packed16-10b", Gateway: true, Pack: 16, PayloadBytes: 10, OpenRate: 720, Warmup: 400},
	{Name: "gw-single-10b", Gateway: true, Pack: 1, PayloadBytes: 10, OpenRate: 2900, Warmup: 400},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Every payload starts with a fixed-width header — the caller's letter and
// the caller's call sequence number in base 36 — so no two calls of a run
// carry the same bytes and an echo delivered to the wrong call cannot
// compare equal. The rest is filler cut from a seeded pool.
const (
	payloadHeaderBytes = 7
	fillerPoolBytes    = 1 << 20
)

// payloads makes call payloads from the run's seed. The programs under
// test see only these bytes, never the seed.
type payloads struct {
	pool []byte
}

// newPayloads fills the pool with printable ASCII in which one character
// in 32 is one of <&>" so the codec's escaping runs on every workload.
func newPayloads(seed int64) *payloads {
	rng := rand.New(rand.NewSource(seed))
	const special = `<&>"`
	pool := make([]byte, fillerPoolBytes)
	for i := range pool {
		if rng.Intn(32) == 0 {
			pool[i] = special[rng.Intn(len(special))]
			continue
		}
		c := byte(0x21 + rng.Intn(0x7f-0x21))
		for c == '<' || c == '&' || c == '>' || c == '"' {
			c = byte(0x21 + rng.Intn(0x7f-0x21))
		}
		pool[i] = c
	}
	return &payloads{pool: pool}
}

// payload returns the bytes call number seq of a caller sends. It is a
// pure function of (seed, caller, seq, size), so a run's first N calls
// are the same bytes every time the seed repeats.
func (p *payloads) payload(caller int, seq uint64, size int) string {
	buf := make([]byte, size)
	buf[0] = byte('A' + caller)
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	n := seq
	for i := payloadHeaderBytes - 1; i >= 1; i-- {
		buf[i] = digits[n%36]
		n /= 36
	}
	fill := size - payloadHeaderBytes
	off := int((seq*2654435761 + uint64(caller)*40503) % uint64(len(p.pool)-fill))
	copy(buf[payloadHeaderBytes:], p.pool[off:off+fill])
	return string(buf)
}
