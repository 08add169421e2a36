package core

import (
	"context"
	"sync"
)

// collector is where a dispatcher's results wait to be written: the server's
// packed entries and plan steps, and the gateway's gathered slots. A slot
// takes only its first write, so a worker or a backend that finishes after the
// deadline degraded its slot changes nothing. Every Parallel_Response entry
// carries its spi:id and every reader routes by it, so drain writes the slots
// in the order they fill, and no entry waits for a slower one ahead of it.
type collector[T any] struct {
	mu     sync.Mutex
	slots  []collected[T]
	filled int // how many slots have a value
	wake   chan struct{}
}

// collected is one slot: its value once it has one, and, in the k-th slot,
// the index of the slot that filled k-th — the order drain writes them in.
type collected[T any] struct {
	v      T
	filled bool
	order  int32
}

// init readies c with n slots and room for size, and returns it.
func (c *collector[T]) init(n, size int) *collector[T] {
	c.slots = make([]collected[T], n, size)
	c.wake = make(chan struct{}, 1)
	return c
}

// add opens one more slot: a packed body's entries are counted as they are
// decoded.
func (c *collector[T]) add() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots = append(c.slots, collected[T]{})
	return len(c.slots) - 1
}

// put fills slot i unless it is filled already, and wakes drain.
func (c *collector[T]) put(i int, v T) {
	c.mu.Lock()
	c.fill(i, v)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// fill is put under c.mu, without the wake-up.
func (c *collector[T]) fill(i int, v T) {
	if !c.slots[i].filled {
		c.slots[i].v, c.slots[i].filled = v, true
		c.slots[c.filled].order = int32(i)
		c.filled++
	}
}

// get returns slot i's value and whether it has one.
func (c *collector[T]) get(i int) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slots[i].v, c.slots[i].filled
}

// drain hands each slot to write as it fills, until every slot is written or
// write fails. When ctx is done first, degrade fills every slot still open.
// It runs under the lock put takes, so that a slot is degraded, and counted as
// degraded by the caller, only if no result came first; it must not call back
// into the collector.
func (c *collector[T]) drain(ctx context.Context, write func(i int, v T) error, degrade func(i int) T) error {
	for next := 0; ; {
		c.mu.Lock()
		slots, filled, all := c.slots, c.filled, c.filled == len(c.slots)
		c.mu.Unlock()
		// What fill wrote before the lock was released it never writes again.
		for ; next < filled; next++ {
			i := slots[next].order
			if err := write(int(i), slots[i].v); err != nil {
				return err
			}
		}
		if all {
			return nil
		}
		select {
		case <-c.wake:
		case <-ctx.Done():
			c.mu.Lock()
			for i := range c.slots {
				if !c.slots[i].filled {
					c.fill(i, degrade(i))
				}
			}
			c.mu.Unlock()
		}
	}
}
