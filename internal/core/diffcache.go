package core

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/xmldom"
)

// diffCache implements server-side differential deserialization, the §2.2
// related-work optimization of Abu-Ghazaleh & Lewis (SC-05, the paper's
// [4]) and Suzumura et al. (ICWS'05, [11]): "both of the approaches take
// advantage of similarities among messages in an incoming message stream
// to a web service" to bypass parsing work.
//
// Where [4] checkpoints parser state to skip the unchanged prefix of a
// similar message, this implementation takes the limiting (and very
// common in benchmarks and polling workloads) case of byte-identical
// subtrees: each body subtree — a Parallel_Method child, or a single call's
// entry — is keyed by a hash of its raw span mixed with the ancestor start
// tags that govern its namespace resolution. A packed message with 60
// repeated entries and 4 novel ones re-parses only the 4; hits clone the
// cached subtree into the request arena without tokenizing the span at all.
// Header blocks are outside every key, so per-message WS-Security nonces do
// not cost hits.
//
// Cached trees are immutable once stored, so hits clone them outside any
// critical section; the store itself is an LRU sharded eight ways by key
// byte, keeping the lock hold time to a map probe and two list splices.
// Like the original, the cache is orthogonal to packing: it cuts
// per-message CPU, not the number of messages.
type diffCache struct {
	shards [diffShards]diffShard
	hits   atomic.Int64
	misses atomic.Int64
}

const diffShards = 8

type diffShard struct {
	mu      sync.Mutex
	cap     int
	entries map[[sha256.Size]byte]*diffEntry
	// Intrusive LRU list: head is most recent, tail next to evict.
	head, tail *diffEntry
}

type diffEntry struct {
	key        [sha256.Size]byte
	tree       *xmldom.Element // immutable once stored
	prev, next *diffEntry
}

func newDiffCache(capacity int) *diffCache {
	if capacity <= 0 {
		capacity = 256
	}
	perShard := (capacity + diffShards - 1) / diffShards
	d := &diffCache{}
	for i := range d.shards {
		d.shards[i].cap = perShard
		d.shards[i].entries = make(map[[sha256.Size]byte]*diffEntry, perShard)
	}
	return d
}

func (d *diffCache) shard(key [sha256.Size]byte) *diffShard {
	return &d.shards[key[0]%diffShards]
}

// lookup returns the cached immutable tree for key, or nil. The caller
// clones it (into the request arena) outside the lock.
func (d *diffCache) lookup(key [sha256.Size]byte) *xmldom.Element {
	s := d.shard(key)
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		s.mu.Unlock()
		d.misses.Add(1)
		return nil
	}
	s.moveToFront(e)
	tree := e.tree
	s.mu.Unlock()
	d.hits.Add(1)
	return tree
}

// insert stores tree — which must never be mutated again — under key,
// evicting the least recently used entry of the shard when full.
func (d *diffCache) insert(key [sha256.Size]byte, tree *xmldom.Element) {
	s := d.shard(key)
	s.mu.Lock()
	if _, dup := s.entries[key]; !dup {
		if len(s.entries) >= s.cap {
			if lru := s.tail; lru != nil {
				s.unlink(lru)
				delete(s.entries, lru.key)
			}
		}
		e := &diffEntry{key: key, tree: tree}
		s.entries[key] = e
		s.pushFront(e)
	}
	s.mu.Unlock()
}

func (s *diffShard) pushFront(e *diffEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *diffShard) unlink(e *diffEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *diffShard) moveToFront(e *diffEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// subtreeKey derives the cache key for one raw subtree span. ctxSum is the
// digest of the ancestor start tags (envelope root, Body, and the packed
// entry for per-child spans) — mixing it in guarantees byte-identical
// spans under different namespace declarations never share an entry.
func subtreeKey(ctxSum [sha256.Size]byte, raw []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(ctxSum[:])
	h.Write(raw)
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// contextSum digests the ancestor start tags for subtreeKey.
func contextSum(tags ...[]byte) [sha256.Size]byte {
	h := sha256.New()
	for _, t := range tags {
		h.Write(t)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// parse returns the subtree for one raw body-entry span under the ancestor
// context ctxSum: a clone of the cached parse on a hit (the span is not
// tokenized at all), a fresh parse on a miss. attach hooks the subtree into
// the request document. A miss is stored as a clone taken after attaching:
// that bakes the inherited namespace declarations onto the stored copy, so
// a future hit resolves identically without its ancestors.
func (d *diffCache) parse(ctxSum [sha256.Size]byte, raw []byte, arena *xmldom.Arena, attach func(*xmldom.Element)) (*xmldom.Element, error) {
	key := subtreeKey(ctxSum, raw)
	if cached := d.lookup(key); cached != nil {
		el := cached.CloneInArena(arena)
		attach(el)
		return el, nil
	}
	el, err := xmldom.ParseBytesInArena(raw, arena)
	if err != nil {
		return nil, err
	}
	attach(el)
	d.insert(key, el.Clone())
	return el, nil
}

// stats returns (hits, misses).
func (d *diffCache) stats() (int64, int64) {
	return d.hits.Load(), d.misses.Load()
}
