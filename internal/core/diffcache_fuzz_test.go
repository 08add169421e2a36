package core

import (
	"bytes"
	"testing"

	"repro/internal/xmldom"
)

// FuzzDiffSubtree feeds adversarial bytes through the per-subtree hashing
// path of the differential cache and checks the invariant the streaming
// server relies on: for any span that parses at all, the tree recovered
// through the cache (insert a clone, look it up, clone into a fresh arena —
// exactly what diffCache.parse does on a hit) serializes to the same
// bytes as a direct cache-off parse of the span. Any divergence would mean
// cache hits could silently change what a service method sees.
func FuzzDiffSubtree(f *testing.F) {
	f.Add([]byte("<a>1</a>"), []byte("<Body>"))
	f.Add([]byte(`<m:op xmlns:m="urn:x"><data xsi:type="xsd:string">hi</data></m:op>`), []byte("<Body>"))
	f.Add([]byte(`<e spi:id="0" spi:service="Echo"><v>1 &amp; 2</v></e>`), []byte(`<spi:Parallel_Method xmlns:spi="urn:p">`))
	f.Add([]byte("<a><b/><b></b><c attr='&lt;'/></a>"), []byte(""))
	f.Add([]byte("<a>"), []byte("<Body>"))
	f.Add([]byte("text only"), []byte("<Body>"))

	f.Fuzz(func(t *testing.T, raw, ctx []byte) {
		// Key derivation must be total — it runs before the span is parsed.
		sum := contextSum([]byte("<Envelope>"), ctx)
		key := subtreeKey(sum, raw)

		arena := xmldom.AcquireArena()
		defer xmldom.ReleaseArena(arena)
		direct, err := xmldom.ParseBytesInArena(raw, arena)
		if err != nil {
			return // unparseable spans never reach the cache
		}
		var want bytes.Buffer
		if err := direct.Serialize(&want); err != nil {
			t.Fatalf("serialize direct parse: %v", err)
		}

		cache := newDiffCache(8)
		if cache.lookup(key) != nil {
			t.Fatal("hit in empty cache")
		}
		cache.insert(key, direct.Clone())
		cached := cache.lookup(key)
		if cached == nil {
			t.Fatal("miss immediately after insert")
		}

		hitArena := xmldom.AcquireArena()
		defer xmldom.ReleaseArena(hitArena)
		var got bytes.Buffer
		if err := cached.CloneInArena(hitArena).Serialize(&got); err != nil {
			t.Fatalf("serialize cache hit: %v", err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("cache hit diverges from direct parse\nraw:    %q\ndirect: %s\nhit:    %s",
				raw, want.Bytes(), got.Bytes())
		}

		// Same span under a different ancestor context must key separately:
		// identical bytes can resolve prefixes differently there.
		other := subtreeKey(contextSum([]byte("<Envelope>"), append(ctx, '!')), raw)
		if other == key {
			t.Error("context change did not change subtree key")
		}
	})
}
