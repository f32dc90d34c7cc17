package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	c := New(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", "1")
	c.Put("b", "2")
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	c.Put("c", "3")
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := New(2)
	c.Put("a", "1")
	c.Put("b", "2")
	c.Put("a", "updated") // refresh, not insert: "b" must survive
	c.Put("c", "3")       // evicts "b" (LRU), not "a"
	if _, ok := c.Get("b"); ok {
		t.Fatal("refreshed Put did not move a to the front")
	}
	if v, _ := c.Get("a"); v != "updated" {
		t.Fatalf("Get(a) = %q, want updated", v)
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				c.Put(k, k)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("Len = %d exceeds capacity", c.Len())
	}
}

// TestLRUHitMissAccountingUnderHammer drives the daemon's actual cache
// usage pattern — Get, then Put on a miss — from many goroutines over a key
// space twice the capacity, and checks the accounting identities the
// daemon's cache hit/miss stats are built on: every Get is exactly one
// hit or one miss, the globally first touch of every key is a miss, and
// eviction keeps the table at capacity. Run under -race in CI.
func TestLRUHitMissAccountingUnderHammer(t *testing.T) {
	const (
		capacity = 32
		keys     = 64
		workers  = 8
		perW     = 2000
	)
	c := New(capacity)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := fmt.Sprintf("key-%03d", (g*7+i)%keys)
				if _, ok := c.Get(k); !ok {
					c.Put(k, k)
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(workers * perW)
	if got := c.Hits() + c.Misses(); got != total {
		t.Fatalf("hits+misses = %d, want %d (every Get is exactly one of the two)", got, total)
	}
	// 64 keys never fit in 32 slots: the first touch of each key misses,
	// and the thrash forces further misses — but hits must still dominate
	// a 16000-op run re-touching a small key space.
	if c.Misses() < keys {
		t.Fatalf("misses = %d, want >= %d (first touch of every key)", c.Misses(), keys)
	}
	if c.Hits() == 0 {
		t.Fatal("hammer recorded zero hits")
	}
	if c.Len() > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", c.Len(), capacity)
	}
}
