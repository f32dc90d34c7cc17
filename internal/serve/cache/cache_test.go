package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// TestLRUHitMissAccountingUnderHammer drives a result cache's usage
// pattern — Get, then Put on a miss — from many goroutines over a key space
// twice the capacity, counts the hits and misses Get reports, and checks
// that the globally first touch of every key is a miss, that re-touches
// hit, and that eviction keeps the table at capacity. Run under -race in CI.
func TestLRUHitMissAccountingUnderHammer(t *testing.T) {
	const (
		capacity = 32
		keys     = 64
		workers  = 8
		perW     = 2000
	)
	c := New(capacity)
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := fmt.Sprintf("key-%03d", (g*7+i)%keys)
				if _, ok := c.Get(k); ok {
					hits.Add(1)
				} else {
					misses.Add(1)
					c.Put(k, k)
				}
			}
		}(g)
	}
	wg.Wait()

	// 64 keys never fit in 32 slots: the first touch of each key misses,
	// and the thrash forces further misses — but a 16000-op run
	// re-touching a small key space must still hit.
	if misses.Load() < keys {
		t.Fatalf("misses = %d, want >= %d (first touch of every key)", misses.Load(), keys)
	}
	if hits.Load() == 0 {
		t.Fatal("hammer recorded zero hits")
	}
	if c.Len() > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", c.Len(), capacity)
	}
}
