// Package cache is a bounded LRU from a cache key to a job ID, with
// hit/miss counters. It was knemd's result cache; the daemon no longer uses
// it (the ledger in serve/store holds every run and is the cache), and it
// stays only as the subject of the benchmark's serve.cache.get_ns probe.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// LRU is a goroutine-safe fixed-capacity least-recently-used cache.
type LRU struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type entry struct {
	key, val string
}

// New returns an empty cache bounded to capacity entries (minimum 1).
func New(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value under key, refreshing its recency, and counts the
// hit or miss.
func (c *LRU) Get(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return "", false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put inserts or refreshes key -> val, evicting the least recently used
// entry when over capacity.
func (c *LRU) Put(key, val string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
	}
}

// Len returns the number of cached entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits returns the lifetime hit count.
func (c *LRU) Hits() int64 { return c.hits.Load() }

// Misses returns the lifetime miss count.
func (c *LRU) Misses() int64 { return c.misses.Load() }
